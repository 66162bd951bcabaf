#include "baselines/vae.h"

#include <cmath>
#include <memory>

#include "baselines/recon_loss.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "synth/train_loop.h"

namespace daisy::baselines {

VaeSynthesizer::VaeSynthesizer(
    const VaeOptions& options,
    const transform::TransformOptions& transform_opts)
    : opts_(options), topts_(transform_opts), rng_(options.seed) {
  topts_.form = transform::SampleForm::kVector;
  topts_.exclude_label = false;  // VAE models the label jointly
}

Status VaeSynthesizer::Fit(const data::Table& train,
                           obs::MetricSink* sink) {
  DAISY_CHECK(!fitted_);

  transformer_ = std::make_unique<transform::RecordTransformer>(
      transform::RecordTransformer::Fit(train, topts_, &rng_));
  const size_t d = transformer_->sample_dim();
  Rng init = rng_.Split();

  encoder_body_ = std::make_unique<nn::Sequential>();
  size_t in = d;
  for (size_t width : opts_.hidden) {
    encoder_body_->Emplace<nn::Linear>(in, width, &init);
    encoder_body_->Emplace<nn::ReLU>();
    in = width;
  }
  mu_head_ = std::make_unique<nn::Linear>(in, opts_.latent_dim, &init);
  logvar_head_ = std::make_unique<nn::Linear>(in, opts_.latent_dim, &init);

  decoder_body_ = std::make_unique<nn::Sequential>();
  in = opts_.latent_dim;
  for (auto it = opts_.hidden.rbegin(); it != opts_.hidden.rend(); ++it) {
    decoder_body_->Emplace<nn::Linear>(in, *it, &init);
    decoder_body_->Emplace<nn::ReLU>();
    in = *it;
  }
  decoder_heads_ = std::make_unique<synth::AttributeHeads>(
      in, transformer_->segments(), &init);

  params_ = encoder_body_->Params();
  for (auto* p : mu_head_->Params()) params_.push_back(p);
  for (auto* p : logvar_head_->Params()) params_.push_back(p);
  for (auto* p : decoder_body_->Params()) params_.push_back(p);
  for (auto* p : decoder_heads_->Params()) params_.push_back(p);
  optimizer_ = std::make_unique<nn::Adam>(params_, opts_.lr);

  const Matrix samples = transformer_->Transform(train);
  Rng train_rng = rng_.Split();
  const size_t n = samples.rows();
  const size_t batches_per_epoch =
      std::max<size_t>(1, n / opts_.batch_size);

  synth::LoopPhase phase;
  phase.tag = "vae";
  phase.iterations = opts_.epochs;
  phase.params = params_;
  phase.healthy_params = params_;
  phase.optimizers = {optimizer_.get()};
  phase.rngs = {&train_rng};
  phase.extras = {&final_loss_};
  phase.step = [&](size_t) {
    double epoch_loss = 0.0;
    for (size_t b = 0; b < batches_per_epoch; ++b) {
      std::vector<size_t> rows(opts_.batch_size);
      for (auto& r : rows) r = train_rng.UniformInt(n);
      epoch_loss += TrainBatch(samples.GatherRows(rows), &train_rng);
    }
    obs::MetricRecord rec;
    rec.g_loss = epoch_loss / static_cast<double>(batches_per_epoch);
    rec.g_grad_norm = nn::GlobalGradNorm(params_);  // last batch's grads
    return rec;
  };
  phase.on_healthy = [&](const obs::MetricRecord& rec) {
    final_loss_ = rec.g_loss;
  };

  synth::TrainLoop loop(opts_, "vae", opts_.seed, /*num_phases=*/1, sink);
  const synth::LoopOutcome out = loop.Run(phase);
  fitted_ = !out.refused;
  paused_ = out.paused;
  return out.health;
}

double VaeSynthesizer::TrainBatch(const Matrix& batch, Rng* rng) {
  optimizer_->ZeroGrad();
  const size_t m = batch.rows();
  const size_t latent = opts_.latent_dim;
  const double inv_m = 1.0 / static_cast<double>(m);

  // Encode.
  Matrix enc = encoder_body_->Forward(batch, /*training=*/true);
  Matrix mu = mu_head_->Forward(enc, true);
  Matrix logvar = logvar_head_->Forward(enc, true);
  logvar.Clip(-8.0, 8.0);

  // Reparameterize.
  Matrix eps = Matrix::Randn(m, latent, rng);
  Matrix z(m, latent);
  for (size_t r = 0; r < m; ++r)
    for (size_t c = 0; c < latent; ++c)
      z(r, c) = mu(r, c) + eps(r, c) * std::exp(0.5 * logvar(r, c));

  // Decode.
  Matrix dec = decoder_body_->Forward(z, true);
  Matrix recon = decoder_heads_->Forward(dec);

  // Losses.
  Matrix grad_recon;
  double loss = ReconstructionLoss(recon, batch, transformer_->segments(),
                                   &grad_recon);
  double kl = 0.0;
  Matrix grad_mu(m, latent);
  Matrix grad_logvar(m, latent);
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < latent; ++c) {
      const double v = std::exp(logvar(r, c));
      kl += 0.5 * (v + mu(r, c) * mu(r, c) - 1.0 - logvar(r, c)) * inv_m;
      grad_mu(r, c) = opts_.kl_weight * mu(r, c) * inv_m;
      grad_logvar(r, c) = opts_.kl_weight * 0.5 * (v - 1.0) * inv_m;
    }
  }
  loss += opts_.kl_weight * kl;

  // Backward: decoder.
  Matrix grad_dec = decoder_heads_->Backward(grad_recon);
  Matrix grad_z = decoder_body_->Backward(grad_dec);

  // Through the reparameterization into mu / logvar.
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < latent; ++c) {
      grad_mu(r, c) += grad_z(r, c);
      grad_logvar(r, c) +=
          grad_z(r, c) * eps(r, c) * 0.5 * std::exp(0.5 * logvar(r, c));
    }
  }

  // Encoder backward (two heads share the body input).
  Matrix grad_enc = mu_head_->Backward(grad_mu);
  grad_enc += logvar_head_->Backward(grad_logvar);
  encoder_body_->Backward(grad_enc);

  optimizer_->Step();
  return loss;
}

data::Table VaeSynthesizer::Generate(size_t n, Rng* rng) {
  DAISY_CHECK(fitted_);
  constexpr size_t kGenBatch = 256;
  data::Table out(transformer_->schema());
  out.Reserve(n);
  size_t produced = 0;
  while (produced < n) {
    const size_t m = std::min(kGenBatch, n - produced);
    Matrix z = Matrix::Randn(m, opts_.latent_dim, rng);
    Matrix dec = decoder_body_->Forward(z, /*training=*/false);
    Matrix recon = decoder_heads_->Forward(dec);
    data::Table decoded = transformer_->InverseTransform(recon);
    for (size_t i = 0; i < m; ++i) {
      std::vector<double> record(decoded.num_attributes());
      for (size_t j = 0; j < decoded.num_attributes(); ++j)
        record[j] = decoded.value(i, j);
      out.AppendRecord(record);
    }
    produced += m;
  }
  return out;
}

}  // namespace daisy::baselines
