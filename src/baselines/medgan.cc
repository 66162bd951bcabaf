#include "baselines/medgan.h"

#include <memory>

#include "baselines/recon_loss.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "synth/kl_regularizer.h"
#include "synth/train_loop.h"

namespace daisy::baselines {

MedGanSynthesizer::MedGanSynthesizer(
    const MedGanOptions& options,
    const transform::TransformOptions& transform_opts)
    : opts_(options), topts_(transform_opts), rng_(options.seed) {
  topts_.form = transform::SampleForm::kVector;
  topts_.exclude_label = false;
}

Matrix MedGanSynthesizer::Decode(const Matrix& latent, bool training) {
  Matrix features = decoder_body_->Forward(latent, training);
  return decoder_heads_->Forward(features);
}

Status MedGanSynthesizer::Fit(const data::Table& train,
                              obs::MetricSink* sink) {
  DAISY_CHECK(!fitted_);
  DAISY_CHECK(train.num_records() > 1);

  transformer_ = std::make_unique<transform::RecordTransformer>(
      transform::RecordTransformer::Fit(train, topts_, &rng_));
  const size_t d = transformer_->sample_dim();
  Rng init = rng_.Split();

  encoder_ = std::make_unique<nn::Sequential>();
  size_t in = d;
  for (size_t w : opts_.hidden) {
    encoder_->Emplace<nn::Linear>(in, w, &init);
    encoder_->Emplace<nn::Tanh>();
    in = w;
  }
  encoder_->Emplace<nn::Linear>(in, opts_.latent_dim, &init);

  decoder_body_ = std::make_unique<nn::Sequential>();
  in = opts_.latent_dim;
  for (auto it = opts_.hidden.rbegin(); it != opts_.hidden.rend(); ++it) {
    decoder_body_->Emplace<nn::Linear>(in, *it, &init);
    decoder_body_->Emplace<nn::Tanh>();
    in = *it;
  }
  decoder_heads_ = std::make_unique<synth::AttributeHeads>(
      in, transformer_->segments(), &init);

  latent_generator_ = std::make_unique<nn::Sequential>();
  latent_generator_->Emplace<nn::Linear>(opts_.latent_dim,
                                         opts_.latent_dim * 2, &init);
  latent_generator_->Emplace<nn::ReLU>();
  latent_generator_->Emplace<nn::Linear>(opts_.latent_dim * 2,
                                         opts_.latent_dim, &init);

  discriminator_ = std::make_unique<synth::MlpDiscriminator>(
      d, 0, opts_.hidden, /*simplified=*/false, &init);

  const Matrix real_all = transformer_->Transform(train);
  const size_t n = real_all.rows();
  Rng train_rng = rng_.Split();

  // Both phases' parameter lists and optimizers are built up front so a
  // resumed run can restore either phase. Adam construction only
  // allocates zeroed moments — no rng draws — so hoisting the phase-2
  // optimizers above phase 1 changes nothing.
  std::vector<nn::Parameter*> ae_params = encoder_->Params();
  for (auto* p : decoder_body_->Params()) ae_params.push_back(p);
  for (auto* p : decoder_heads_->Params()) ae_params.push_back(p);
  nn::Adam ae_opt(ae_params, opts_.lr);

  std::vector<nn::Parameter*> g_params = latent_generator_->Params();
  for (auto* p : decoder_body_->Params()) g_params.push_back(p);
  for (auto* p : decoder_heads_->Params()) g_params.push_back(p);
  nn::Adam g_opt(g_params, opts_.lr);
  nn::Adam d_opt(discriminator_->Params(), opts_.lr);

  // One loop across both phases: it loads the newest checkpoint once
  // (a phase-1 checkpoint skips pretraining) and counts the pause
  // budget over epochs and iterations together. Neither phase has
  // batch-norm buffers.
  synth::TrainLoop loop(opts_, "medgan", opts_.seed, /*num_phases=*/2, sink);

  // ---- Phase 1: autoencoder pretraining --------------------------
  const size_t batches = std::max<size_t>(1, n / opts_.batch_size);
  synth::LoopPhase pretrain;
  pretrain.phase = 0;
  pretrain.tag = "medgan.pretrain";
  pretrain.iterations = opts_.ae_epochs;
  pretrain.more_after = opts_.gan_iterations > 0;
  pretrain.params = ae_params;
  pretrain.healthy_params = ae_params;
  pretrain.optimizers = {&ae_opt};
  pretrain.rngs = {&train_rng};
  pretrain.extras = {&pretrain_loss_};
  pretrain.step = [&](size_t) {
    double epoch_loss = 0.0;
    for (size_t b = 0; b < batches; ++b) {
      std::vector<size_t> rows(opts_.batch_size);
      for (auto& r : rows) r = train_rng.UniformInt(n);
      Matrix batch = real_all.GatherRows(rows);
      ae_opt.ZeroGrad();
      Matrix latent = encoder_->Forward(batch, true);
      Matrix recon = Decode(latent, true);
      Matrix grad_recon;
      epoch_loss += ReconstructionLoss(recon, batch,
                                       transformer_->segments(),
                                       &grad_recon);
      Matrix grad_features = decoder_heads_->Backward(grad_recon);
      Matrix grad_latent = decoder_body_->Backward(grad_features);
      encoder_->Backward(grad_latent);
      ae_opt.Step();
    }
    obs::MetricRecord rec;
    rec.g_loss = epoch_loss / static_cast<double>(batches);
    rec.g_grad_norm = nn::GlobalGradNorm(ae_params);
    return rec;
  };
  pretrain.on_healthy = [&](const obs::MetricRecord& rec) {
    pretrain_loss_ = rec.g_loss;
  };
  synth::LoopOutcome out = loop.Run(pretrain);
  fitted_ = !out.refused;
  paused_ = out.paused;
  if (!out.health.ok() || out.paused) return out.health;

  // ---- Phase 2: adversarial training in latent space -------------
  // g_params covers everything Generate() uses (latent generator +
  // decoder): the loop rolls those back on a trip, from a baseline it
  // captures now, so it holds the pretrained decoder.
  synth::LoopPhase adversarial;
  adversarial.phase = 1;
  adversarial.tag = "medgan";
  adversarial.iterations = opts_.gan_iterations;
  adversarial.params = g_params;
  for (auto* p : discriminator_->Params()) adversarial.params.push_back(p);
  adversarial.healthy_params = g_params;
  adversarial.optimizers = {&g_opt, &d_opt};
  adversarial.rngs = {&train_rng};
  adversarial.extras = {&pretrain_loss_};
  adversarial.step = [&](size_t) {
    obs::MetricRecord rec;
    // Discriminator step.
    {
      std::vector<size_t> rows(opts_.batch_size);
      for (auto& r : rows) r = train_rng.UniformInt(n);
      Matrix real = real_all.GatherRows(rows);
      Matrix z = Matrix::Randn(opts_.batch_size, opts_.latent_dim,
                               &train_rng);
      Matrix fake = Decode(latent_generator_->Forward(z, true), true);

      discriminator_->ZeroGrad();
      {
        Matrix logits = discriminator_->Forward(real, Matrix(), true);
        Matrix grad;
        rec.d_loss += nn::BceWithLogitsLoss(logits,
                                            Matrix(logits.rows(), 1, 1.0),
                                            &grad);
        discriminator_->Backward(grad);
      }
      {
        Matrix logits = discriminator_->Forward(fake, Matrix(), true);
        Matrix grad;
        rec.d_loss += nn::BceWithLogitsLoss(logits,
                                            Matrix(logits.rows(), 1, 0.0),
                                            &grad);
        discriminator_->Backward(grad);
      }
      rec.d_grad_norm = nn::GlobalGradNorm(discriminator_->Params());
      d_opt.Step();
    }
    // Generator (+ decoder fine-tuning) step.
    {
      Matrix z = Matrix::Randn(opts_.batch_size, opts_.latent_dim,
                               &train_rng);
      for (auto* p : g_params) p->ZeroGrad();
      discriminator_->ZeroGrad();
      Matrix latent = latent_generator_->Forward(z, true);
      Matrix fake = Decode(latent, true);
      Matrix logits = discriminator_->Forward(fake, Matrix(), true);
      Matrix grad_logits;
      rec.g_loss = nn::BceWithLogitsLoss(
          logits, Matrix(logits.rows(), 1, 1.0), &grad_logits);
      Matrix grad_fake = discriminator_->Backward(grad_logits);
      if (opts_.kl_weight > 0.0) {
        synth::KlRegularizer kl(transformer_->segments());
        std::vector<size_t> ref_rows(opts_.batch_size);
        for (auto& r : ref_rows) r = train_rng.UniformInt(n);
        rec.g_loss += kl.Compute(real_all.GatherRows(ref_rows), fake,
                                 opts_.kl_weight, &grad_fake);
      }
      Matrix grad_features = decoder_heads_->Backward(grad_fake);
      Matrix grad_latent = decoder_body_->Backward(grad_features);
      latent_generator_->Backward(grad_latent);
      rec.g_grad_norm = nn::GlobalGradNorm(g_params);
      g_opt.Step();
    }
    return rec;
  };
  out = loop.Run(adversarial);
  fitted_ = !out.refused;
  paused_ = out.paused;
  return out.health;
}

synth::StateDict MedGanSynthesizer::ParamState() {
  std::vector<nn::Parameter*> params = encoder_->Params();
  for (const auto& net :
       {decoder_body_->Params(), decoder_heads_->Params(),
        latent_generator_->Params(), discriminator_->Params()})
    params.insert(params.end(), net.begin(), net.end());
  return synth::GetState(params);
}

data::Table MedGanSynthesizer::Generate(size_t n, Rng* rng) {
  DAISY_CHECK(fitted_);
  constexpr size_t kGenBatch = 256;
  data::Table out(transformer_->schema());
  out.Reserve(n);
  size_t produced = 0;
  std::vector<double> record;
  while (produced < n) {
    const size_t m = std::min(kGenBatch, n - produced);
    Matrix z = Matrix::Randn(m, opts_.latent_dim, rng);
    Matrix samples = Decode(latent_generator_->Forward(z, false), false);
    data::Table decoded = transformer_->InverseTransform(samples);
    for (size_t i = 0; i < m; ++i) {
      record.assign(decoded.num_attributes(), 0.0);
      for (size_t j = 0; j < decoded.num_attributes(); ++j)
        record[j] = decoded.value(i, j);
      out.AppendRecord(record);
    }
    produced += m;
  }
  return out;
}

}  // namespace daisy::baselines
