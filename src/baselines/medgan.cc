#include "baselines/medgan.h"

#include <memory>

#include "baselines/recon_loss.h"
#include "ckpt/checkpoint.h"
#include "core/parallel.h"
#include "synth/generator.h"
#include "synth/kl_regularizer.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "obs/timer.h"

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
  fitted_ = true;

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

  const size_t log_every = std::max<size_t>(1, opts_.log_every);
  const obs::DivergenceSentinel sentinel(opts_.sentinel);
  obs::WallTimer run_timer;

  // Both phases' parameter lists and optimizers are built up front so a
  // resumed run can restore either phase before entering the loops.
  // Adam construction only allocates zeroed moments — no rng draws — so
  // hoisting the phase-2 optimizers above phase 1 changes nothing.
  std::vector<nn::Parameter*> ae_params = encoder_->Params();
  for (auto* p : decoder_body_->Params()) ae_params.push_back(p);
  for (auto* p : decoder_heads_->Params()) ae_params.push_back(p);
  nn::Adam ae_opt(ae_params, opts_.lr);

  std::vector<nn::Parameter*> g_params = latent_generator_->Params();
  for (auto* p : decoder_body_->Params()) g_params.push_back(p);
  for (auto* p : decoder_heads_->Params()) g_params.push_back(p);
  nn::Adam g_opt(g_params, opts_.lr);
  nn::Adam d_opt(discriminator_->Params(), opts_.lr);

  std::vector<nn::Parameter*> gan_params = g_params;
  for (auto* p : discriminator_->Params()) gan_params.push_back(p);

  std::unique_ptr<ckpt::CheckpointStore> store;
  if (!opts_.checkpoint_dir.empty())
    store = std::make_unique<ckpt::CheckpointStore>(opts_.checkpoint_dir,
                                                    opts_.checkpoint_keep);

  // On a sentinel trip, restore the last healthy state of the failing
  // phase (mirroring GanTrainer) before surfacing the failure status.
  synth::StateDict ae_last_healthy = synth::GetState(ae_params);
  synth::StateDict last_healthy = synth::GetState(g_params);

  size_t start_ae_epoch = 0;
  size_t start_gan_iter = 0;
  bool skip_phase1 = false;
  if (opts_.resume && store != nullptr) {
    auto loaded = store->LoadLatest();
    if (loaded.ok()) {
      const ckpt::TrainCheckpoint& c = loaded.value();
      if (c.run != "medgan")
        return Status::InvalidArgument("checkpoint is for run '" + c.run +
                                       "', not 'medgan'");
      if (c.seed != opts_.seed || c.phase > 1 || !c.buffers.empty() ||
          c.extra.size() != 1)
        return Status::InvalidArgument(
            "medgan checkpoint does not match the configured run");
      if (c.phase == 0) {
        // Mid-pretraining: restore the autoencoder and its optimizer.
        if (c.total_iters != opts_.ae_epochs || c.iter > c.total_iters ||
            !synth::ShapesMatch(ae_params, c.params) ||
            !synth::ShapesMatch(ae_params, c.healthy_params) ||
            c.optimizer_state.size() != 1)
          return Status::InvalidArgument(
              "medgan pretrain checkpoint does not match this network");
        DAISY_RETURN_IF_ERROR(LoadOptimizerBlob(
            &ae_opt, c.optimizer_state[0], "medgan autoencoder"));
        DAISY_RETURN_IF_ERROR(train_rng.SetState(c.rng_state));
        synth::SetState(ae_params, c.params);
        ae_last_healthy = c.healthy_params;
        pretrain_loss_ = c.extra[0];
        start_ae_epoch = c.iter;
      } else {
        // Mid-adversarial-phase: pretraining is finished; its result
        // lives inside the decoder part of g_params.
        if (c.total_iters != opts_.gan_iterations || c.iter > c.total_iters ||
            !synth::ShapesMatch(gan_params, c.params) ||
            !synth::ShapesMatch(g_params, c.healthy_params) ||
            c.optimizer_state.size() != 2)
          return Status::InvalidArgument(
              "medgan adversarial checkpoint does not match this network");
        DAISY_RETURN_IF_ERROR(LoadOptimizerBlob(
            &g_opt, c.optimizer_state[0], "medgan generator"));
        DAISY_RETURN_IF_ERROR(LoadOptimizerBlob(
            &d_opt, c.optimizer_state[1], "medgan discriminator"));
        DAISY_RETURN_IF_ERROR(train_rng.SetState(c.rng_state));
        synth::SetState(gan_params, c.params);
        last_healthy = c.healthy_params;
        pretrain_loss_ = c.extra[0];
        skip_phase1 = true;
        start_gan_iter = c.iter;
      }
      if (sink != nullptr)
        DAISY_RETURN_IF_ERROR(sink->ResumeAt(c.telemetry_records));
    } else if (loaded.status().code() != Status::Code::kNotFound) {
      return loaded.status();
    }
  }

  size_t iters_this_run = 0;

  // ---- Phase 1: autoencoder pretraining --------------------------
  if (!skip_phase1) {
    const size_t batches = std::max<size_t>(1, n / opts_.batch_size);
    for (size_t epoch = start_ae_epoch; epoch < opts_.ae_epochs; ++epoch) {
      obs::WallTimer epoch_timer;
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
      rec.run = "medgan.pretrain";
      rec.iter = epoch + 1;
      rec.g_loss = epoch_loss / static_cast<double>(batches);
      rec.g_grad_norm = nn::GlobalGradNorm(ae_params);
      rec.param_norm = nn::GlobalParamNorm(ae_params);
      rec.iter_ms = epoch_timer.ElapsedMs();
      rec.wall_ms = run_timer.ElapsedMs();
      rec.threads = par::NumThreads();
      rec.seed = opts_.seed;

      const Status health = sentinel.Check(rec);
      if (!health.ok()) {
        if (sink != nullptr) {
          sink->Log(rec);
          sink->Flush();
        }
        // Durable fallback: if even the in-memory baseline is poisoned,
        // prefer the newest on-disk pretrain checkpoint with a finite
        // one.
        if (store != nullptr && !synth::AllFinite(ae_last_healthy)) {
          auto fc =
              store->LoadLatestWhere([&](const ckpt::TrainCheckpoint& c) {
                return c.phase == 0 &&
                       synth::ShapesMatch(ae_params, c.healthy_params) &&
                       synth::AllFinite(c.healthy_params);
              });
          if (fc.ok()) ae_last_healthy = fc.value().healthy_params;
        }
        synth::SetState(ae_params, ae_last_healthy);
        return health;
      }
      pretrain_loss_ = rec.g_loss;
      ae_last_healthy = synth::GetState(ae_params);
      if (sink != nullptr &&
          ((epoch + 1) % log_every == 0 || epoch + 1 == opts_.ae_epochs)) {
        sink->Log(rec);
      }

      if (store != nullptr && opts_.checkpoint_every > 0 &&
          (epoch + 1) % opts_.checkpoint_every == 0) {
        obs::MetricRecord ckpt_rec = rec;
        ckpt_rec.run += ".ckpt";
        if (sink != nullptr) sink->Log(ckpt_rec);
        ckpt::TrainCheckpoint c;
        c.run = "medgan";
        c.phase = 0;
        c.iter = epoch + 1;
        c.total_iters = opts_.ae_epochs;
        c.seed = opts_.seed;
        c.telemetry_records = sink != nullptr ? sink->records_logged() : 0;
        c.rng_state = train_rng.GetState();
        c.params = synth::GetState(ae_params);
        c.optimizer_state = {OptimizerBlob(ae_opt)};
        c.healthy_params = ae_last_healthy;
        c.extra = {pretrain_loss_};
        const Status saved = store->Save(c);
        if (!saved.ok()) {
          if (sink != nullptr) sink->Flush();
          return saved;
        }
      }

      ++iters_this_run;
      if (opts_.max_iters_per_run > 0 &&
          iters_this_run >= opts_.max_iters_per_run &&
          (epoch + 1 < opts_.ae_epochs || opts_.gan_iterations > 0)) {
        paused_ = true;
        if (sink != nullptr) sink->Flush();
        return Status::OK();
      }
    }
  }

  // ---- Phase 2: adversarial training in latent space -------------
  // g_params covers everything Generate() uses (latent generator +
  // decoder); roll those back to the last healthy iteration on a trip.
  // The baseline is re-captured here (not at construction) so it holds
  // the pretrained decoder; a phase-1 resume already restored it.
  if (!skip_phase1) last_healthy = synth::GetState(g_params);

  for (size_t iter = start_gan_iter; iter < opts_.gan_iterations; ++iter) {
    obs::WallTimer iter_timer;
    double d_loss = 0.0, g_loss = 0.0, d_grad_norm = 0.0, g_grad_norm = 0.0;
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
        d_loss += nn::BceWithLogitsLoss(logits,
                                        Matrix(logits.rows(), 1, 1.0),
                                        &grad);
        discriminator_->Backward(grad);
      }
      {
        Matrix logits = discriminator_->Forward(fake, Matrix(), true);
        Matrix grad;
        d_loss += nn::BceWithLogitsLoss(logits,
                                        Matrix(logits.rows(), 1, 0.0),
                                        &grad);
        discriminator_->Backward(grad);
      }
      d_grad_norm = nn::GlobalGradNorm(discriminator_->Params());
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
      g_loss = nn::BceWithLogitsLoss(logits, Matrix(logits.rows(), 1, 1.0),
                                     &grad_logits);
      Matrix grad_fake = discriminator_->Backward(grad_logits);
      if (opts_.kl_weight > 0.0) {
        synth::KlRegularizer kl(transformer_->segments());
        std::vector<size_t> ref_rows(opts_.batch_size);
        for (auto& r : ref_rows) r = train_rng.UniformInt(n);
        g_loss += kl.Compute(real_all.GatherRows(ref_rows), fake,
                             opts_.kl_weight, &grad_fake);
      }
      Matrix grad_features = decoder_heads_->Backward(grad_fake);
      Matrix grad_latent = decoder_body_->Backward(grad_features);
      latent_generator_->Backward(grad_latent);
      g_grad_norm = nn::GlobalGradNorm(g_params);
      g_opt.Step();
    }

    obs::MetricRecord rec;
    rec.run = "medgan";
    rec.iter = iter + 1;
    rec.d_loss = d_loss;
    rec.g_loss = g_loss;
    rec.d_grad_norm = d_grad_norm;
    rec.g_grad_norm = g_grad_norm;
    rec.param_norm = nn::GlobalParamNorm(g_params);
    rec.iter_ms = iter_timer.ElapsedMs();
    rec.wall_ms = run_timer.ElapsedMs();
    rec.threads = par::NumThreads();
    rec.seed = opts_.seed;

    const Status health = sentinel.Check(rec);
    if (!health.ok()) {
      if (sink != nullptr) {
        sink->Log(rec);
        sink->Flush();
      }
      // Durable fallback: if even the in-memory baseline is poisoned,
      // prefer the newest on-disk adversarial checkpoint with a finite
      // one.
      if (store != nullptr && !synth::AllFinite(last_healthy)) {
        auto fc = store->LoadLatestWhere([&](const ckpt::TrainCheckpoint& c) {
          return c.phase == 1 &&
                 synth::ShapesMatch(g_params, c.healthy_params) &&
                 synth::AllFinite(c.healthy_params);
        });
        if (fc.ok()) last_healthy = fc.value().healthy_params;
      }
      synth::SetState(g_params, last_healthy);
      return health;
    }
    last_healthy = synth::GetState(g_params);
    if (sink != nullptr &&
        ((iter + 1) % log_every == 0 || iter + 1 == opts_.gan_iterations)) {
      sink->Log(rec);
    }

    if (store != nullptr && opts_.checkpoint_every > 0 &&
        (iter + 1) % opts_.checkpoint_every == 0) {
      obs::MetricRecord ckpt_rec = rec;
      ckpt_rec.run += ".ckpt";
      if (sink != nullptr) sink->Log(ckpt_rec);
      ckpt::TrainCheckpoint c;
      c.run = "medgan";
      c.phase = 1;
      c.iter = iter + 1;
      c.total_iters = opts_.gan_iterations;
      c.seed = opts_.seed;
      c.telemetry_records = sink != nullptr ? sink->records_logged() : 0;
      c.rng_state = train_rng.GetState();
      c.params = synth::GetState(gan_params);
      c.optimizer_state = {OptimizerBlob(g_opt), OptimizerBlob(d_opt)};
      c.healthy_params = last_healthy;
      c.extra = {pretrain_loss_};
      const Status saved = store->Save(c);
      if (!saved.ok()) {
        if (sink != nullptr) sink->Flush();
        return saved;
      }
    }

    ++iters_this_run;
    if (opts_.max_iters_per_run > 0 &&
        iters_this_run >= opts_.max_iters_per_run &&
        iter + 1 < opts_.gan_iterations) {
      paused_ = true;
      break;
    }
  }
  if (sink != nullptr) sink->Flush();
  return Status::OK();
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
