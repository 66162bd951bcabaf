#include "synth/trainer.h"

#include <algorithm>

#include "core/parallel.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/sentinel.h"
#include "obs/timer.h"

namespace daisy::synth {

namespace {

const char* AlgoName(TrainAlgo algo) {
  switch (algo) {
    case TrainAlgo::kVTrain: return "gan.vtrain";
    case TrainAlgo::kWTrain: return "gan.wtrain";
    case TrainAlgo::kCTrain: return "gan.ctrain";
    case TrainAlgo::kDPTrain: return "gan.dptrain";
  }
  return "gan";
}

}  // namespace

GanTrainer::GanTrainer(Generator* generator, Discriminator* discriminator,
                       const transform::RecordTransformer* transformer,
                       const GanOptions& options)
    : g_(generator), d_(discriminator), transformer_(transformer),
      opts_(options), kl_(transformer->segments()),
      wasserstein_(options.algo == TrainAlgo::kWTrain ||
                   options.algo == TrainAlgo::kDPTrain) {
  DAISY_CHECK(g_->sample_dim() == transformer_->sample_dim());
  DAISY_CHECK(d_->sample_dim() == transformer_->sample_dim());
  DAISY_CHECK(g_->cond_dim() == d_->cond_dim());

  if (wasserstein_) {
    g_opt_ = std::make_unique<nn::RmsProp>(g_->Params(), opts_.lr_g);
    d_opt_ = std::make_unique<nn::RmsProp>(d_->Params(), opts_.lr_d);
  } else {
    g_opt_ = std::make_unique<nn::Adam>(g_->Params(), opts_.lr_g);
    d_opt_ = std::make_unique<nn::Adam>(d_->Params(), opts_.lr_d);
  }
  if (opts_.algo == TrainAlgo::kDPTrain) {
    dp_engine_ = std::make_unique<DpSgdEngine>(
        d_, opts_.dp_grad_bound, opts_.dp_noise_scale, opts_.dp_engine);
  }
}

Matrix GanTrainer::SampleNoise(size_t m, Rng* rng) const {
  return Matrix::Randn(m, g_->noise_dim(), rng);
}

double GanTrainer::DiscriminatorStep(const Matrix& real,
                                     const Matrix& real_cond,
                                     const Matrix& fake,
                                     const Matrix& fake_cond, Rng* rng) {
  double loss = 0.0;
  if (dp_engine_ != nullptr) {
    // DP-SGD (Algorithm 4): per-sample clipping to dp_grad_bound, then
    // noised-sum averaging, inside the engine. Telemetry keeps the
    // documented "true gradient magnitude before noise" semantics: the
    // clipped batch-averaged norm.
    const double inv_m = 1.0 / static_cast<double>(real.rows());
    loss = dp_engine_->Step(real, real_cond, fake, fake_cond, wasserstein_,
                            rng);
    last_d_grad_norm_ = dp_engine_->last_sum_norm() * inv_m;
  } else {
    d_->ZeroGrad();
    const double m_real = static_cast<double>(real.rows());
    const double m_fake = static_cast<double>(fake.rows());
    {  // Real half.
      Matrix logits = d_->Forward(real, real_cond, /*training=*/true);
      Matrix grad;
      if (wasserstein_) {
        // L_D += -mean(D(real)).
        loss += -logits.Mean();
        grad = Matrix(logits.rows(), 1, -1.0 / m_real);
      } else {
        Matrix ones(logits.rows(), 1, 1.0);
        loss += nn::BceWithLogitsLoss(logits, ones, &grad);
      }
      d_->Backward(grad);
    }
    {  // Fake half.
      Matrix logits = d_->Forward(fake, fake_cond, /*training=*/true);
      Matrix grad;
      if (wasserstein_) {
        // L_D += mean(D(fake)).
        loss += logits.Mean();
        grad = Matrix(logits.rows(), 1, 1.0 / m_fake);
      } else {
        Matrix zeros(logits.rows(), 1, 0.0);
        loss += nn::BceWithLogitsLoss(logits, zeros, &grad);
      }
      d_->Backward(grad);
    }
    last_d_grad_norm_ = nn::GlobalGradNorm(d_->Params());
  }
  // RCC-GAN-style critic regularization: rescale the update when the
  // critic gradient explodes (heavy-tailed batches), leaving telemetry
  // with the true pre-clamp norm. Under DP it runs on the noised
  // gradient — post-processing, so the privacy accounting is unchanged.
  if (opts_.critic_reg > 0.0)
    nn::ClipGradNorm(d_->Params(), opts_.critic_reg);
  d_opt_->Step();
  if (wasserstein_) nn::ClipParams(d_->Params(), opts_.weight_clip);
  return loss;
}

double GanTrainer::GeneratorStep(const Matrix& z, const Matrix& cond,
                                 const Matrix& real_ref,
                                 const ConditionSource& source) {
  g_->ZeroGrad();
  d_->ZeroGrad();  // gradients accumulated below are discarded

  Matrix fake = g_->Forward(z, cond, /*training=*/true);
  Matrix logits = d_->Forward(fake, cond, /*training=*/true);

  double loss = 0.0;
  Matrix grad_logits;
  if (wasserstein_) {
    // L_G = -mean(D(G(z))).
    loss = -logits.Mean();
    grad_logits = Matrix(logits.rows(), 1,
                         -1.0 / static_cast<double>(logits.rows()));
  } else {
    // Non-saturating loss: maximize log D(G(z)).
    Matrix ones(logits.rows(), 1, 1.0);
    loss = nn::BceWithLogitsLoss(logits, ones, &grad_logits);
  }
  Matrix grad_fake = d_->Backward(grad_logits);

  if (!wasserstein_ && !real_ref.empty() && opts_.kl_weight > 0.0) {
    loss += kl_.Compute(real_ref, fake, opts_.kl_weight, &grad_fake);
  }
  source.AddGeneratorLoss(cond, fake, &loss, &grad_fake);

  g_->Backward(grad_fake);
  last_g_grad_norm_ = nn::GlobalGradNorm(g_->Params());
  g_opt_->Step();
  return loss;
}

ckpt::TrainCheckpoint GanTrainer::MakeCheckpoint(
    size_t completed, uint64_t cursor, const TrainResult& result,
    const StateDict& last_healthy, const StateDict& last_healthy_buffers,
    Rng* rng) {
  ckpt::TrainCheckpoint c;
  c.run = AlgoName(opts_.algo);
  c.phase = 0;
  c.iter = completed;
  c.total_iters = opts_.iterations;
  c.seed = opts_.seed;
  c.telemetry_records = cursor;
  c.rng_state = rng->GetState();

  // Generator state first, discriminator appended — RestoreFromCheckpoint
  // splits at the live generator's parameter count.
  c.params = GetState(g_->Params());
  for (Matrix& m : GetState(d_->Params())) c.params.push_back(std::move(m));
  c.buffers = GetBufferState(g_->Buffers());
  for (Matrix& m : GetBufferState(d_->Buffers()))
    c.buffers.push_back(std::move(m));

  c.optimizer_state = {OptimizerBlob(*g_opt_), OptimizerBlob(*d_opt_)};

  c.healthy_params = last_healthy;
  c.healthy_buffers = last_healthy_buffers;

  c.d_losses = result.d_losses;
  c.g_losses = result.g_losses;
  c.snapshots = result.snapshots;
  c.snapshot_iters.assign(result.snapshot_iters.begin(),
                          result.snapshot_iters.end());
  return c;
}

Status GanTrainer::RestoreFromCheckpoint(const ckpt::TrainCheckpoint& c,
                                         Rng* rng, obs::MetricSink* sink,
                                         TrainResult* result,
                                         StateDict* last_healthy,
                                         StateDict* last_healthy_buffers,
                                         size_t* start_iter) {
  if (c.run != AlgoName(opts_.algo))
    return Status::InvalidArgument("checkpoint is for run '" + c.run +
                                   "', this trainer runs '" +
                                   AlgoName(opts_.algo) + "'");
  if (c.phase != 0)
    return Status::InvalidArgument("GAN checkpoints have a single phase, got " +
                                   std::to_string(c.phase));
  if (c.total_iters != opts_.iterations)
    return Status::InvalidArgument(
        "checkpoint is from a " + std::to_string(c.total_iters) +
        "-iteration run, options say " + std::to_string(opts_.iterations));
  if (c.seed != opts_.seed)
    return Status::InvalidArgument("checkpoint seed " +
                                   std::to_string(c.seed) +
                                   " != options seed " +
                                   std::to_string(opts_.seed));
  if (c.iter > c.total_iters)
    return Status::InvalidArgument("checkpoint iteration counter exceeds its "
                                   "configured run length");

  const std::vector<nn::Parameter*> g_params = g_->Params();
  const std::vector<nn::Parameter*> d_params = d_->Params();
  const std::vector<Matrix*> g_buffers = g_->Buffers();
  const std::vector<Matrix*> d_buffers = d_->Buffers();

  // Validate every shape before mutating anything.
  if (c.params.size() != g_params.size() + d_params.size())
    return Status::InvalidArgument("checkpoint parameter count mismatch");
  if (c.buffers.size() != g_buffers.size() + d_buffers.size())
    return Status::InvalidArgument("checkpoint buffer count mismatch");
  for (size_t i = 0; i < g_params.size(); ++i)
    if (!g_params[i]->value.SameShape(c.params[i]))
      return Status::InvalidArgument("checkpoint generator parameter " +
                                     std::to_string(i) + " shape mismatch");
  for (size_t i = 0; i < d_params.size(); ++i)
    if (!d_params[i]->value.SameShape(c.params[g_params.size() + i]))
      return Status::InvalidArgument("checkpoint discriminator parameter " +
                                     std::to_string(i) + " shape mismatch");
  for (size_t i = 0; i < g_buffers.size(); ++i)
    if (!g_buffers[i]->SameShape(c.buffers[i]))
      return Status::InvalidArgument("checkpoint generator buffer " +
                                     std::to_string(i) + " shape mismatch");
  for (size_t i = 0; i < d_buffers.size(); ++i)
    if (!d_buffers[i]->SameShape(c.buffers[g_buffers.size() + i]))
      return Status::InvalidArgument("checkpoint discriminator buffer " +
                                     std::to_string(i) + " shape mismatch");
  if (!ShapesMatch(g_params, c.healthy_params))
    return Status::InvalidArgument(
        "checkpoint sentinel-baseline parameters do not match the generator");
  if (!BufferShapesMatch(g_buffers, c.healthy_buffers))
    return Status::InvalidArgument(
        "checkpoint sentinel-baseline buffers do not match the generator");
  if (c.snapshots.size() != c.snapshot_iters.size())
    return Status::InvalidArgument("checkpoint snapshot bookkeeping mismatch");
  if (c.d_losses.size() != c.iter || c.g_losses.size() != c.iter)
    return Status::InvalidArgument("checkpoint loss traces do not cover its "
                                   "iteration counter");
  if (c.optimizer_state.size() != 2)
    return Status::InvalidArgument("GAN checkpoints carry two optimizer "
                                   "blobs, got " +
                                   std::to_string(c.optimizer_state.size()));

  // Apply. The optimizer loads run first: each is all-or-nothing, and a
  // kind/shape mismatch inside a blob is the one failure the shape
  // checks above cannot see.
  DAISY_RETURN_IF_ERROR(
      LoadOptimizerBlob(g_opt_.get(), c.optimizer_state[0], "generator"));
  DAISY_RETURN_IF_ERROR(
      LoadOptimizerBlob(d_opt_.get(), c.optimizer_state[1], "discriminator"));
  DAISY_RETURN_IF_ERROR(rng->SetState(c.rng_state));

  for (size_t i = 0; i < g_params.size(); ++i)
    g_params[i]->value = c.params[i];
  for (size_t i = 0; i < d_params.size(); ++i)
    d_params[i]->value = c.params[g_params.size() + i];
  for (size_t i = 0; i < g_buffers.size(); ++i) *g_buffers[i] = c.buffers[i];
  for (size_t i = 0; i < d_buffers.size(); ++i)
    *d_buffers[i] = c.buffers[g_buffers.size() + i];

  *last_healthy = c.healthy_params;
  *last_healthy_buffers = c.healthy_buffers;

  result->d_losses = c.d_losses;
  result->g_losses = c.g_losses;
  result->snapshots = c.snapshots;
  result->snapshot_iters.assign(c.snapshot_iters.begin(),
                                c.snapshot_iters.end());
  result->completed_iters = c.iter;
  *start_iter = c.iter;

  if (sink != nullptr)
    DAISY_RETURN_IF_ERROR(sink->ResumeAt(c.telemetry_records));
  return Status::OK();
}

TrainResult GanTrainer::Train(const data::Table& table, Rng* rng,
                              obs::MetricSink* sink) {
  // Pre-transforms all real records once and serves batches as row
  // gathers — the historical in-memory path.
  InMemoryTrainSource source(table, transformer_);
  return Train(source, rng, sink);
}

TrainResult GanTrainer::StopBeforeTraining(Status why,
                                           obs::MetricSink* sink) {
  TrainResult result;
  result.health = std::move(why);
  result.snapshots.push_back(GetState(g_->Params()));
  result.snapshot_iters.push_back(0);
  if (sink != nullptr) sink->Flush();
  return result;
}

TrainResult GanTrainer::Train(const TrainDataSource& source, Rng* rng,
                              obs::MetricSink* sink) {
  auto cond = MakeConditionSource(opts_, *transformer_, source, nullptr);
  if (!cond.ok()) return StopBeforeTraining(cond.status(), sink);
  return Train(source, *cond.value(), rng, sink);
}

TrainResult GanTrainer::Train(const TrainDataSource& source,
                              const ConditionSource& cond, Rng* rng,
                              obs::MetricSink* sink) {
  DAISY_CHECK(g_->cond_dim() == cond.dim());
  TrainResult result;
  const size_t snapshot_every =
      std::max<size_t>(1, opts_.iterations / std::max<size_t>(1, opts_.snapshots));
  const size_t log_every = std::max<size_t>(1, opts_.log_every);

  const obs::DivergenceSentinel sentinel(opts_.sentinel);
  obs::WallTimer run_timer;
  // The generator state at the end of the last healthy iteration; what
  // the caller gets back if the sentinel trips later. Buffers (batch-
  // norm running stats) are tracked too: inference reads them, and they
  // drift on every training-mode forward pass.
  StateDict last_healthy = GetState(g_->Params());
  StateDict last_healthy_buffers = GetBufferState(g_->Buffers());

  std::unique_ptr<ckpt::CheckpointStore> store;
  if (!opts_.checkpoint_dir.empty())
    store = std::make_unique<ckpt::CheckpointStore>(opts_.checkpoint_dir,
                                                    opts_.checkpoint_keep);

  size_t start_iter = 0;
  if (opts_.resume && store != nullptr) {
    // NotFound: nothing saved yet — a cold start with resume requested
    // is a fresh run, so schedulers can always pass --resume. Any other
    // failure means checkpoints exist but none verifies: refusing to
    // silently restart protects the surviving log/model artifacts.
    auto loaded = store->LoadLatest();
    Status resumed = loaded.status();
    if (loaded.ok())
      resumed = RestoreFromCheckpoint(loaded.value(), rng, sink, &result,
                                      &last_healthy, &last_healthy_buffers,
                                      &start_iter);
    else if (resumed.code() == Status::Code::kNotFound)
      resumed = Status::OK();
    if (!resumed.ok()) return StopBeforeTraining(resumed, sink);
  }

  // Index stream: uniform, or chunked-shuffle (out-of-core locality),
  // which owns streams derived from the run seed — switching sampler
  // kinds never perturbs the main rng — and a resumed run fast-forwards
  // it by exactly the rows each completed iteration consumed: d_steps
  // real batches plus the (unconditionally drawn) KL reference batch.
  RandomSampler random_sampler(source.num_records());
  std::unique_ptr<ChunkedShuffleSampler> chunk_sampler;
  if (cond.strata() == 0 && opts_.sampler == SamplerKind::kChunkedShuffle) {
    chunk_sampler = std::make_unique<ChunkedShuffleSampler>(
        source.num_records(), opts_.shuffle_chunk_rows,
        opts_.seed ^ 0xC0FFEE5EED5A55AAULL);
    const size_t d_steps = std::max<size_t>(1, opts_.d_steps);
    chunk_sampler->AdvanceRows(static_cast<uint64_t>(start_iter) *
                               (d_steps + 1) * opts_.batch_size);
  }
  const RowStream sample_rows = [&](size_t m) {
    return chunk_sampler != nullptr ? chunk_sampler->SampleBatch(m)
                                    : random_sampler.SampleBatch(m, rng);
  };

  size_t iters_this_run = 0;
  for (size_t iter = start_iter; iter < opts_.iterations; ++iter) {
    obs::WallTimer iter_timer;
    if (cond.strata() > 0) {
      // Algorithm 3: one D+G update per label, with label-restricted
      // real minibatches; both fake batches share the label.
      double d_loss = 0.0, g_loss = 0.0;
      size_t active = 0;
      for (size_t y = 0; y < cond.strata(); ++y) {
        const CondBatch real = cond.DrawStratum(y, opts_.batch_size, rng);
        if (real.rows.empty()) continue;
        ++active;
        Matrix x = source.GatherSamples(real.rows);
        Matrix z = SampleNoise(real.rows.size(), rng);
        Matrix fake = g_->Forward(z, real.cond, /*training=*/true);
        d_loss += DiscriminatorStep(x, real.cond, fake, real.cond, rng);
        Matrix z2 = SampleNoise(opts_.batch_size, rng);
        g_loss += GeneratorStep(z2, real.cond, x, cond);
      }
      // Strata with zero records are skipped, not trained — surface the
      // count so a starved minority label shows up in telemetry instead
      // of silently degrading the conditional generator.
      last_starved_labels_ = cond.strata() - active;
      DAISY_CHECK(active > 0);  // the source refuses data without records
      result.d_losses.push_back(d_loss / static_cast<double>(active));
      result.g_losses.push_back(g_loss / static_cast<double>(active));
    } else {
      // Algorithms 1/2/4: d_steps discriminator updates, then one
      // generator update. The condition source pairs each real batch
      // with its conditions and draws the fake batch's.
      double d_loss = 0.0;
      const size_t d_steps = std::max<size_t>(1, opts_.d_steps);
      for (size_t s = 0; s < d_steps; ++s) {
        const CondBatch real =
            cond.DrawReal(opts_.batch_size, sample_rows, rng);
        const Matrix fake_cond =
            cond.DrawFakeCond(real, opts_.batch_size, rng);
        Matrix x = source.GatherSamples(real.rows);
        Matrix z = SampleNoise(opts_.batch_size, rng);
        Matrix fake = g_->Forward(z, fake_cond, /*training=*/true);
        d_loss += DiscriminatorStep(x, real.cond, fake, fake_cond, rng);
      }
      result.d_losses.push_back(d_loss / static_cast<double>(d_steps));

      // The ref batch is drawn even under Wasserstein (where it goes
      // unused) so the sampler stream position per iteration is
      // algorithm-independent.
      const CondBatch ref = cond.DrawReal(opts_.batch_size, sample_rows, rng);
      const Matrix g_cond = cond.DrawFakeCond(ref, opts_.batch_size, rng);
      const Matrix real_ref =
          wasserstein_ ? Matrix() : source.GatherSamples(ref.rows);
      Matrix z = SampleNoise(opts_.batch_size, rng);
      result.g_losses.push_back(GeneratorStep(z, g_cond, real_ref, cond));
    }

    obs::MetricRecord rec;
    rec.run = AlgoName(opts_.algo);
    rec.iter = iter + 1;
    rec.d_loss = result.d_losses.back();
    rec.g_loss = result.g_losses.back();
    rec.d_grad_norm = last_d_grad_norm_;
    rec.g_grad_norm = last_g_grad_norm_;
    rec.param_norm = nn::GlobalParamNorm(g_->Params());
    rec.starved_labels = cond.strata() > 0 ? last_starved_labels_ : 0;
    rec.iter_ms = iter_timer.ElapsedMs();
    rec.wall_ms = run_timer.ElapsedMs();
    rec.threads = par::NumThreads();
    rec.seed = opts_.seed;

    const Status health = sentinel.Check(rec);
    if (!health.ok()) {
      // Always surface the failing record, regardless of cadence — it
      // is the one record a post-mortem needs.
      if (sink != nullptr) sink->Log(rec);
      result.health = health;
      // Keep the loss traces NaN-free: the failing iteration's entries
      // are part of the Status, not the data.
      result.d_losses.pop_back();
      result.g_losses.pop_back();
      break;
    }
    result.completed_iters = iter + 1;
    if (sink != nullptr &&
        ((iter + 1) % log_every == 0 || iter + 1 == opts_.iterations)) {
      sink->Log(rec);
    }
    last_healthy = GetState(g_->Params());
    last_healthy_buffers = GetBufferState(g_->Buffers());

    if ((iter + 1) % snapshot_every == 0 ||
        iter + 1 == opts_.iterations) {
      if (result.snapshots.size() < opts_.snapshots) {
        result.snapshots.push_back(GetState(g_->Params()));
        result.snapshot_iters.push_back(iter + 1);
      }
    }

    if (store != nullptr && opts_.checkpoint_every > 0 &&
        (iter + 1) % opts_.checkpoint_every == 0) {
      // The checkpoint record goes to the sink FIRST so the cursor
      // stored in the checkpoint covers it — a resumed run then
      // re-emits the exact same record sequence as an uninterrupted
      // one.
      obs::MetricRecord ckpt_rec = rec;
      ckpt_rec.run += ".ckpt";
      if (sink != nullptr) sink->Log(ckpt_rec);
      const Status saved = store->Save(MakeCheckpoint(
          iter + 1, sink != nullptr ? sink->records_logged() : 0, result,
          last_healthy, last_healthy_buffers, rng));
      if (!saved.ok()) {
        // Fail fast: training on while checkpoints silently rot defeats
        // their purpose.
        result.health = saved;
        break;
      }
    }

    ++iters_this_run;
    if (opts_.max_iters_per_run > 0 &&
        iters_this_run >= opts_.max_iters_per_run &&
        iter + 1 < opts_.iterations) {
      result.paused = true;
      break;
    }
  }

  if (!result.health.ok()) {
    // Durable fallback: the in-memory baseline can itself be poisoned
    // (BatchNorm running stats go non-finite without tripping the
    // param-norm check). Prefer the newest on-disk checkpoint whose
    // sentinel baseline is finite.
    if (store != nullptr &&
        (!AllFinite(last_healthy) || !AllFinite(last_healthy_buffers))) {
      auto fc = store->LoadLatestWhere([&](const ckpt::TrainCheckpoint& c) {
        return ShapesMatch(g_->Params(), c.healthy_params) &&
               BufferShapesMatch(g_->Buffers(), c.healthy_buffers) &&
               AllFinite(c.healthy_params) && AllFinite(c.healthy_buffers);
      });
      if (fc.ok()) {
        last_healthy = fc.value().healthy_params;
        last_healthy_buffers = fc.value().healthy_buffers;
      }
    }
    // Roll the generator back to the last healthy state and make that
    // state the final snapshot, so generation after a diverged run
    // works from sane parameters.
    SetState(g_->Params(), last_healthy);
    SetBufferState(g_->Buffers(), last_healthy_buffers);
    result.snapshots.push_back(std::move(last_healthy));
    result.snapshot_iters.push_back(result.completed_iters);
  } else if (!result.paused &&
             (result.snapshot_iters.empty() ||
              result.snapshot_iters.back() != opts_.iterations)) {
    // Guarantee the final state is snapshotted (a paused run is not
    // final — its resumed continuation does this bookkeeping).
    result.snapshots.push_back(GetState(g_->Params()));
    result.snapshot_iters.push_back(opts_.iterations);
  }
  if (sink != nullptr) sink->Flush();
  return result;
}

}  // namespace daisy::synth
