#include "synth/trainer.h"

#include <algorithm>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "synth/train_loop.h"

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
    const Result<DpEngineKind> engine = ResolveDpEngine(d_, opts_.dp_engine);
    if (engine.ok())
      dp_engine_ = std::make_unique<DpSgdEngine>(
          d_, opts_.dp_grad_bound, opts_.dp_noise_scale, engine.value());
    else
      refusal_ = engine.status();
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
  if (wasserstein_) nn::ClipParams(d_->Params(), kWeightClip);
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

TrainResult GanTrainer::Train(const data::Table& table, Rng* rng,
                              obs::MetricSink* sink) {
  // Pre-transforms all real records once and serves batches as row
  // gathers — the historical in-memory path.
  InMemoryTrainSource source(table, transformer_);
  return Train(source, rng, sink);
}

TrainResult GanTrainer::StopBeforeTraining(Status why) {
  TrainResult result;
  result.health = std::move(why);
  result.refused = true;
  result.snapshots.push_back(GetState(g_->Params()));
  result.snapshot_iters.push_back(0);
  return result;
}

TrainResult GanTrainer::Train(const TrainDataSource& source, Rng* rng,
                              obs::MetricSink* sink) {
  auto cond = MakeConditionSource(opts_, *transformer_, source, nullptr);
  if (!cond.ok()) return StopBeforeTraining(cond.status());
  return Train(source, *cond.value(), rng, sink);
}

TrainResult GanTrainer::Train(const TrainDataSource& source,
                              const ConditionSource& cond, Rng* rng,
                              obs::MetricSink* sink) {
  DAISY_CHECK(g_->cond_dim() == cond.dim());
  if (!refusal_.ok()) return StopBeforeTraining(refusal_);
  TrainResult result;
  const size_t snapshot_every =
      std::max<size_t>(1, opts_.iterations / std::max<size_t>(1, opts_.snapshots));
  const size_t d_steps = std::max<size_t>(1, opts_.d_steps);

  // Generator state first, discriminator appended.
  LoopPhase phase;
  phase.tag = AlgoName(opts_.algo);
  phase.iterations = opts_.iterations;
  phase.healthy_params = g_->Params();
  phase.healthy_buffers = g_->Buffers();
  phase.params = phase.healthy_params;
  for (nn::Parameter* p : d_->Params()) phase.params.push_back(p);
  phase.buffers = phase.healthy_buffers;
  for (Matrix* b : d_->Buffers()) phase.buffers.push_back(b);
  phase.optimizers = {g_opt_.get(), d_opt_.get()};
  phase.rngs = {rng};
  const std::vector<nn::Parameter*>& g_params = phase.healthy_params;

  // Index stream: uniform, or chunked-shuffle (out-of-core locality),
  // which owns streams derived from the run seed — switching sampler
  // kinds never perturbs the main rng — and is fast-forwarded on the
  // first step of this process by exactly the rows each completed
  // iteration consumed: d_steps real batches plus the (unconditionally
  // drawn) KL reference batch.
  RandomSampler random_sampler(source.num_records());
  std::unique_ptr<ChunkedShuffleSampler> chunk_sampler;
  const bool chunked =
      cond.strata() == 0 && opts_.sampler == SamplerKind::kChunkedShuffle;
  const RowStream sample_rows = [&](size_t m) {
    return chunk_sampler != nullptr ? chunk_sampler->SampleBatch(m)
                                    : random_sampler.SampleBatch(m, rng);
  };

  phase.step = [&](size_t iter) -> Result<obs::MetricRecord> {
    obs::MetricRecord rec;
    if (cond.strata() > 0) {
      // Algorithm 3: one D+G update per label, with label-restricted
      // real minibatches; both fake batches share the label.
      double d_loss = 0.0, g_loss = 0.0;
      size_t active = 0;
      for (size_t y = 0; y < cond.strata(); ++y) {
        const CondBatch real = cond.DrawStratum(y, opts_.batch_size, rng);
        if (real.rows.empty()) continue;
        ++active;
        auto gathered = source.GatherSamples(real.rows);
        if (!gathered.ok()) return gathered.status();
        const Matrix& x = gathered.value();
        Matrix z = SampleNoise(real.rows.size(), rng);
        Matrix fake = g_->Forward(z, real.cond, /*training=*/true);
        d_loss += DiscriminatorStep(x, real.cond, fake, real.cond, rng);
        Matrix z2 = SampleNoise(opts_.batch_size, rng);
        g_loss += GeneratorStep(z2, real.cond, x, cond);
      }
      // Strata with zero records are skipped, not trained — surface the
      // count so a starved minority label shows up in telemetry instead
      // of silently degrading the conditional generator.
      rec.starved_labels = cond.strata() - active;
      DAISY_CHECK(active > 0);  // the source refuses data without records
      rec.d_loss = d_loss / static_cast<double>(active);
      rec.g_loss = g_loss / static_cast<double>(active);
    } else {
      if (chunked && chunk_sampler == nullptr) {
        chunk_sampler = std::make_unique<ChunkedShuffleSampler>(
            source.num_records(), opts_.shuffle_chunk_rows,
            opts_.seed ^ 0xC0FFEE5EED5A55AAULL);
        chunk_sampler->AdvanceRows(static_cast<uint64_t>(iter) *
                                   (d_steps + 1) * opts_.batch_size);
      }
      // Algorithms 1/2/4: d_steps discriminator updates, then one
      // generator update. The condition source pairs each real batch
      // with its conditions and draws the fake batch's.
      double d_loss = 0.0;
      for (size_t s = 0; s < d_steps; ++s) {
        const CondBatch real =
            cond.DrawReal(opts_.batch_size, sample_rows, rng);
        const Matrix fake_cond =
            cond.DrawFakeCond(real, opts_.batch_size, rng);
        auto gathered = source.GatherSamples(real.rows);
        if (!gathered.ok()) return gathered.status();
        const Matrix& x = gathered.value();
        Matrix z = SampleNoise(opts_.batch_size, rng);
        Matrix fake = g_->Forward(z, fake_cond, /*training=*/true);
        d_loss += DiscriminatorStep(x, real.cond, fake, fake_cond, rng);
      }
      rec.d_loss = d_loss / static_cast<double>(d_steps);

      // The ref batch is drawn even under Wasserstein (where it goes
      // unused) so the sampler stream position per iteration is
      // algorithm-independent.
      const CondBatch ref = cond.DrawReal(opts_.batch_size, sample_rows, rng);
      const Matrix g_cond = cond.DrawFakeCond(ref, opts_.batch_size, rng);
      Result<Matrix> real_ref = Matrix();
      if (!wasserstein_) real_ref = source.GatherSamples(ref.rows);
      if (!real_ref.ok()) return real_ref.status();
      Matrix z = SampleNoise(opts_.batch_size, rng);
      rec.g_loss = GeneratorStep(z, g_cond, real_ref.value(), cond);
    }
    rec.d_grad_norm = last_d_grad_norm_;
    rec.g_grad_norm = last_g_grad_norm_;
    return rec;
  };

  // Loss traces cover healthy iterations only, so a trip leaves them
  // NaN-free: the failing iteration's losses are part of the Status.
  phase.on_healthy = [&](const obs::MetricRecord& rec) {
    result.d_losses.push_back(rec.d_loss);
    result.g_losses.push_back(rec.g_loss);
    if ((rec.iter % snapshot_every == 0 || rec.iter == opts_.iterations) &&
        result.snapshots.size() < opts_.snapshots) {
      result.snapshots.push_back(GetState(g_params));
      result.snapshot_iters.push_back(rec.iter);
    }
  };
  phase.validate = [&](const ckpt::TrainCheckpoint& c) {
    if (c.d_losses.size() != c.iter || c.g_losses.size() != c.iter)
      return Status::InvalidArgument("checkpoint loss traces do not cover "
                                     "its iteration counter");
    if (c.snapshots.size() != c.snapshot_iters.size())
      return Status::InvalidArgument("checkpoint snapshot bookkeeping "
                                     "mismatch");
    for (const StateDict& snap : c.snapshots)
      if (!ShapesMatch(g_params, snap))
        return Status::InvalidArgument("checkpoint snapshot does not match "
                                       "the generator");
    return Status::OK();
  };
  phase.apply = [&](const ckpt::TrainCheckpoint& c) {
    result.d_losses = c.d_losses;
    result.g_losses = c.g_losses;
    result.snapshots = c.snapshots;
    result.snapshot_iters.assign(c.snapshot_iters.begin(),
                                 c.snapshot_iters.end());
  };
  phase.save = [&](ckpt::TrainCheckpoint* c) {
    c->d_losses = result.d_losses;
    c->g_losses = result.g_losses;
    c->snapshots = result.snapshots;
    c->snapshot_iters.assign(result.snapshot_iters.begin(),
                             result.snapshot_iters.end());
  };

  TrainLoop loop(opts_, phase.tag, opts_.seed, /*num_phases=*/1, sink);
  const LoopOutcome out = loop.Run(phase);
  if (out.refused) return StopBeforeTraining(out.health);
  result.health = out.health;
  result.paused = out.paused;
  result.completed_iters = out.completed_iters;
  if (!result.health.ok()) {
    // The loop rolled the generator back to its last healthy state;
    // make that state the final snapshot, so generation after a
    // diverged run works from sane parameters.
    result.snapshots.push_back(GetState(g_params));
    result.snapshot_iters.push_back(result.completed_iters);
  } else if (!result.paused &&
             (result.snapshot_iters.empty() ||
              result.snapshot_iters.back() != opts_.iterations)) {
    // Guarantee the final state is snapshotted (a paused run is not
    // final — its resumed continuation does this bookkeeping).
    result.snapshots.push_back(GetState(g_params));
    result.snapshot_iters.push_back(opts_.iterations);
  }
  return result;
}

}  // namespace daisy::synth
