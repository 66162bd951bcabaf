#include "baselines/pategan.h"

#include <cmath>
#include <memory>

#include "ckpt/checkpoint.h"
#include "core/parallel.h"
#include "nn/loss.h"
#include "obs/timer.h"
#include "synth/generator.h"

namespace daisy::baselines {

PateGanSynthesizer::PateGanSynthesizer(
    const PateGanOptions& options,
    const transform::TransformOptions& transform_opts)
    : opts_(options), topts_(transform_opts), rng_(options.seed) {
  DAISY_CHECK(opts_.num_teachers >= 1);
  topts_.form = transform::SampleForm::kVector;
  topts_.exclude_label = false;
}

Status PateGanSynthesizer::Fit(const data::Table& train,
                               obs::MetricSink* sink) {
  DAISY_CHECK(!fitted_);
  DAISY_CHECK(train.num_records() >= opts_.num_teachers);
  fitted_ = true;

  transformer_ = std::make_unique<transform::RecordTransformer>(
      transform::RecordTransformer::Fit(train, topts_, &rng_));
  const Matrix real_all = transformer_->Transform(train);
  const size_t sample_dim = transformer_->sample_dim();

  Rng init = rng_.Split();
  generator_ = std::make_unique<synth::MlpGenerator>(
      opts_.noise_dim, 0, opts_.hidden, transformer_->segments(), &init);
  g_opt_ = std::make_unique<nn::Adam>(generator_->Params(), opts_.lr);

  student_ = std::make_unique<synth::MlpDiscriminator>(
      sample_dim, 0, opts_.hidden, false, &init);
  student_opt_ = std::make_unique<nn::Adam>(student_->Params(), opts_.lr);

  // Disjoint partition of the real records across teachers.
  Rng part_rng = rng_.Split();
  const auto perm = part_rng.Permutation(train.num_records());
  std::vector<std::vector<size_t>> partitions(opts_.num_teachers);
  for (size_t i = 0; i < perm.size(); ++i)
    partitions[i % opts_.num_teachers].push_back(perm[i]);

  teachers_.clear();
  teacher_opts_.clear();
  for (size_t t = 0; t < opts_.num_teachers; ++t) {
    teachers_.push_back(std::make_unique<synth::MlpDiscriminator>(
        sample_dim, 0, opts_.hidden, /*simplified=*/true, &init));
    teacher_opts_.push_back(
        std::make_unique<nn::Adam>(teachers_[t]->Params(), opts_.teacher_lr));
  }

  // ---- DP marginal anchor ------------------------------------------
  // PATE-GAN's generator receives gradient only through the student,
  // which never sees real data; at small scale the teachers saturate
  // to "fake" and the student's labels lose contrast, letting the
  // generator drift into collapse. We anchor it with ONE differentially
  // private query: per-column means (and variances for scalar
  // dimensions) of the transformed table, Laplace-noised with the
  // marginal_epsilon budget. The noised statistics are packed into two
  // pseudo-rows whose column means/variances equal the targets, so the
  // shared KlRegularizer can treat them as a "real" reference batch.
  if (opts_.marginal_epsilon > 0.0) {
    const double n = static_cast<double>(real_all.rows());
    // Each record contributes 1/n to every column mean; crude global
    // sensitivity bound for the full query vector.
    const double noise_b =
        2.0 * static_cast<double>(sample_dim) / (n * opts_.marginal_epsilon);
    Rng noise_rng = rng_.Split();
    Matrix mean = real_all.ColMean();
    Matrix var(1, sample_dim);
    for (size_t c = 0; c < sample_dim; ++c) {
      for (size_t r = 0; r < real_all.rows(); ++r) {
        const double d = real_all(r, c) - mean(0, c);
        var(0, c) += d * d;
      }
      var(0, c) /= n;
      mean(0, c) += noise_rng.Laplace(noise_b);
      var(0, c) = std::max(0.0, var(0, c) + noise_rng.Laplace(noise_b));
    }
    anchor_targets_ = Matrix(2, sample_dim);
    for (size_t c = 0; c < sample_dim; ++c) {
      const double sd = std::sqrt(var(0, c));
      anchor_targets_(0, c) = mean(0, c) + sd;
      anchor_targets_(1, c) = mean(0, c) - sd;
    }
    anchor_ = std::make_unique<synth::KlRegularizer>(
        transformer_->segments());
    epsilon_spent_ += opts_.marginal_epsilon;
  }

  Rng train_rng = rng_.Split();
  // One independent deterministic stream per teacher, derived from the
  // seed up front: with batches drawn from teacher t's own rng, the
  // teacher updates share no state at all and can run in parallel with
  // bit-identical results for any thread count.
  std::vector<Rng> teacher_rngs;
  teacher_rngs.reserve(opts_.num_teachers);
  for (size_t t = 0; t < opts_.num_teachers; ++t)
    teacher_rngs.push_back(rng_.Split());
  const double vote_noise_scale = 2.0 / std::max(opts_.lambda, 1e-12);
  const double half = static_cast<double>(opts_.num_teachers) / 2.0;

  const size_t log_every = std::max<size_t>(1, opts_.log_every);
  const obs::DivergenceSentinel sentinel(opts_.sentinel);
  obs::WallTimer run_timer;
  // Mirrors GanTrainer: restore the last healthy generator (params AND
  // batch-norm running stats) on a sentinel trip so Generate() never
  // samples from diverged weights.
  synth::StateDict last_healthy = synth::GetState(generator_->Params());
  synth::StateDict last_healthy_buffers =
      synth::GetBufferState(generator_->Buffers());

  // Everything that mutates inside the training loop, for checkpoints:
  // generator + student + all teachers, with their batch-norm buffers.
  std::vector<nn::Parameter*> all_params = generator_->Params();
  for (auto* p : student_->Params()) all_params.push_back(p);
  for (auto& t : teachers_)
    for (auto* p : t->Params()) all_params.push_back(p);
  std::vector<Matrix*> all_buffers = generator_->Buffers();
  for (auto* b : student_->Buffers()) all_buffers.push_back(b);
  for (auto& t : teachers_)
    for (auto* b : t->Buffers()) all_buffers.push_back(b);
  // The k+1 rng streams are concatenated into one word vector:
  // train_rng first, then the teachers in order.
  constexpr size_t kRngWords = 6;
  const auto pack_rngs = [&]() {
    std::vector<uint64_t> words = train_rng.GetState();
    for (auto& tr : teacher_rngs) {
      const std::vector<uint64_t> w = tr.GetState();
      words.insert(words.end(), w.begin(), w.end());
    }
    return words;
  };

  std::unique_ptr<ckpt::CheckpointStore> store;
  if (!opts_.checkpoint_dir.empty())
    store = std::make_unique<ckpt::CheckpointStore>(opts_.checkpoint_dir,
                                                    opts_.checkpoint_keep);

  size_t start_iter = 0;
  if (opts_.resume && store != nullptr) {
    auto loaded = store->LoadLatest();
    if (loaded.ok()) {
      const ckpt::TrainCheckpoint& c = loaded.value();
      if (c.run != "pategan")
        return Status::InvalidArgument("checkpoint is for run '" + c.run +
                                       "', not 'pategan'");
      if (c.phase != 0 || c.total_iters != opts_.iterations ||
          c.seed != opts_.seed || c.iter > c.total_iters)
        return Status::InvalidArgument(
            "pategan checkpoint does not match the configured run "
            "(iterations/seed/iteration counter)");
      if (!synth::ShapesMatch(all_params, c.params) ||
          !synth::BufferShapesMatch(all_buffers, c.buffers) ||
          !synth::ShapesMatch(generator_->Params(), c.healthy_params) ||
          !synth::BufferShapesMatch(generator_->Buffers(), c.healthy_buffers))
        return Status::InvalidArgument(
            "pategan checkpoint shapes do not match these networks");
      if (c.optimizer_state.size() != 2 + opts_.num_teachers ||
          c.extra.size() != 1 ||
          c.rng_state.size() != kRngWords * (1 + opts_.num_teachers))
        return Status::InvalidArgument("pategan checkpoint payload mismatch");
      DAISY_RETURN_IF_ERROR(LoadOptimizerBlob(
          g_opt_.get(), c.optimizer_state[0], "pategan generator"));
      DAISY_RETURN_IF_ERROR(LoadOptimizerBlob(
          student_opt_.get(), c.optimizer_state[1], "pategan student"));
      for (size_t t = 0; t < opts_.num_teachers; ++t)
        DAISY_RETURN_IF_ERROR(LoadOptimizerBlob(
            teacher_opts_[t].get(), c.optimizer_state[2 + t],
            "pategan teacher"));
      {
        auto first = c.rng_state.begin();
        DAISY_RETURN_IF_ERROR(train_rng.SetState(
            std::vector<uint64_t>(first, first + kRngWords)));
        for (size_t t = 0; t < opts_.num_teachers; ++t) {
          first += kRngWords;
          DAISY_RETURN_IF_ERROR(teacher_rngs[t].SetState(
              std::vector<uint64_t>(first, first + kRngWords)));
        }
      }
      synth::SetState(all_params, c.params);
      synth::SetBufferState(all_buffers, c.buffers);
      last_healthy = c.healthy_params;
      last_healthy_buffers = c.healthy_buffers;
      epsilon_spent_ = c.extra[0];
      start_iter = c.iter;
      if (sink != nullptr)
        DAISY_RETURN_IF_ERROR(sink->ResumeAt(c.telemetry_records));
    } else if (loaded.status().code() != Status::Code::kNotFound) {
      return loaded.status();
    }
  }

  size_t iters_this_run = 0;
  for (size_t iter = start_iter; iter < opts_.iterations; ++iter) {
    obs::WallTimer iter_timer;
    double student_loss = 0.0, g_loss = 0.0;
    double student_grad_norm = 0.0, g_grad_norm = 0.0;
    // ---- Teachers: real (from own partition) vs fake --------------
    // Batches are precomputed serially in teacher order (the
    // generator's batch norm updates running stats on every training
    // forward), then the updates fan out: each teacher owns its
    // network, optimizer, rng stream and partition, so there is no
    // cross-teacher reduction and parallel == serial bit-for-bit.
    std::vector<Matrix> teacher_real(opts_.num_teachers);
    std::vector<Matrix> teacher_fake(opts_.num_teachers);
    for (size_t t = 0; t < opts_.num_teachers; ++t) {
      const auto& pool = partitions[t];
      std::vector<size_t> rows(opts_.batch_size);
      for (auto& r : rows) r = pool[teacher_rngs[t].UniformInt(pool.size())];
      teacher_real[t] = real_all.GatherRows(rows);
      Matrix z = Matrix::Randn(opts_.batch_size, opts_.noise_dim,
                               &teacher_rngs[t]);
      teacher_fake[t] = generator_->Forward(z, Matrix(), true);
    }
    par::ParallelFor(0, opts_.num_teachers, 1, [&](size_t t0, size_t t1) {
      for (size_t t = t0; t < t1; ++t) {
        teachers_[t]->ZeroGrad();
        {
          Matrix logits =
              teachers_[t]->Forward(teacher_real[t], Matrix(), true);
          Matrix grad;
          nn::BceWithLogitsLoss(logits, Matrix(logits.rows(), 1, 1.0),
                                &grad);
          teachers_[t]->Backward(grad);
        }
        {
          Matrix logits =
              teachers_[t]->Forward(teacher_fake[t], Matrix(), true);
          Matrix grad;
          nn::BceWithLogitsLoss(logits, Matrix(logits.rows(), 1, 0.0),
                                &grad);
          teachers_[t]->Backward(grad);
        }
        teacher_opts_[t]->Step();
      }
    });

    // ---- Student: generated samples labeled by noisy votes --------
    for (size_t s = 0; s < opts_.student_steps; ++s) {
      Matrix z = Matrix::Randn(opts_.batch_size, opts_.noise_dim,
                               &train_rng);
      Matrix fake = generator_->Forward(z, Matrix(), true);
      Matrix labels(opts_.batch_size, 1);
      for (size_t i = 0; i < opts_.batch_size; ++i) {
        Matrix row(1, fake.cols());
        for (size_t c = 0; c < fake.cols(); ++c) row(0, c) = fake(i, c);
        double votes = 0.0;
        for (auto& teacher : teachers_) {
          const Matrix logit = teacher->Forward(row, Matrix(), false);
          votes += logit(0, 0) > 0.0 ? 1.0 : 0.0;
        }
        votes += train_rng.Laplace(vote_noise_scale);
        labels(i, 0) = votes > half ? 1.0 : 0.0;
        epsilon_spent_ += opts_.lambda;
      }
      student_->ZeroGrad();
      Matrix logits = student_->Forward(fake, Matrix(), true);
      Matrix grad;
      student_loss = nn::BceWithLogitsLoss(logits, labels, &grad);
      student_->Backward(grad);
      student_grad_norm = nn::GlobalGradNorm(student_->Params());
      student_opt_->Step();
    }

    // ---- Generator vs student -------------------------------------
    {
      Matrix z = Matrix::Randn(opts_.batch_size, opts_.noise_dim,
                               &train_rng);
      generator_->ZeroGrad();
      student_->ZeroGrad();
      Matrix fake = generator_->Forward(z, Matrix(), true);
      Matrix logits = student_->Forward(fake, Matrix(), true);
      Matrix grad_logits;
      g_loss = nn::BceWithLogitsLoss(logits, Matrix(logits.rows(), 1, 1.0),
                                     &grad_logits);
      Matrix grad_fake = student_->Backward(grad_logits);
      if (anchor_) {
        g_loss += anchor_->Compute(anchor_targets_, fake,
                                   opts_.marginal_weight, &grad_fake);
      }
      generator_->Backward(grad_fake);
      g_grad_norm = nn::GlobalGradNorm(generator_->Params());
      g_opt_->Step();
    }

    obs::MetricRecord rec;
    rec.run = "pategan";
    rec.iter = iter + 1;
    rec.d_loss = student_loss;
    rec.g_loss = g_loss;
    rec.d_grad_norm = student_grad_norm;
    rec.g_grad_norm = g_grad_norm;
    rec.param_norm = nn::GlobalParamNorm(generator_->Params());
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
      // prefer the newest on-disk checkpoint with a finite one.
      if (store != nullptr && (!synth::AllFinite(last_healthy) ||
                               !synth::AllFinite(last_healthy_buffers))) {
        auto fc = store->LoadLatestWhere([&](const ckpt::TrainCheckpoint& c) {
          return synth::ShapesMatch(generator_->Params(), c.healthy_params) &&
                 synth::BufferShapesMatch(generator_->Buffers(),
                                          c.healthy_buffers) &&
                 synth::AllFinite(c.healthy_params) &&
                 synth::AllFinite(c.healthy_buffers);
        });
        if (fc.ok()) {
          last_healthy = fc.value().healthy_params;
          last_healthy_buffers = fc.value().healthy_buffers;
        }
      }
      synth::SetState(generator_->Params(), last_healthy);
      synth::SetBufferState(generator_->Buffers(), last_healthy_buffers);
      return health;
    }
    last_healthy = synth::GetState(generator_->Params());
    last_healthy_buffers = synth::GetBufferState(generator_->Buffers());
    if (sink != nullptr &&
        ((iter + 1) % log_every == 0 || iter + 1 == opts_.iterations)) {
      sink->Log(rec);
    }

    if (store != nullptr && opts_.checkpoint_every > 0 &&
        (iter + 1) % opts_.checkpoint_every == 0) {
      obs::MetricRecord ckpt_rec = rec;
      ckpt_rec.run += ".ckpt";
      if (sink != nullptr) sink->Log(ckpt_rec);
      ckpt::TrainCheckpoint c;
      c.run = "pategan";
      c.iter = iter + 1;
      c.total_iters = opts_.iterations;
      c.seed = opts_.seed;
      c.telemetry_records = sink != nullptr ? sink->records_logged() : 0;
      c.rng_state = pack_rngs();
      c.params = synth::GetState(all_params);
      c.buffers = synth::GetBufferState(all_buffers);
      c.optimizer_state = {OptimizerBlob(*g_opt_),
                           OptimizerBlob(*student_opt_)};
      for (auto& topt : teacher_opts_)
        c.optimizer_state.push_back(OptimizerBlob(*topt));
      c.healthy_params = last_healthy;
      c.healthy_buffers = last_healthy_buffers;
      c.extra = {epsilon_spent_};
      const Status saved = store->Save(c);
      if (!saved.ok()) {
        if (sink != nullptr) sink->Flush();
        return saved;
      }
    }

    ++iters_this_run;
    if (opts_.max_iters_per_run > 0 &&
        iters_this_run >= opts_.max_iters_per_run &&
        iter + 1 < opts_.iterations) {
      paused_ = true;
      break;
    }
  }
  if (sink != nullptr) sink->Flush();
  return Status::OK();
}

data::Table PateGanSynthesizer::Generate(size_t n, Rng* rng) {
  DAISY_CHECK(fitted_);
  constexpr size_t kGenBatch = 256;
  data::Table out(transformer_->schema());
  out.Reserve(n);
  size_t produced = 0;
  std::vector<double> record;
  while (produced < n) {
    const size_t m = std::min(kGenBatch, n - produced);
    Matrix z = Matrix::Randn(m, opts_.noise_dim, rng);
    Matrix samples = generator_->Forward(z, Matrix(), false);
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
