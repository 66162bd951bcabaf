#include "baselines/pategan.h"

#include <cmath>
#include <memory>

#include "core/parallel.h"
#include "nn/loss.h"
#include "synth/train_loop.h"

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

  // Everything that mutates inside the training loop, for checkpoints:
  // generator + student + all teachers, with their batch-norm buffers,
  // and the k+1 rng streams (train_rng first, then the teachers). The
  // sentinel rolls back the generator (params AND batch-norm running
  // stats) so Generate() never samples from diverged weights.
  synth::LoopPhase phase;
  phase.tag = "pategan";
  phase.iterations = opts_.iterations;
  phase.healthy_params = generator_->Params();
  phase.healthy_buffers = generator_->Buffers();
  phase.params = phase.healthy_params;
  for (auto* p : student_->Params()) phase.params.push_back(p);
  for (auto& t : teachers_)
    for (auto* p : t->Params()) phase.params.push_back(p);
  phase.buffers = phase.healthy_buffers;
  for (auto* b : student_->Buffers()) phase.buffers.push_back(b);
  for (auto& t : teachers_)
    for (auto* b : t->Buffers()) phase.buffers.push_back(b);
  phase.optimizers = {g_opt_.get(), student_opt_.get()};
  for (auto& topt : teacher_opts_) phase.optimizers.push_back(topt.get());
  phase.rngs = {&train_rng};
  for (Rng& tr : teacher_rngs) phase.rngs.push_back(&tr);
  phase.extras = {&epsilon_spent_};

  phase.step = [&](size_t) {
    obs::MetricRecord rec;
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
      rec.d_loss = nn::BceWithLogitsLoss(logits, labels, &grad);
      student_->Backward(grad);
      rec.d_grad_norm = nn::GlobalGradNorm(student_->Params());
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
      rec.g_loss = nn::BceWithLogitsLoss(
          logits, Matrix(logits.rows(), 1, 1.0), &grad_logits);
      Matrix grad_fake = student_->Backward(grad_logits);
      if (anchor_) {
        rec.g_loss += anchor_->Compute(anchor_targets_, fake,
                                       opts_.marginal_weight, &grad_fake);
      }
      generator_->Backward(grad_fake);
      rec.g_grad_norm = nn::GlobalGradNorm(generator_->Params());
      g_opt_->Step();
    }
    return rec;
  };

  synth::TrainLoop loop(opts_, "pategan", opts_.seed, /*num_phases=*/1, sink);
  const synth::LoopOutcome out = loop.Run(phase);
  fitted_ = !out.refused;
  paused_ = out.paused;
  return out.health;
}

synth::StateDict PateGanSynthesizer::ParamState() {
  synth::StateDict state = synth::GetState(generator_->Params());
  const auto append = [&](synth::StateDict s) {
    for (Matrix& m : s) state.push_back(std::move(m));
  };
  append(synth::GetState(student_->Params()));
  for (auto& t : teachers_) append(synth::GetState(t->Params()));
  append(synth::GetBufferState(generator_->Buffers()));
  append(synth::GetBufferState(student_->Buffers()));
  for (auto& t : teachers_) append(synth::GetBufferState(t->Buffers()));
  return state;
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
