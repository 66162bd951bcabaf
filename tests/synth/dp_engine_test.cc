// DpSgdEngine contract tests: both execution strategies compute the
// same clipped-and-noised mechanism (vectorized matches the per-sample
// reference to 1e-12), each is bit-identical across thread counts,
// per-record clipping bounds one record's influence on the pre-noise
// sum by 2 * c_g, and ResolveDpEngine picks per-sample for critics the
// vectorized engine cannot run and refuses an explicit request for it.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/generators/sdata.h"
#include "synth/cnn_nets.h"
#include "synth/lstm_nets.h"
#include "synth/mlp_nets.h"
#include "synth/trainer.h"

namespace daisy::synth {
namespace {

constexpr double kTol = 1e-12;

std::unique_ptr<MlpDiscriminator> MakeDisc(uint64_t seed, size_t dim,
                                           size_t cond_dim) {
  Rng rng(seed);
  return std::make_unique<MlpDiscriminator>(
      dim, cond_dim, std::vector<size_t>{24, 16}, false, &rng);
}

std::vector<Matrix> Grads(Discriminator* d) {
  std::vector<Matrix> out;
  for (nn::Parameter* p : d->Params()) out.push_back(p->grad);
  return out;
}

void ExpectClose(const std::vector<Matrix>& a, const std::vector<Matrix>& b,
                 double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].SameShape(b[i]));
    for (size_t r = 0; r < a[i].rows(); ++r)
      for (size_t c = 0; c < a[i].cols(); ++c) {
        const double scale = std::max(1.0, std::fabs(a[i](r, c)));
        EXPECT_NEAR(a[i](r, c), b[i](r, c), tol * scale)
            << "param " << i << " (" << r << "," << c << ")";
      }
  }
}

void ExpectBitIdentical(const std::vector<Matrix>& a,
                        const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].SameShape(b[i]));
    for (size_t r = 0; r < a[i].rows(); ++r)
      for (size_t c = 0; c < a[i].cols(); ++c)
        ASSERT_EQ(a[i](r, c), b[i](r, c))
            << "param " << i << " (" << r << "," << c << ")";
  }
}

struct StepResult {
  std::vector<Matrix> grads;
  std::vector<double> sample_norms;
  double sum_norm;
  double loss;
};

// One engine Step on a freshly-built identical discriminator; noise is
// drawn from a fixed-seed rng so runs are comparable.
StepResult RunStep(DpEngineKind kind, uint64_t disc_seed, const Matrix& real,
                   const Matrix& real_cond, const Matrix& fake,
                   const Matrix& fake_cond, bool wasserstein,
                   double max_norm, double noise_scale) {
  auto d = MakeDisc(disc_seed, real.cols(), real_cond.cols());
  DpSgdEngine engine(d.get(), max_norm, noise_scale, kind);
  Rng noise_rng(999);
  StepResult res;
  res.loss = engine.Step(real, real_cond, fake, fake_cond, wasserstein,
                         &noise_rng);
  res.grads = Grads(d.get());
  res.sample_norms = engine.last_sample_norms();
  res.sum_norm = engine.last_sum_norm();
  return res;
}

TEST(DpEngineTest, AutoResolvesToVectorizedForMlp) {
  auto d = MakeDisc(1, 6, 0);
  DpSgdEngine engine(d.get(), 1.0, 1.0, DpEngineKind::kAuto);
  EXPECT_EQ(engine.kind(), DpEngineKind::kVectorized);
}

// LSTM and CNN critics are not one Linear/activation stack: kAuto runs
// them per-sample, and an explicit vectorized request is a Status.
TEST(DpEngineTest, AutoResolvesToPerSampleForLstmAndCnn) {
  Rng rng(2);
  data::SDataCatOptions copts;
  copts.num_records = 40;
  const data::Table table = data::MakeSDataCat(copts, &rng);
  const auto tf =
      transform::RecordTransformer::Fit(table, transform::TransformOptions{},
                                        &rng);
  LstmDiscriminator lstm(tf.segments(), 0, 8, &rng);
  CnnDiscriminator cnn(4, 0, &rng);
  for (Discriminator* d : std::vector<Discriminator*>{&lstm, &cnn}) {
    const Result<DpEngineKind> autokind =
        ResolveDpEngine(d, DpEngineKind::kAuto);
    ASSERT_TRUE(autokind.ok()) << autokind.status().ToString();
    EXPECT_EQ(autokind.value(), DpEngineKind::kPerSample);
    EXPECT_EQ(DpSgdEngine(d, 1.0, 1.0, DpEngineKind::kAuto).kind(),
              DpEngineKind::kPerSample);
    const Result<DpEngineKind> vec =
        ResolveDpEngine(d, DpEngineKind::kVectorized);
    EXPECT_EQ(vec.status().code(), Status::Code::kInvalidArgument);
  }
}

class DpEngineEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(DpEngineEquivalence, VectorizedMatchesPerSampleReference) {
  const bool wasserstein = GetParam();
  Rng data_rng(7);
  const size_t m = 33, dim = 6;
  Matrix real = Matrix::Randn(m, dim, &data_rng);
  Matrix fake = Matrix::Randn(m, dim, &data_rng);

  // Small clip bound so a mix of records is clipped and unclipped.
  for (double max_norm : {0.5, 100.0}) {
    StepResult ref = RunStep(DpEngineKind::kPerSample, 3, real, Matrix(),
                             fake, Matrix(), wasserstein, max_norm, 0.0);
    StepResult vec = RunStep(DpEngineKind::kVectorized, 3, real, Matrix(),
                             fake, Matrix(), wasserstein, max_norm, 0.0);
    ExpectClose(ref.grads, vec.grads, kTol);
    ASSERT_EQ(ref.sample_norms.size(), vec.sample_norms.size());
    for (size_t i = 0; i < m; ++i) {
      const double scale = std::max(1.0, ref.sample_norms[i]);
      EXPECT_NEAR(ref.sample_norms[i], vec.sample_norms[i], kTol * scale);
      EXPECT_GT(ref.sample_norms[i], 0.0);
    }
    EXPECT_NEAR(ref.sum_norm, vec.sum_norm,
                kTol * std::max(1.0, ref.sum_norm));
    EXPECT_NEAR(ref.loss, vec.loss, kTol * std::max(1.0, std::fabs(ref.loss)));
  }
}

INSTANTIATE_TEST_SUITE_P(Losses, DpEngineEquivalence,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "wasserstein" : "bce";
                         });

TEST(DpEngineTest, ConditionalVectorizedMatchesReference) {
  Rng data_rng(9);
  const size_t m = 16, dim = 5, cond = 3;
  Matrix real = Matrix::Randn(m, dim, &data_rng);
  Matrix fake = Matrix::Randn(m, dim, &data_rng);
  Matrix real_cond = Matrix::Randn(m, cond, &data_rng);
  Matrix fake_cond = Matrix::Randn(m, cond, &data_rng);

  StepResult ref = RunStep(DpEngineKind::kPerSample, 5, real, real_cond,
                           fake, fake_cond, true, 0.5, 0.0);
  StepResult vec = RunStep(DpEngineKind::kVectorized, 5, real, real_cond,
                           fake, fake_cond, true, 0.5, 0.0);
  ExpectClose(ref.grads, vec.grads, kTol);
}

TEST(DpEngineTest, EveryEngineIsBitIdenticalAcrossThreadCounts) {
  Rng data_rng(10);
  const size_t m = 27, dim = 6;
  Matrix real = Matrix::Randn(m, dim, &data_rng);
  Matrix fake = Matrix::Randn(m, dim, &data_rng);

  for (DpEngineKind kind :
       {DpEngineKind::kPerSample, DpEngineKind::kVectorized}) {
    std::vector<StepResult> runs;
    for (size_t threads : {1u, 2u, 7u}) {
      par::SetNumThreads(threads);
      runs.push_back(RunStep(kind, 6, real, Matrix(), fake, Matrix(), true,
                             0.6, 1.0));  // noise on: Finalize included
      par::SetNumThreads(0);
    }
    ExpectBitIdentical(runs[0].grads, runs[1].grads);
    ExpectBitIdentical(runs[0].grads, runs[2].grads);
    for (size_t i = 0; i < m; ++i) {
      ASSERT_EQ(runs[0].sample_norms[i], runs[1].sample_norms[i]);
      ASSERT_EQ(runs[0].sample_norms[i], runs[2].sample_norms[i]);
    }
    ASSERT_EQ(runs[0].loss, runs[1].loss);
    ASSERT_EQ(runs[0].loss, runs[2].loss);
  }
}

TEST(DpEngineTest, OneRecordInfluenceOnSumIsBoundedByTwiceClip) {
  // Neighboring batches: same except record pair 0. The clipped
  // pre-noise SUM may move by at most 2 * c_g (one clipped unit out,
  // one in) — the sensitivity the accountant charges for.
  Rng data_rng(11);
  const size_t m = 12, dim = 5;
  const double max_norm = 0.3;
  Matrix real_a = Matrix::Randn(m, dim, &data_rng);
  Matrix fake = Matrix::Randn(m, dim, &data_rng);
  Matrix real_b = real_a;
  for (size_t c = 0; c < dim; ++c) real_b(0, c) = 10.0 * (c + 1.0);

  for (DpEngineKind kind :
       {DpEngineKind::kPerSample, DpEngineKind::kVectorized}) {
    StepResult a = RunStep(kind, 12, real_a, Matrix(), fake, Matrix(), true,
                           max_norm, 0.0);
    StepResult b = RunStep(kind, 12, real_b, Matrix(), fake, Matrix(), true,
                           max_norm, 0.0);
    // grads hold sum / m (noise scale 0), so scale the diff back up.
    double sq = 0.0;
    for (size_t i = 0; i < a.grads.size(); ++i)
      for (size_t r = 0; r < a.grads[i].rows(); ++r)
        for (size_t c = 0; c < a.grads[i].cols(); ++c) {
          const double d =
              (a.grads[i](r, c) - b.grads[i](r, c)) * static_cast<double>(m);
          sq += d * d;
        }
    EXPECT_LE(std::sqrt(sq), 2.0 * max_norm + 1e-9);
    // The outlier record must actually have been clipped.
    EXPECT_GT(b.sample_norms[0], max_norm);
  }
}

TEST(DpEngineTest, NoiseDrawsAreEngineIndependent) {
  // With the same noise rng seed, per-sample and vectorized runs leave
  // the rng in the same state: noise is drawn only in Finalize.
  Rng data_rng(13);
  const size_t m = 8, dim = 4;
  Matrix real = Matrix::Randn(m, dim, &data_rng);
  Matrix fake = Matrix::Randn(m, dim, &data_rng);

  auto after_state = [&](DpEngineKind kind) {
    auto d = MakeDisc(14, dim, 0);
    DpSgdEngine engine(d.get(), 1.0, 1.0, kind);
    Rng noise_rng(42);
    engine.Step(real, Matrix(), fake, Matrix(), true, &noise_rng);
    return noise_rng.UniformInt(1u << 30);  // fingerprint of the state
  };
  EXPECT_EQ(after_state(DpEngineKind::kPerSample),
            after_state(DpEngineKind::kVectorized));
}

TEST(DpEngineTest, DpTrainEndToEndIsThreadDeterministic) {
  // Full DPTrain runs (kAuto -> vectorized) with 1 and 7 threads must
  // produce bitwise-identical generator parameters.
  auto run = [](size_t threads) {
    par::SetNumThreads(threads);
    Rng rng(20);
    data::SDataCatOptions copts;
    copts.num_records = 200;
    data::Table table = data::MakeSDataCat(copts, &rng);
    transform::TransformOptions topts;
    Rng nets_rng(21);
    auto tf = transform::RecordTransformer::Fit(table, topts, &nets_rng);
    MlpGenerator g(8, 0, {24}, tf.segments(), &nets_rng);
    MlpDiscriminator d(tf.sample_dim(), 0, {24}, false, &nets_rng);
    GanOptions opts;
    opts.algo = TrainAlgo::kDPTrain;
    opts.iterations = 10;
    opts.batch_size = 16;
    opts.dp_noise_scale = 1.0;
    GanTrainer trainer(&g, &d, &tf, opts);
    Rng train_rng(22);
    TrainResult result = trainer.Train(table, &train_rng);
    EXPECT_TRUE(result.health.ok()) << result.health.ToString();
    for (double loss : result.d_losses) EXPECT_TRUE(std::isfinite(loss));
    StateDict state = GetState(g.Params());
    par::SetNumThreads(0);
    return state;
  };
  const StateDict s1 = run(1);
  const StateDict s7 = run(7);
  ASSERT_EQ(s1.size(), s7.size());
  for (size_t i = 0; i < s1.size(); ++i)
    EXPECT_DOUBLE_EQ((s1[i] - s7[i]).MaxAbs(), 0.0);
}

}  // namespace
}  // namespace daisy::synth
