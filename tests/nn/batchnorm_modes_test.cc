// BatchNorm behavioural tests beyond the gradcheck: training-mode
// normalization, running-statistics convergence, and eval-mode use of
// the running estimates.
#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/batchnorm.h"

namespace daisy::nn {
namespace {

TEST(BatchNormModes, TrainingOutputIsNormalized) {
  Rng rng(1);
  BatchNorm1d bn(3);
  Matrix x = Matrix::Randn(64, 3, &rng);
  for (size_t r = 0; r < x.rows(); ++r)
    for (size_t c = 0; c < x.cols(); ++c) x(r, c) = x(r, c) * 5.0 + 10.0;
  Matrix y = bn.Forward(x, /*training=*/true);
  // gamma=1, beta=0 initially: per-feature mean ~0, var ~1.
  Matrix mean = y.ColMean();
  for (size_t c = 0; c < 3; ++c) EXPECT_NEAR(mean(0, c), 0.0, 1e-9);
  for (size_t c = 0; c < 3; ++c) {
    double var = 0.0;
    for (size_t r = 0; r < y.rows(); ++r) var += y(r, c) * y(r, c);
    EXPECT_NEAR(var / static_cast<double>(y.rows()), 1.0, 1e-3);
  }
}

TEST(BatchNormModes, RunningStatsConvergeToBatchStats) {
  Rng rng(2);
  BatchNorm1d bn(2, /*momentum=*/0.1);
  // Feed many batches from a fixed distribution; eval output should
  // then be close to the normalized input.
  for (int i = 0; i < 200; ++i) {
    Matrix x = Matrix::Randn(32, 2, &rng);
    for (size_t r = 0; r < x.rows(); ++r)
      for (size_t c = 0; c < x.cols(); ++c) x(r, c) = x(r, c) * 3.0 + 7.0;
    bn.Forward(x, true);
  }
  Matrix probe(1, 2);
  probe(0, 0) = 7.0;  // the distribution mean
  probe(0, 1) = 10.0; // one stddev above it
  Matrix y = bn.Forward(probe, /*training=*/false);
  EXPECT_NEAR(y(0, 0), 0.0, 0.15);
  EXPECT_NEAR(y(0, 1), 1.0, 0.15);
}

TEST(BatchNormModes, EvalModeIsDeterministicAcrossBatchSizes) {
  Rng rng(3);
  BatchNorm1d bn(2);
  for (int i = 0; i < 50; ++i) bn.Forward(Matrix::Randn(16, 2, &rng), true);
  Matrix one(1, 2, 0.5);
  Matrix y1 = bn.Forward(one, false);
  Matrix big(8, 2, 0.5);
  Matrix y8 = bn.Forward(big, false);
  // Eval output depends only on running stats, not batch composition.
  for (size_t r = 0; r < 8; ++r)
    for (size_t c = 0; c < 2; ++c)
      EXPECT_DOUBLE_EQ(y8(r, c), y1(0, c));
}

TEST(BatchNormModes, RunningVarUsesUnbiasedEstimate) {
  // Feed the same batch repeatedly: running_var must converge to the
  // *unbiased* sample variance (biased * N/(N-1)), not the biased one —
  // with a small batch the two differ by a detectable margin.
  Rng rng(5);
  const size_t n = 4;
  Matrix x = Matrix::Randn(n, 1, &rng);
  Matrix mean = x.ColMean();
  double biased = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double d = x(r, 0) - mean(0, 0);
    biased += d * d;
  }
  biased /= static_cast<double>(n);
  const double unbiased = biased * static_cast<double>(n) /
                          static_cast<double>(n - 1);

  BatchNorm1d bn(1, /*momentum=*/0.5);
  for (int i = 0; i < 100; ++i) bn.Forward(x, /*training=*/true);
  const auto buffers = bn.Buffers();
  const double running_var = (*buffers[1])(0, 0);
  EXPECT_NEAR(running_var, unbiased, 1e-9);
  // Guard against regressing to the biased estimate.
  EXPECT_GT(std::fabs(running_var - biased), 1e-3);
}

TEST(BatchNormModes, BuffersExposeRunningStats) {
  BatchNorm1d bn(4);
  const auto buffers = bn.Buffers();
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0]->cols(), 4u);  // running mean
  EXPECT_EQ(buffers[1]->cols(), 4u);  // running var
  EXPECT_DOUBLE_EQ((*buffers[1])(0, 0), 1.0);  // initialized to 1
}

TEST(BatchNormModes, SingleRowBatchFallsBackToRunningStats) {
  Rng rng(4);
  BatchNorm1d bn(2);
  for (int i = 0; i < 20; ++i) bn.Forward(Matrix::Randn(16, 2, &rng), true);
  // A 1-row "training" batch cannot compute batch statistics; it must
  // not produce NaNs.
  Matrix y = bn.Forward(Matrix(1, 2, 3.0), true);
  EXPECT_TRUE(std::isfinite(y(0, 0)));
}

}  // namespace
}  // namespace daisy::nn
