#include "stats/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace daisy::stats {
namespace {

TEST(NmiTest, IdenticalPartitionsScoreOne) {
  std::vector<size_t> a = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(NormalizedMutualInformation(a, a), 1.0, 1e-9);
}

TEST(NmiTest, RelabeledPartitionsScoreOne) {
  std::vector<size_t> a = {0, 0, 1, 1, 2, 2};
  std::vector<size_t> b = {2, 2, 0, 0, 1, 1};
  EXPECT_NEAR(NormalizedMutualInformation(a, b), 1.0, 1e-9);
}

TEST(NmiTest, IndependentPartitionsScoreNearZero) {
  Rng rng(1);
  std::vector<size_t> a(10000), b(10000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.UniformInt(4);
    b[i] = rng.UniformInt(4);
  }
  EXPECT_LT(NormalizedMutualInformation(a, b), 0.01);
}

TEST(NmiTest, PartialOverlapBetweenZeroAndOne) {
  std::vector<size_t> a = {0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<size_t> b = {0, 0, 0, 1, 1, 1, 1, 0};
  const double nmi = NormalizedMutualInformation(a, b);
  EXPECT_GT(nmi, 0.05);
  EXPECT_LT(nmi, 0.95);
}

TEST(NmiTest, DegenerateSingleClusterBothSidesIsOne) {
  std::vector<size_t> a = {0, 0, 0};
  EXPECT_NEAR(NormalizedMutualInformation(a, a), 1.0, 1e-9);
}

TEST(KlTest, ZeroForIdenticalDistributions) {
  std::vector<double> p = {10, 20, 30};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-6);
}

TEST(KlTest, PositiveForDifferentDistributions) {
  std::vector<double> p = {90, 5, 5};
  std::vector<double> q = {5, 5, 90};
  EXPECT_GT(KlDivergence(p, q), 1.0);
}

TEST(KlTest, AsymmetricInGeneral) {
  std::vector<double> p = {80, 15, 5};
  std::vector<double> q = {30, 30, 40};
  EXPECT_NE(KlDivergence(p, q), KlDivergence(q, p));
}

TEST(KlTest, SmoothingKeepsFiniteWithEmptyBins) {
  std::vector<double> p = {100, 0};
  std::vector<double> q = {0, 100};
  const double kl = KlDivergence(p, q);
  EXPECT_TRUE(std::isfinite(kl));
  EXPECT_GT(kl, 5.0);
}

TEST(HistogramTest, CountsFallInRightBuckets) {
  const auto h = Histogram({0.1, 0.1, 0.9, 0.5}, 0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(h[0], 2.0);
  EXPECT_DOUBLE_EQ(h[1], 2.0);
}

TEST(HistogramTest, OutOfRangeClampedToEnds) {
  const auto h = Histogram({-5.0, 5.0}, 0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h[0], 1.0);
  EXPECT_DOUBLE_EQ(h[3], 1.0);
}

TEST(HistogramTest, DegenerateRangePutsEverythingInFirstBin) {
  const auto h = Histogram({1.0, 1.0, 1.0}, 1.0, 1.0, 3);
  EXPECT_DOUBLE_EQ(h[0], 3.0);
}

TEST(HistogramWithOutliersTest, SeparatesOutliersFromEdgeBins) {
  // -1 -> underflow, 2 -> overflow; boundary values 0 and 1 stay in
  // the first/last in-range bins, not the outlier buckets.
  const auto h = HistogramWithOutliers({-1.0, 0.0, 0.5, 1.0, 2.0},
                                       0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 4u);  // bins + 2
  EXPECT_DOUBLE_EQ(h[0], 1.0);  // underflow
  EXPECT_DOUBLE_EQ(h[1], 1.0);  // [0, 0.5): 0.0
  EXPECT_DOUBLE_EQ(h[2], 2.0);  // [0.5, 1]: 0.5, 1.0
  EXPECT_DOUBLE_EQ(h[3], 1.0);  // overflow
}

TEST(HistogramWithOutliersTest, DegenerateRangeStillSplitsOutliers) {
  const auto h = HistogramWithOutliers({0.0, 1.0, 2.0}, 1.0, 1.0, 3);
  ASSERT_EQ(h.size(), 5u);
  EXPECT_DOUBLE_EQ(h[0], 1.0);  // 0.0 below
  EXPECT_DOUBLE_EQ(h[1], 1.0);  // 1.0 in range
  EXPECT_DOUBLE_EQ(h[4], 1.0);  // 2.0 above
}

TEST(PearsonTest, PerfectPositive) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-9);
}

TEST(PearsonTest, PerfectNegative) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-9);
}

TEST(PearsonTest, IndependentNearZero) {
  Rng rng(9);
  std::vector<double> x(20000), y(20000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Gaussian();
    y[i] = rng.Gaussian();
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.0, 0.03);
}

TEST(PearsonTest, ConstantSeriesGivesZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

}  // namespace
}  // namespace daisy::stats
