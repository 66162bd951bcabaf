#include "stats/gmm.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numbers>
#include <string>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/columnar.h"
#include "transform/record_transformer.h"

namespace daisy::stats {
namespace {

std::vector<double> TwoModeData(Rng* rng, size_t n, double m1, double m2,
                                double sd) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i)
    out[i] = rng->Gaussian(i % 2 == 0 ? m1 : m2, sd);
  return out;
}

TEST(GmmTest, RecoversTwoWellSeparatedModes) {
  Rng rng(1);
  auto values = TwoModeData(&rng, 4000, -5.0, 5.0, 0.5);
  Gmm1d::Options opts;
  opts.components = 2;
  Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
  ASSERT_EQ(gmm.num_components(), 2u);
  double lo = std::min(gmm.mean(0), gmm.mean(1));
  double hi = std::max(gmm.mean(0), gmm.mean(1));
  EXPECT_NEAR(lo, -5.0, 0.3);
  EXPECT_NEAR(hi, 5.0, 0.3);
  EXPECT_NEAR(gmm.stddev(0), 0.5, 0.2);
  EXPECT_NEAR(gmm.weight(0) + gmm.weight(1), 1.0, 1e-9);
}

TEST(GmmTest, ResponsibilitiesSumToOneAndPickRightMode) {
  Rng rng(2);
  auto values = TwoModeData(&rng, 2000, -5.0, 5.0, 0.5);
  Gmm1d::Options opts;
  opts.components = 2;
  Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
  const auto r = gmm.Responsibilities(-5.0);
  EXPECT_NEAR(r[0] + r[1], 1.0, 1e-9);
  const size_t k = gmm.MostLikelyComponent(-5.0);
  EXPECT_NEAR(gmm.mean(k), -5.0, 0.5);
  const size_t k2 = gmm.MostLikelyComponent(5.0);
  EXPECT_NE(k, k2);
}

TEST(GmmTest, SingleComponentMatchesSampleMoments) {
  Rng rng(3);
  std::vector<double> values(3000);
  for (auto& v : values) v = rng.Gaussian(2.0, 3.0);
  Gmm1d::Options opts;
  opts.components = 1;
  Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
  EXPECT_NEAR(gmm.mean(0), 2.0, 0.2);
  EXPECT_NEAR(gmm.stddev(0), 3.0, 0.2);
}

TEST(GmmTest, ComponentCountClampedToDataSize) {
  Rng rng(4);
  std::vector<double> values = {1.0, 2.0, 3.0};
  Gmm1d::Options opts;
  opts.components = 10;
  Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
  EXPECT_LE(gmm.num_components(), 3u);
}

TEST(GmmTest, ConstantDataDoesNotCrash) {
  Rng rng(5);
  std::vector<double> values(100, 7.0);
  Gmm1d::Options opts;
  opts.components = 3;
  Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
  EXPECT_NEAR(gmm.mean(gmm.MostLikelyComponent(7.0)), 7.0, 1e-6);
  EXPECT_GE(gmm.stddev(0), opts.min_stddev);
}

TEST(GmmTest, SamplesFollowMixture) {
  Rng rng(6);
  auto values = TwoModeData(&rng, 2000, -5.0, 5.0, 0.5);
  Gmm1d::Options opts;
  opts.components = 2;
  Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
  size_t near_neg = 0, near_pos = 0;
  for (int i = 0; i < 2000; ++i) {
    const double s = gmm.Sample(&rng);
    if (std::fabs(s + 5.0) < 2.0) ++near_neg;
    if (std::fabs(s - 5.0) < 2.0) ++near_pos;
  }
  EXPECT_NEAR(near_neg, 1000, 150);
  EXPECT_NEAR(near_pos, 1000, 150);
}

TEST(GmmTest, LogLikelihoodHigherNearModes) {
  Rng rng(7);
  auto values = TwoModeData(&rng, 2000, -5.0, 5.0, 0.5);
  Gmm1d::Options opts;
  opts.components = 2;
  Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
  EXPECT_GT(gmm.LogLikelihood(-5.0), gmm.LogLikelihood(0.0));
  EXPECT_GT(gmm.LogLikelihood(5.0), gmm.LogLikelihood(0.0));
}

// Property sweep: more components never fit dramatically worse.
class GmmComponentSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(GmmComponentSweep, AvgLogLikelihoodReasonable) {
  Rng rng(8);
  auto values = TwoModeData(&rng, 1500, -4.0, 4.0, 0.8);
  Gmm1d::Options opts;
  opts.components = GetParam();
  Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
  // A one-component fit of two modes at +/-4 has avg LL around -3.2;
  // any multi-component fit should beat -3.5 comfortably.
  double s = 0.0;
  for (double v : values) s += gmm.LogLikelihood(v);
  EXPECT_GT(s / static_cast<double>(values.size()), -3.5);
}

INSTANTIATE_TEST_SUITE_P(Components, GmmComponentSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

// Regression for the dead-component reseed bug: the reseed used to set
// weights_[j] = 1/n without taking that mass from anyone, so a reseed
// left the weights summing to != 1 and biased Responsibilities,
// LogLikelihood and Sample. Fit now renormalizes after every M-step,
// which makes "the fitted mixture is a proper distribution" an
// unconditional invariant — locked in here across adversarial shapes
// (exact-duplicate clusters, extreme outliers, k > #distinct values,
// degenerate variance floors) so any future M-step edit that breaks
// normalization fails loudly.
TEST(GmmTest, FittedWeightsAlwaysFormProperDistribution) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    for (size_t k : {2u, 3u, 5u, 8u}) {
      for (int shape = 0; shape < 4; ++shape) {
        std::vector<double> values;
        Rng data_rng(seed * 977 + static_cast<uint64_t>(shape));
        switch (shape) {
          case 0:  // tight cluster + extreme outlier
            for (int i = 0; i < 100; ++i)
              values.push_back(data_rng.Gaussian(0.0, 0.001));
            values.push_back(1e6);
            break;
          case 1:  // exact duplicates + two stragglers (k > #distinct)
            values.assign(100, 0.0);
            values.push_back(1.0);
            values.push_back(2.0);
            break;
          case 2:  // wide + needle-sharp overlapping components
            for (int i = 0; i < 150; ++i)
              values.push_back(data_rng.Gaussian(0.0, 1.0));
            for (int i = 0; i < 50; ++i)
              values.push_back(data_rng.Gaussian(0.0, 0.0005));
            break;
          default:  // heavy-tailed spread over many decades
            for (int i = 0; i < 60; ++i)
              values.push_back(std::pow(10.0, data_rng.Gaussian(0.0, 2.0)));
        }
        Gmm1d::Options opts;
        opts.components = k;
        opts.min_stddev = shape == 1 ? 1e-9 : 1e-3;
        Rng rng(seed * 31 + k);
        Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);

        double wsum = 0.0;
        for (size_t j = 0; j < gmm.num_components(); ++j) {
          EXPECT_GE(gmm.weight(j), 0.0);
          EXPECT_LE(gmm.weight(j), 1.0 + 1e-12);
          EXPECT_TRUE(std::isfinite(gmm.mean(j)));
          EXPECT_GE(gmm.stddev(j), opts.min_stddev);
          wsum += gmm.weight(j);
        }
        EXPECT_NEAR(wsum, 1.0, 1e-12)
            << "seed=" << seed << " k=" << k << " shape=" << shape;

        // Proper weights make the posterior a distribution too.
        const auto resp = gmm.Responsibilities(values.front());
        double rsum = 0.0;
        for (double r : resp) rsum += r;
        EXPECT_NEAR(rsum, 1.0, 1e-9);
      }
    }
  }
}

TEST(GmmTest, FitIsBitIdenticalAcrossThreadCounts) {
  // The parallel E/M steps chunk rows by a fixed grain and reduce the
  // partials in chunk order, so the fitted mixture must not depend on
  // the worker count (n = 1000 spans several 256-row chunks).
  Rng data_rng(77);
  auto values = TwoModeData(&data_rng, 1000, -3.0, 4.0, 1.0);
  Gmm1d::Options opts;
  opts.components = 4;

  auto fit = [&](size_t threads) {
    par::SetNumThreads(threads);
    Rng rng(78);
    Gmm1d gmm = Gmm1d::Fit(values, opts, &rng);
    par::SetNumThreads(0);
    return gmm;
  };
  const Gmm1d a = fit(1);
  const Gmm1d b = fit(2);
  const Gmm1d c = fit(5);
  ASSERT_EQ(a.num_components(), b.num_components());
  ASSERT_EQ(a.num_components(), c.num_components());
  for (size_t j = 0; j < a.num_components(); ++j) {
    EXPECT_DOUBLE_EQ(a.mean(j), b.mean(j));
    EXPECT_DOUBLE_EQ(a.mean(j), c.mean(j));
    EXPECT_DOUBLE_EQ(a.stddev(j), b.stddev(j));
    EXPECT_DOUBLE_EQ(a.stddev(j), c.stddev(j));
    EXPECT_DOUBLE_EQ(a.weight(j), b.weight(j));
    EXPECT_DOUBLE_EQ(a.weight(j), c.weight(j));
  }
}

TEST(GmmTest, StreamingFitIsBitwiseEqualToFit) {
  // FitStreaming recomputes responsibilities window by window instead
  // of holding them; its rng draws, chunk partition and reduction
  // order replicate Fit exactly, so the result must be bitwise equal —
  // not merely close — for any thread count.
  Rng data_rng(91);
  auto values = TwoModeData(&data_rng, 1500, -2.0, 6.0, 1.5);
  Gmm1d::Options opts;
  opts.components = 5;

  for (size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::SetNumThreads(threads);
    Rng rng_mem(17);
    Rng rng_str(17);
    const Gmm1d mem = Gmm1d::Fit(values, opts, &rng_mem);
    VectorSource source(values);
    const Gmm1d str = Gmm1d::FitStreaming(source, opts, &rng_str).value();
    par::SetNumThreads(0);

    EXPECT_EQ(rng_mem.Next(), rng_str.Next());
    ASSERT_EQ(mem.num_components(), str.num_components());
    for (size_t j = 0; j < mem.num_components(); ++j) {
      EXPECT_EQ(mem.mean(j), str.mean(j)) << "component " << j;
      EXPECT_EQ(mem.stddev(j), str.stddev(j)) << "component " << j;
      EXPECT_EQ(mem.weight(j), str.weight(j)) << "component " << j;
    }
  }
}

// ---------------------------------------------------------------------
// Golden pin. The bit patterns below were captured from the two-body
// EM (a separate in-memory Fit that stored an n x k responsibility
// array next to the windowed FitStreaming) before Fit became an entry
// to FitStreaming, so they keep guarding the arithmetic now that the
// two entries share one body.

struct GoldenFit {
  std::vector<uint64_t> means, stddevs, weights;
  uint64_t next_word;  // the rng's next output after the fit
};

struct GoldenCase {
  std::string name;
  std::vector<double> values;
  Gmm1d::Options opts;
  uint64_t rng_seed;
  GoldenFit want;
};

// 40k rows of a right-skewed column: crosses the 16,384-row scan
// window twice, ends 64 rows into a 256-row chunk and runs all 100
// EM iterations.
std::vector<double> SkewedColumn() {
  Rng rng(2024);
  std::vector<double> v(40000);
  for (auto& x : v) {
    const double u = rng.Uniform();
    if (u < 0.7)
      x = 10.0 * std::exp(rng.Gaussian(0.0, 0.6));
    else if (u < 0.95)
      x = rng.Gaussian(60.0, 5.0);
    else
      x = std::exp(rng.Gaussian(5.0, 1.0));
  }
  return v;
}

// A random cluster layout with its fit options. Seed 11710 (662 rows,
// k = 8, stddev floor 1e-9) was found by a search over layouts: its
// fit reseeds a dead component twice.
std::vector<double> ClusterLayout(uint64_t seed, Gmm1d::Options* opts) {
  Rng d(seed);
  std::vector<double> v;
  const uint64_t clusters = 1 + d.UniformInt(4);
  for (uint64_t c = 0; c < clusters; ++c) {
    const double m = d.Gaussian(0, 100);
    const uint64_t count = 1 + d.UniformInt(300);
    const double sd =
        d.Uniform() < 0.5 ? 0.0 : std::pow(10.0, d.Gaussian(-1, 2));
    for (uint64_t i = 0; i < count; ++i)
      v.push_back(m + (sd > 0 ? d.Gaussian(0, sd) : 0.0));
  }
  opts->components = 2 + d.UniformInt(7);
  const double floors[3] = {1e-9, 1e-6, 1e-3};
  opts->min_stddev = floors[d.UniformInt(3)];
  return v;
}

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"skewed_40k", SkewedColumn(), {}, 5, {}};
    c.opts.components = 5;
    c.want = {{0x402071c422e61f2dULL, 0x40640724dbd7c334ULL,
               0x4031f6830736209dULL, 0x404de49509c4a2c6ULL,
               0x40831661c085c47bULL},
              {0x4009d30a5983b2a0ULL, 0x4057fc2fe61a1772ULL,
               0x401d74967627314dULL, 0x4015e8d2cb35e300ULL,
               0x407c95b8564d066aULL},
              {0x3fdcdd53ba652712ULL, 0x3fa0e899c5fb64b8ULL,
               0x3fcfc64db28d2de8ULL, 0x3fd07e12a5ba1363ULL,
               0x3f848bf1bb583ff3ULL},
              0xc8d68fcc4867a987ULL};
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c{"dead_component_reseed", {}, {}, 12710, {}};
    c.values = ClusterLayout(11710, &c.opts);
    c.want = {{0x405862c46ded020dULL, 0x407062c65a95bc50ULL,
               0x407062d930a1187aULL, 0x4058197c13d00238ULL,
               0x4055d7e5614d7e29ULL, 0x40584c195c0e888fULL,
               0x40587084913efd06ULL, 0x4055eac12935d87aULL},
              {0x3fe1955a86835579ULL, 0x3fba5b4f46f6a3b7ULL,
               0x3fba7a362aa3155bULL, 0x3fb1ac00224a4bcfULL,
               0x3fddd789335bffbaULL, 0x3fdb58542f4fd70bULL,
               0x3fd37d079f849349ULL, 0x3fe193ff16d6f931ULL},
              {0x3fb06cd019f9bdebULL, 0x3fd796a527a3ce0cULL,
               0x3ee5d55d469aefa7ULL, 0x3f77255c12b6fef1ULL,
               0x3fd6287f8ba6d1acULL, 0x3fb0396b26f3918dULL,
               0x3fb2e20508bb2af7ULL, 0x3fb408287d1761e4ULL},
              0x9987336a3e37b25eULL};
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c{"two_mode_3000", std::vector<double>(3000), {}, 11, {}};
    Rng d(3000);
    for (size_t i = 0; i < c.values.size(); ++i)
      c.values[i] = d.Gaussian(i % 3 == 0 ? -4.0 : 2.0, i % 3 == 0 ? 1.0 : 0.5);
    c.want = {{0x3ffe6bf67df818d1ULL, 0xc01150bcab62dd57ULL,
               0xc0132cca2f5891b8ULL, 0xc00bbe8ea5fab3f4ULL,
               0x4000d4840571e46aULL},
              {0x3fde5859c5dce94eULL, 0x3fead577583cd0c3ULL,
               0x3fe99853ee51217eULL, 0x3fea87dfa261b01aULL,
               0x3fe13b6b96dd3671ULL},
              {0x3fd53fcca95cd138ULL, 0x3fc0f07c41a6b415ULL,
               0x3faa1841a81fafebULL, 0x3fc3341f38511952ULL,
               0x3fd56add64a35219ULL},
              0x4e820951419a2d8fULL};
    cases.push_back(std::move(c));
  }
  return cases;
}

std::unique_ptr<data::PagedTable> WritePaged(const std::vector<double>& values,
                                             const std::string& name,
                                             size_t page_rows = 1000) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "gmm_golden";
  fs::create_directories(dir);
  const std::string path = (dir / (name + ".dcol")).string();
  data::Table table(data::Schema({data::Attribute::Numerical("x")}, -1));
  for (double v : values) table.AppendRecord({v});
  // 1000-row pages (the default): the 16,384-row windows straddle page
  // boundaries.
  EXPECT_TRUE(data::WriteColumnar(table, path, page_rows).ok());
  data::PagedTable::Options popts;
  popts.page_budget = 4;
  auto opened = data::PagedTable::Open(path, popts);
  EXPECT_TRUE(opened.ok());
  return opened.ok() ? opened.take() : nullptr;
}

void ExpectGolden(const Gmm1d& got, Rng* rng, const GoldenFit& want) {
  ASSERT_EQ(got.num_components(), want.means.size());
  for (size_t j = 0; j < got.num_components(); ++j) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.mean(j)), want.means[j])
        << "mean " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.stddev(j)), want.stddevs[j])
        << "stddev " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.weight(j)), want.weights[j])
        << "weight " << j;
  }
  EXPECT_EQ(rng->Next(), want.next_word);
}

TEST(GmmGoldenTest, EveryEntryAndCacheCapMatchesPinnedBits) {
  for (const GoldenCase& c : GoldenCases()) {
    auto paged = WritePaged(c.values, c.name);
    ASSERT_NE(paged, nullptr);
    const size_t n = c.values.size();
    for (size_t threads : {1u, 2u, 7u}) {
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
      par::SetNumThreads(threads);
      {
        SCOPED_TRACE("Fit");
        Rng rng(c.rng_seed);
        ExpectGolden(Gmm1d::Fit(c.values, c.opts, &rng), &rng, c.want);
      }
      {
        SCOPED_TRACE("FitStreaming(VectorSource)");
        Rng rng(c.rng_seed);
        ExpectGolden(
            Gmm1d::FitStreaming(VectorSource(c.values), c.opts, &rng).value(),
            &rng, c.want);
      }
      // A cap of n keeps the row cache; n - 1 recomputes scan 2.
      for (size_t cap : {n, n - 1}) {
        SCOPED_TRACE("paged cap=" + std::to_string(cap));
        Rng rng(c.rng_seed);
        ExpectGolden(
            Gmm1d::FitStreaming(transform::PagedColumnSource(*paged, 0),
                                c.opts, &rng, cap)
                .value(),
            &rng, c.want);
      }
    }
  }
  par::SetNumThreads(0);
}

// Pages larger than FitStreaming's 16,384-row windows: every EM scan
// must still read and checksum each page once, not once per window.
TEST(GmmPagedTest, EachPageLoadsOncePerEmScan) {
  constexpr size_t kPageRows = 32768;
  Rng data_rng(8);
  const std::vector<double> values =
      TwoModeData(&data_rng, 3 * kPageRows - 1000, -2.0, 3.0, 1.0);
  auto paged = WritePaged(values, "big_pages", kPageRows);
  ASSERT_NE(paged, nullptr);
  ASSERT_EQ(paged->num_groups(), 3u);
  Gmm1d::Options opts;
  opts.tol = 0.0;  // no early stop: exactly max_iters iterations
  // Page loads by scans: all loads less the page-cache faults of the
  // point lookups (k-means++ picks), which only the first fit misses.
  uint64_t loads[2];
  for (size_t iters : {1u, 3u}) {
    opts.max_iters = iters;
    Rng rng(9);
    const uint64_t before = paged->page_loads();
    const uint64_t misses = paged->cache_stats().misses;
    Gmm1d::FitStreaming(transform::PagedColumnSource(*paged, 0), opts, &rng);
    loads[iters / 2] = (paged->page_loads() - before) -
                       (paged->cache_stats().misses - misses);
  }
  // Two more iterations are two scans each.
  EXPECT_EQ(loads[1] - loads[0], 2u * 2u * paged->num_groups());
}

// ---------------------------------------------------------------------
// Per-value paths against the textbook formulas, which take both logs
// per component on every call.

double ReferenceLogp(const Gmm1d& g, size_t j, double v) {
  const double z = (v - g.mean(j)) / g.stddev(j);
  return std::log(std::max(g.weight(j), 1e-300)) +
         (-0.5 * z * z - std::log(g.stddev(j)) -
          0.5 * std::log(2.0 * std::numbers::pi));
}

double ReferenceLogSumExp(const std::vector<double>& xs) {
  double mx = -std::numeric_limits<double>::infinity();
  for (double x : xs) mx = std::max(mx, x);
  if (!std::isfinite(mx)) return mx;
  double s = 0.0;
  for (double x : xs) s += std::exp(x - mx);
  return mx + std::log(s);
}

TEST(GmmTest, PerValuePathsMatchReferenceFormulasBitwise) {
  Rng data_rng(5);
  const auto values = TwoModeData(&data_rng, 3000, -4.0, 2.0, 0.7);
  Gmm1d::Options opts;
  Rng rng(6);
  const Gmm1d fitted = Gmm1d::Fit(values, opts, &rng);
  // Components 0 and 1 are identical (an exact responsibility tie the
  // first must win); component 2 has a zero weight (the log floor).
  const Gmm1d built = Gmm1d::FromParams({1.0, 1.0, 3.0, -2.0},
                                        {0.5, 0.5, 0.1, 2.0},
                                        {0.25, 0.25, 0.0, 0.5});
  for (const Gmm1d* g : {&fitted, &built}) {
    const size_t k = g->num_components();
    // 10k values over +/-60 stddevs of the outer components, where the
    // exps of far components underflow to 0, plus extreme points.
    std::vector<double> sweep;
    double lo = g->mean(0), hi = g->mean(0), wide = 0.0;
    for (size_t j = 0; j < k; ++j) {
      lo = std::min(lo, g->mean(j));
      hi = std::max(hi, g->mean(j));
      wide = std::max(wide, g->stddev(j));
    }
    lo -= 60.0 * wide;
    hi += 60.0 * wide;
    for (size_t i = 0; i < 10000; ++i)
      sweep.push_back(lo + (hi - lo) * static_cast<double>(i) / 9999.0);
    for (double v : {1e6, -1e6, 1e200, -1e200, 0.0}) sweep.push_back(v);

    for (double v : sweep) {
      SCOPED_TRACE("v=" + std::to_string(v));
      std::vector<double> logp(k);
      for (size_t j = 0; j < k; ++j) logp[j] = ReferenceLogp(*g, j, v);
      const double lse = ReferenceLogSumExp(logp);
      std::vector<double> resp(k);
      for (size_t j = 0; j < k; ++j) resp[j] = std::exp(logp[j] - lse);
      const size_t argmax = static_cast<size_t>(
          std::max_element(resp.begin(), resp.end()) - resp.begin());

      EXPECT_EQ(std::bit_cast<uint64_t>(g->LogLikelihood(v)),
                std::bit_cast<uint64_t>(lse));
      const auto got = g->Responsibilities(v);
      ASSERT_EQ(got.size(), k);
      for (size_t j = 0; j < k; ++j)
        EXPECT_EQ(std::bit_cast<uint64_t>(got[j]),
                  std::bit_cast<uint64_t>(resp[j]))
            << "component " << j;
      EXPECT_EQ(g->MostLikelyComponent(v), argmax);
    }
  }
}

}  // namespace
}  // namespace daisy::stats
