#include <cmath>

#include <gtest/gtest.h>

#include "data/generators/realistic.h"
#include "data/generators/relational_pair.h"
#include "data/generators/sdata.h"
#include "data/generators/sim_config.h"
#include "data/generators/skewed.h"
#include "stats/metrics.h"

namespace daisy::data {
namespace {

TEST(SDataNumTest, SchemaAndSize) {
  Rng rng(1);
  SDataNumOptions opts;
  opts.num_records = 1000;
  Table t = MakeSDataNum(opts, &rng);
  EXPECT_EQ(t.num_records(), 1000u);
  EXPECT_EQ(t.num_attributes(), 3u);
  EXPECT_TRUE(t.schema().has_label());
  EXPECT_FALSE(t.schema().attribute(0).is_categorical());
  EXPECT_FALSE(t.schema().attribute(1).is_categorical());
}

TEST(SDataNumTest, PositiveRatioRespected) {
  Rng rng(2);
  SDataNumOptions opts;
  opts.num_records = 20000;
  opts.positive_ratio = 0.1;
  Table t = MakeSDataNum(opts, &rng);
  const auto counts = t.LabelCounts();
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000.0, 0.1, 0.01);
}

TEST(SDataNumTest, CorrelationControlsWithinModeCorrelation) {
  // Assign each point to its nearest grid center; the residual
  // correlation tracks the configured rho (attenuated by the points
  // mis-assigned between neighbouring modes).
  auto residual_corr = [](double rho) {
    Rng rng(3);
    SDataNumOptions opts;
    opts.num_records = 50000;
    opts.correlation = rho;
    Table t = MakeSDataNum(opts, &rng);
    std::vector<double> xs, ys;
    auto snap = [](double v) {
      return 2.0 * std::clamp(std::round(v / 2.0), -2.0, 2.0);
    };
    for (size_t i = 0; i < t.num_records(); ++i) {
      const double x = t.value(i, 0), y = t.value(i, 1);
      xs.push_back(x - snap(x));
      ys.push_back(y - snap(y));
    }
    return stats::PearsonCorrelation(xs, ys);
  };
  const double low = residual_corr(0.5);
  const double high = residual_corr(0.9);
  // Mode mis-assignment attenuates the residual correlation heavily
  // (stddevs up to 1 vs. grid half-spacing 1); the knob must still be
  // clearly visible and monotone.
  EXPECT_GT(low, 0.05);
  EXPECT_GT(high, 0.2);
  EXPECT_GT(high, low + 0.1);
}

TEST(SDataNumTest, ValuesNearGridRange) {
  Rng rng(4);
  SDataNumOptions opts;
  opts.num_records = 5000;
  Table t = MakeSDataNum(opts, &rng);
  EXPECT_GT(t.AttributeMin(0), -10.0);
  EXPECT_LT(t.AttributeMax(0), 10.0);
}

TEST(SDataCatTest, SchemaAndDomains) {
  Rng rng(5);
  SDataCatOptions opts;
  opts.num_records = 1000;
  opts.domain_size = 4;
  Table t = MakeSDataCat(opts, &rng);
  EXPECT_EQ(t.num_attributes(), 6u);  // 5 attrs + label
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_TRUE(t.schema().attribute(j).is_categorical());
    EXPECT_EQ(t.schema().attribute(j).domain_size(), 4u);
  }
  EXPECT_EQ(t.schema().num_labels(), 2u);
}

TEST(SDataCatTest, HighDiagonalMeansStrongerChainDependence) {
  // Fraction of adjacent attribute pairs that agree should scale with p.
  auto agreement = [](double p) {
    Rng rng(6);
    SDataCatOptions opts;
    opts.num_records = 20000;
    opts.diagonal_p = p;
    Table t = MakeSDataCat(opts, &rng);
    size_t agree = 0, total = 0;
    for (size_t i = 0; i < t.num_records(); ++i) {
      for (size_t j = 0; j + 1 < 5; ++j) {
        agree += t.category(i, j) == t.category(i, j + 1) ? 1 : 0;
        ++total;
      }
    }
    return static_cast<double>(agree) / static_cast<double>(total);
  };
  const double low = agreement(0.5);
  const double high = agreement(0.9);
  EXPECT_NEAR(low, 0.5, 0.03);
  EXPECT_NEAR(high, 0.9, 0.03);
}

TEST(SDataCatTest, SkewRespected) {
  Rng rng(7);
  SDataCatOptions opts;
  opts.num_records = 20000;
  opts.positive_ratio = 0.1;
  Table t = MakeSDataCat(opts, &rng);
  const auto counts = t.LabelCounts();
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000.0, 0.1, 0.01);
}

struct RealSimCase {
  const char* name;
  size_t num_numeric;
  size_t num_categorical;
  size_t num_labels;
};

// Without this gtest prints the raw bytes of the case, including the `name`
// pointer, so the listed test names would change with every address layout.
void PrintTo(const RealSimCase& c, std::ostream* os) {
  *os << c.name << ": " << c.num_numeric << " numeric, " << c.num_categorical
      << " categorical, " << c.num_labels << " labels";
}

class RealisticSimTest : public ::testing::TestWithParam<RealSimCase> {};

TEST_P(RealisticSimTest, MatchesTable2Shape) {
  const auto& c = GetParam();
  Rng rng(8);
  Table t = MakeDatasetByName(c.name, 500, &rng);
  EXPECT_EQ(t.num_records(), 500u);
  size_t numeric = 0, categorical = 0;
  const auto features = t.schema().FeatureIndices();
  for (size_t j : features) {
    if (t.schema().attribute(j).is_categorical()) ++categorical;
    else ++numeric;
  }
  EXPECT_EQ(numeric, c.num_numeric);
  EXPECT_EQ(categorical, c.num_categorical);
  if (c.num_labels > 0) {
    ASSERT_TRUE(t.schema().has_label());
    EXPECT_EQ(t.schema().num_labels(), c.num_labels);
  } else {
    EXPECT_FALSE(t.schema().has_label());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table2, RealisticSimTest,
    ::testing::Values(RealSimCase{"htru2", 8, 0, 2},
                      RealSimCase{"digits", 16, 0, 10},
                      RealSimCase{"adult", 6, 8, 2},
                      RealSimCase{"covtype", 10, 2, 7},
                      RealSimCase{"sat", 36, 0, 6},
                      RealSimCase{"anuran", 22, 0, 10},
                      RealSimCase{"census", 9, 30, 2},
                      RealSimCase{"bing", 7, 23, 0}),
    [](const ::testing::TestParamInfo<RealSimCase>& info) {
      return std::string(info.param.name);
    });

TEST(RealisticSimTest, AdultSkewMatchesPaper) {
  Rng rng(9);
  Table t = MakeAdultSim(20000, &rng);
  const auto counts = t.LabelCounts();
  // Paper: ~25% positive (ratio 0.34).
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000.0, 0.25, 0.02);
}

TEST(RealisticSimTest, CensusVerySkew) {
  Rng rng(10);
  Table t = MakeCensusSim(20000, &rng);
  const auto counts = t.LabelCounts();
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000.0, 0.05, 0.01);
}

TEST(RealisticSimTest, SchemaStableAcrossRuns) {
  Rng rng1(11), rng2(999);
  Table a = MakeAdultSim(10, &rng1);
  Table b = MakeAdultSim(10, &rng2);
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    EXPECT_EQ(a.schema().attribute(j).name, b.schema().attribute(j).name);
    EXPECT_EQ(a.schema().attribute(j).domain_size(),
              b.schema().attribute(j).domain_size());
  }
}

TEST(SimConfigTest, LabelSignalIsLearnableByMeanSeparation) {
  // At least one numeric attribute's per-label means should differ.
  Rng rng(12);
  RandomSimOptions opts;
  opts.num_numerical = 4;
  opts.num_labels = 2;
  opts.label_separation = 2.0;
  Rng crng(77);
  SimConfig config = RandomSimConfig(opts, &crng);
  Table t = GenerateSimTable(config, 20000, &rng);
  double max_sep = 0.0;
  for (size_t j = 0; j < 4; ++j) {
    double m0 = 0, m1 = 0;
    size_t n0 = 0, n1 = 0;
    for (size_t i = 0; i < t.num_records(); ++i) {
      if (t.label(i) == 0) {
        m0 += t.value(i, j);
        ++n0;
      } else {
        m1 += t.value(i, j);
        ++n1;
      }
    }
    max_sep = std::max(max_sep, std::fabs(m0 / n0 - m1 / n1));
  }
  EXPECT_GT(max_sep, 0.3);
}

TEST(SkewedTableTest, SchemaAndExactLabelRatio) {
  Rng rng(40);
  SkewedTableOptions opts;
  opts.num_records = 3000;
  opts.label_imbalance = 999;
  const Table t = MakeSkewedTable(opts, &rng);
  EXPECT_EQ(t.num_records(), 3000u);
  ASSERT_EQ(t.num_attributes(), 4u);
  EXPECT_TRUE(t.schema().has_label());
  // The 1:R interleave is deterministic: exactly ceil(n / (R+1)) rares.
  size_t rares = 0;
  for (size_t i = 0; i < t.num_records(); ++i) rares += t.label(i);
  EXPECT_EQ(rares, 3u);
}

TEST(SkewedTableTest, ZipfHeadDominatesAndTailIsPresent) {
  Rng rng(41);
  SkewedTableOptions opts;
  opts.num_records = 20000;
  const Table t = MakeSkewedTable(opts, &rng);
  std::vector<size_t> counts(opts.zipf_domain, 0);
  for (size_t i = 0; i < t.num_records(); ++i) ++counts[t.category(i, 0)];
  // Head category carries far more mass than the last one, but the
  // tail still appears — that's the regime the robustness pack targets.
  EXPECT_GT(counts[0], 10 * counts[opts.zipf_domain - 1]);
  EXPECT_GT(counts[opts.zipf_domain - 1], 0u);
}

TEST(SkewedTableTest, ParetoColumnIsHeavyTailedAndPositive) {
  Rng rng(42);
  SkewedTableOptions opts;
  opts.num_records = 20000;
  opts.pareto_shape = 1.5;
  const Table t = MakeSkewedTable(opts, &rng);
  double max_v = 0.0, sum = 0.0;
  for (size_t i = 0; i < t.num_records(); ++i) {
    const double v = t.value(i, 1);
    ASSERT_GE(v, opts.pareto_scale);  // support is [x_m, inf)
    max_v = std::max(max_v, v);
    sum += v;
  }
  const double mean = sum / static_cast<double>(t.num_records());
  // Heavy tail: the max dwarfs the mean (a Gaussian would be ~5 sigma).
  EXPECT_GT(max_v, 20.0 * mean);
}

TEST(RelationalPairTest, SchemaKeysAndPerfectReferences) {
  Rng rng(5);
  RelationalPairOptions opts;
  opts.num_parents = 150;
  const RelationalPair pair = MakeRelationalPair(opts, &rng);

  EXPECT_EQ(pair.parent.num_records(), 150u);
  EXPECT_EQ(pair.schema.num_tables(), 2u);
  EXPECT_EQ(pair.schema.FindTable("users"), 0);
  EXPECT_EQ(pair.schema.FindTable("orders"), 1);

  // Parent PKs are 1..n in order; child PKs likewise.
  for (size_t r = 0; r < pair.parent.num_records(); ++r)
    ASSERT_EQ(pair.parent.value(r, 0), static_cast<double>(r + 1));
  for (size_t r = 0; r < pair.child.num_records(); ++r)
    ASSERT_EQ(pair.child.value(r, 0), static_cast<double>(r + 1));

  // Every FK hits an existing parent, by construction.
  for (size_t r = 0; r < pair.child.num_records(); ++r) {
    const double fk = pair.child.value(r, 1);
    ASSERT_GE(fk, 1.0);
    ASSERT_LE(fk, static_cast<double>(opts.num_parents));
  }
}

TEST(RelationalPairTest, DeterministicPerSeedStream) {
  RelationalPairOptions opts;
  opts.num_parents = 80;
  Rng a(9), b(9), c(10);
  const RelationalPair pa = MakeRelationalPair(opts, &a);
  const RelationalPair pb = MakeRelationalPair(opts, &b);
  const RelationalPair pc = MakeRelationalPair(opts, &c);
  ASSERT_EQ(pa.child.num_records(), pb.child.num_records());
  for (size_t r = 0; r < pa.child.num_records(); ++r)
    for (size_t j = 0; j < pa.child.num_attributes(); ++j)
      ASSERT_EQ(pa.child.value(r, j), pb.child.value(r, j));
  EXPECT_NE(pa.child.num_records(), pc.child.num_records());
}

TEST(RelationalPairTest, ZipfFanOutIsHeadHeavy) {
  RelationalPairOptions opts;
  opts.num_parents = 4000;
  opts.max_fanout = 6;
  Rng rng(21);
  const RelationalPair pair = MakeRelationalPair(opts, &rng);
  std::vector<size_t> counts(opts.num_parents, 0);
  for (size_t r = 0; r < pair.child.num_records(); ++r)
    ++counts[static_cast<size_t>(pair.child.value(r, 1)) - 1];
  std::vector<size_t> hist(opts.max_fanout + 1, 0);
  for (size_t c : counts) ++hist[c];
  // Zipf: mass decreases with the count; the extremes make it obvious.
  EXPECT_GT(hist[0], hist[2]);
  EXPECT_GT(hist[2], hist[opts.max_fanout]);
  EXPECT_GT(hist[opts.max_fanout], 0u);  // but the tail is populated
}

TEST(RelationalPairTest, ChildAmountTracksParentBudget) {
  RelationalPairOptions opts;
  opts.num_parents = 2000;
  Rng rng(33);
  const RelationalPair pair = MakeRelationalPair(opts, &rng);
  // corr(amount, parent budget) over the join should be strongly
  // positive (amount = 0.1 * budget + noise).
  std::vector<double> x, y;
  for (size_t r = 0; r < pair.child.num_records(); ++r) {
    const size_t parent =
        static_cast<size_t>(pair.child.value(r, 1)) - 1;
    x.push_back(pair.parent.value(parent, 2));
    y.push_back(pair.child.value(r, 3));
  }
  const double corr = stats::PearsonCorrelation(x, y);
  EXPECT_GT(corr, 0.5);
}

}  // namespace
}  // namespace daisy::data
