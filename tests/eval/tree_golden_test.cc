// Golden pin for the tree classifiers of the utility section (DESIGN
// §5d, "presorted CART"). The expected values were captured from the
// per-node-sort CART that the presorted one replaced, so any change to
// a split, a threshold, a tie order or a leaf distribution shows here:
//   - the IEEE bits of every EvaluationSuite metric, on an Adult-like
//     binary pair and on a tie-heavy 3-class table (low-cardinality
//     ordinal features, duplicated rows, a constant column, -0.0 next
//     to 0.0);
//   - for DT10/DT30/RF10/RF20/AB, an Fnv1a64 digest of the PredictProba
//     bits over the training rows and the midpoints between neighbours.
//     The same digest also pins logistic regression: F1 and AUC hide
//     a last-bit change to its weights, the digest does not.
// Each check runs at 1, 2 and 7 threads.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/durable.h"
#include "core/parallel.h"
#include "data/generators/realistic.h"
#include "eval/classifier.h"
#include "eval/decision_tree.h"
#include "eval/suite.h"

namespace daisy::eval {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 7};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", v);
  return buf;
}

// Six feature columns and a 3-class label. Records are drawn from a pool
// of n/3 distinct ones, so most rows are repeated; every feature has at
// most seven distinct values, and "constant" has one.
data::Table MakeTieHeavy(size_t n, uint64_t seed) {
  using data::Attribute;
  data::Schema schema(
      {Attribute::Categorical("grade", {"a", "b", "c", "d"}),
       Attribute::Numerical("level"),
       Attribute::Categorical("flag", {"no", "yes"}),
       Attribute::Numerical("constant"),
       Attribute::Numerical("score"),
       Attribute::Numerical("signed"),
       Attribute::Categorical("label", {"x", "y", "z"})},
      6);
  Rng rng(seed);
  std::vector<std::vector<double>> pool(n / 3);
  for (auto& rec : pool) {
    const double grade = static_cast<double>(rng.UniformInt(4));
    const double level = static_cast<double>(rng.UniformInt(5));
    const double flag = static_cast<double>(rng.UniformInt(2));
    const double score = 0.5 * static_cast<double>(rng.UniformInt(7));
    // -0.0 and 0.0 compare equal, so they tie in the split scan.
    const double sign = static_cast<double>(rng.UniformInt(3)) - 1.0;
    const double signed_v = sign == 0.0 && rng.UniformInt(2) ? -0.0 : sign;
    size_t label = (static_cast<size_t>(grade) + static_cast<size_t>(level) +
                    (score > 1.5 ? 1 : 0)) %
                   3;
    if (rng.Uniform() < 0.2) label = rng.UniformInt(3);
    rec = {grade, level, flag, 7.0, score, signed_v,
           static_cast<double>(label)};
  }
  data::Table t(schema);
  for (size_t i = 0; i < n; ++i)
    t.AppendRecord(pool[rng.UniformInt(pool.size())]);
  return t;
}

SuiteOptions PinOptions() {
  SuiteOptions opts;
  opts.utility_auc = true;  // also exercises PredictProba (binary only)
  opts.privacy_samples = 60;
  opts.aqp_workload.num_queries = 12;
  opts.aqp_diff.sample_ratio = 0.1;
  opts.aqp_diff.sample_repeats = 2;
  return opts;
}

struct PinnedMetric {
  const char* name;
  uint64_t bits;
};

// Runs the suite at every thread count and compares each metric's bits
// with `want`, in order. A mismatch prints the full table as captured.
void ExpectSuiteBits(const data::Table& real, const data::Table& synth,
                     const std::vector<PinnedMetric>& want) {
  const EvaluationSuite suite(PinOptions());
  for (size_t threads : kThreadCounts) {
    par::SetNumThreads(threads);
    const auto report = suite.Run(real, synth);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const auto& got = report.value().metrics;
    bool same = got.size() == want.size();
    for (size_t i = 0; same && i < got.size(); ++i)
      same = got[i].name == want[i].name && Bits(got[i].value) == want[i].bits;
    std::string table;
    for (const auto& m : got)
      table += "      {\"" + m.name + "\", " + Hex(Bits(m.value)) + "},\n";
    EXPECT_TRUE(same) << "threads=" << threads << ", got:\n" << table;
  }
  par::SetNumThreads(0);
}

// Fnv1a64 of the PredictProba bits of a fitted classifier over every
// row of x and the midpoint of each pair of neighbours.
uint64_t ProbaDigest(const Classifier& clf, const Matrix& x) {
  std::vector<double> bits;
  std::vector<double> mid(x.cols());
  for (size_t i = 0; i < x.rows(); ++i) {
    const auto p = clf.PredictProba(x.row(i));
    bits.insert(bits.end(), p.begin(), p.end());
    if (i + 1 == x.rows()) break;
    for (size_t j = 0; j < x.cols(); ++j)
      mid[j] = 0.5 * (x(i, j) + x(i + 1, j));
    const auto q = clf.PredictProba(mid.data());
    bits.insert(bits.end(), q.begin(), q.end());
  }
  return Fnv1a64(reinterpret_cast<const char*>(bits.data()),
                 bits.size() * sizeof(double));
}

const ClassifierKind kProbaKinds[] = {
    ClassifierKind::kDt10, ClassifierKind::kDt30, ClassifierKind::kRf10,
    ClassifierKind::kRf20, ClassifierKind::kAdaBoost,
    ClassifierKind::kLogReg};

void ExpectProbaDigests(const data::Table& t,
                        const std::vector<uint64_t>& want) {
  const Matrix x = t.FeatureMatrix();
  const std::vector<size_t> y = t.Labels();
  ASSERT_EQ(want.size(), std::size(kProbaKinds));
  for (size_t threads : kThreadCounts) {
    par::SetNumThreads(threads);
    for (size_t k = 0; k < std::size(kProbaKinds); ++k) {
      auto clf = MakeClassifier(kProbaKinds[k]);
      Rng rng(97);
      clf->Fit(x, y, t.schema().num_labels(), &rng);
      const uint64_t got = ProbaDigest(*clf, x);
      EXPECT_EQ(got, want[k])
          << ClassifierKindName(kProbaKinds[k]) << " threads=" << threads
          << " got " << Hex(got);
    }
  }
  par::SetNumThreads(0);
}

TEST(TreeGoldenTest, AdultSuiteMetricBits) {
  Rng rng(1901);
  const data::Table real = data::MakeAdultSim(900, &rng);
  const data::Table synth = data::MakeAdultSim(700, &rng);
  ExpectSuiteBits(real, synth, {
      {"utility.f1_diff.DT10", 0x3f87556e38fe1ac0ULL},
      {"utility.auc_diff.DT10", 0x3f802d9e00a9bd00ULL},
      {"utility.f1_diff.DT30", 0x3f98863d18863d20ULL},
      {"utility.auc_diff.DT30", 0x3f81811811811840ULL},
      {"utility.f1_diff.RF10", 0x3f77521663eb4900ULL},
      {"utility.auc_diff.RF10", 0x3f69fdbee3b02b00ULL},
      {"utility.f1_diff.RF20", 0x3f64014014013f00ULL},
      {"utility.auc_diff.RF20", 0x3f507183373b3600ULL},
      {"utility.f1_diff.AB", 0x3f8de5d6e3f88680ULL},
      {"utility.auc_diff.AB", 0x3f507183373b3600ULL},
      {"utility.f1_diff.LR", 0x3f91566abc011580ULL},
      {"utility.auc_diff.LR", 0x3f5a858950d31c00ULL},
      {"clustering.nmi_diff", 0x3fc5e2b461a5898eULL},
      {"fidelity.marginal_kl", 0x3f7cf80d7bea92faULL},
      {"fidelity.numeric_corr_diff", 0x3fa346764faa8f67ULL},
      {"fidelity.cat_assoc_diff", 0x3f9b71462d014714ULL},
      {"fidelity.rare_mode_recall", 0x3ff0000000000000ULL},
      {"fidelity.per_category_kl", 0x3f6dd6eae263d150ULL},
      {"fidelity.fd_violation_rate", 0x3fac869536202ed0ULL},
      {"privacy.hitting_rate", 0x0000000000000000ULL},
      {"privacy.dcr", 0x3ff24974d0da8971ULL},
      {"aqp.diff", 0x3fb682f8e4557cf4ULL},
  });
}

TEST(TreeGoldenTest, TieHeavySuiteMetricBits) {
  const data::Table real = MakeTieHeavy(600, 1902);
  const data::Table synth = MakeTieHeavy(450, 1903);
  ExpectSuiteBits(real, synth, {
      {"utility.f1_diff.DT10", 0x3fd6fa1fe5241782ULL},
      {"utility.f1_diff.DT30", 0x3fd841cdf99ef8c8ULL},
      {"utility.f1_diff.RF10", 0x3fdcc49ede93127dULL},
      {"utility.f1_diff.RF20", 0x3fd609c44ab5f19bULL},
      {"utility.f1_diff.AB", 0x3fa590edc93f2250ULL},
      {"utility.f1_diff.LR", 0x3fd0bb512bb512bcULL},
      {"clustering.nmi_diff", 0x3f60291e3e6d8220ULL},
      {"fidelity.marginal_kl", 0x3fa1c71ae2d3e743ULL},
      {"fidelity.numeric_corr_diff", 0x3fa4faafd505c534ULL},
      {"fidelity.cat_assoc_diff", 0x3fb02750bec51f82ULL},
      {"fidelity.rare_mode_recall", 0x3ff0000000000000ULL},
      {"fidelity.per_category_kl", 0x3fa1c781c7c8c9f5ULL},
      {"privacy.hitting_rate", 0x3fc999999999999aULL},
      {"privacy.dcr", 0x3fdc00d232bd5105ULL},
      {"aqp.diff", 0x3fbd1871912a158fULL},
  });
}

TEST(TreeGoldenTest, AdultProbaDigests) {
  Rng rng(1904);
  ExpectProbaDigests(data::MakeAdultSim(700, &rng),
                     {0xd831f95216fab5f8ULL, 0xf32bce2c057b9058ULL,
                      0x65072787009dd09cULL, 0x5f12c42ef147cfafULL,
                      0xd3bbecff71546d38ULL, 0xe69a83e8e3e0b161ULL});
}

TEST(TreeGoldenTest, TieHeavyProbaDigests) {
  ExpectProbaDigests(MakeTieHeavy(500, 1905),
                     {0x32a82d06a8a61334ULL, 0x32a82d06a8a61334ULL,
                      0x3a731aa512b946d4ULL, 0x6604fb4b50375203ULL,
                      0xae34ee37ecb64681ULL, 0x92a104cf82b6daabULL});
}

// Weighted trees whose weights span 40 binary orders of magnitude, so a
// scan that visits the rows of a tie in another order rounds its partial
// sums differently. Depth 3 and 30 also split on partitioned lists with
// non-integer weights, which the suite's stumps never do.
TEST(TreeGoldenTest, TieHeavyWeightedTreeDigests) {
  const data::Table t = MakeTieHeavy(500, 1906);
  const Matrix x = t.FeatureMatrix();
  const std::vector<size_t> y = t.Labels();
  Rng wrng(1907);
  std::vector<double> w(y.size());
  for (auto& v : w)
    v = std::ldexp(1.0 + wrng.Uniform(),
                   -static_cast<int>(wrng.UniformInt(40)));
  const size_t depths[] = {1, 3, 30};
  const uint64_t want[] = {0x65ef1ab9600fe8f8ULL, 0x0c6a91aa2a8298c7ULL,
                           0x7a84ac2d8baa5fa8ULL};
  for (size_t threads : kThreadCounts) {
    par::SetNumThreads(threads);
    for (size_t d = 0; d < std::size(depths); ++d) {
      DecisionTree tree(DecisionTreeOptions{.max_depth = depths[d]});
      Rng rng(97);
      tree.FitWeighted(x, y, w, t.schema().num_labels(), &rng);
      const uint64_t got = ProbaDigest(tree, x);
      EXPECT_EQ(got, want[d]) << "depth " << depths[d] << " threads="
                              << threads << " got " << Hex(got);
    }
  }
  par::SetNumThreads(0);
}

}  // namespace
}  // namespace daisy::eval
