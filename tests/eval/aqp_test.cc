#include "eval/aqp.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators/realistic.h"

namespace daisy::eval {
namespace {

data::Table SmallTable() {
  data::Schema schema(
      {data::Attribute::Numerical("v"),
       data::Attribute::Categorical("g", {"a", "b"})});
  data::Table t(schema);
  t.AppendRecord({10.0, 0});
  t.AppendRecord({20.0, 0});
  t.AppendRecord({30.0, 1});
  t.AppendRecord({40.0, 1});
  return t;
}

TEST(AqpExecuteTest, CountWithNumericPredicate) {
  AqpQuery q;
  q.func = AggFunc::kCount;
  q.predicates.push_back({0, false, 0, 15.0, 35.0});
  const auto result = ExecuteAqpQuery(SmallTable(), q);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result.at(0), 2.0);  // 20 and 30
}

TEST(AqpExecuteTest, SumWithCategoricalPredicate) {
  AqpQuery q;
  q.func = AggFunc::kSum;
  q.target_attr = 0;
  AqpPredicate p;
  p.attr = 1;
  p.is_categorical = true;
  p.category = 1;
  q.predicates.push_back(p);
  const auto result = ExecuteAqpQuery(SmallTable(), q);
  EXPECT_DOUBLE_EQ(result.at(0), 70.0);
}

TEST(AqpExecuteTest, AvgGroupBy) {
  AqpQuery q;
  q.func = AggFunc::kAvg;
  q.target_attr = 0;
  q.group_by_attr = 1;
  const auto result = ExecuteAqpQuery(SmallTable(), q);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_DOUBLE_EQ(result.at(0), 15.0);
  EXPECT_DOUBLE_EQ(result.at(1), 35.0);
}

TEST(AqpExecuteTest, ScaleAppliesToCountAndSumNotAvg) {
  AqpQuery count_q;
  count_q.func = AggFunc::kCount;
  EXPECT_DOUBLE_EQ(ExecuteAqpQuery(SmallTable(), count_q, 10.0).at(0), 40.0);

  AqpQuery avg_q;
  avg_q.func = AggFunc::kAvg;
  avg_q.target_attr = 0;
  EXPECT_DOUBLE_EQ(ExecuteAqpQuery(SmallTable(), avg_q, 10.0).at(0), 25.0);
}

TEST(AqpExecuteTest, EmptySelectionYieldsEmptyResult) {
  AqpQuery q;
  q.func = AggFunc::kCount;
  q.predicates.push_back({0, false, 0, 1000.0, 2000.0});
  EXPECT_TRUE(ExecuteAqpQuery(SmallTable(), q).empty());
}

TEST(RelativeErrorTest, ExactMatchIsZero) {
  AqpResult r = {{0, 10.0}, {1, 20.0}};
  EXPECT_DOUBLE_EQ(RelativeError(r, r), 0.0);
}

TEST(RelativeErrorTest, MissingGroupCountsAsOne) {
  AqpResult exact = {{0, 10.0}, {1, 20.0}};
  AqpResult approx = {{0, 10.0}};
  EXPECT_DOUBLE_EQ(RelativeError(exact, approx), 0.5);
}

TEST(RelativeErrorTest, HalfOff) {
  AqpResult exact = {{0, 10.0}};
  AqpResult approx = {{0, 15.0}};
  EXPECT_DOUBLE_EQ(RelativeError(exact, approx), 0.5);
}

TEST(RelativeErrorTest, CappedAtOne) {
  AqpResult exact = {{0, 1.0}};
  AqpResult approx = {{0, 100.0}};
  EXPECT_DOUBLE_EQ(RelativeError(exact, approx), 1.0);
}

TEST(RelativeErrorTest, BothEmptyIsZero) {
  EXPECT_DOUBLE_EQ(RelativeError({}, {}), 0.0);
}

TEST(RelativeErrorTest, EmptyExactNonEmptyApproxIsOne) {
  AqpResult approx = {{0, 5.0}};
  EXPECT_DOUBLE_EQ(RelativeError({}, approx), 1.0);
}

TEST(RelativeErrorTest, ZeroExactValueDoesNotDivideByZero) {
  // exact value 0: denom clamps at 1e-9 and the error caps at 1
  // instead of producing inf/NaN.
  AqpResult exact = {{0, 0.0}};
  AqpResult wrong = {{0, 3.0}};
  EXPECT_DOUBLE_EQ(RelativeError(exact, wrong), 1.0);
  AqpResult right = {{0, 0.0}};
  EXPECT_DOUBLE_EQ(RelativeError(exact, right), 0.0);
}

TEST(RelativeErrorTest, ExtraApproxGroupsAreIgnored) {
  // Averaging runs over the exact groups only.
  AqpResult exact = {{0, 10.0}};
  AqpResult approx = {{0, 10.0}, {1, 999.0}};
  EXPECT_DOUBLE_EQ(RelativeError(exact, approx), 0.0);
}

TEST(WorkloadTest, GeneratesValidQueries) {
  Rng rng(1);
  data::Table t = data::MakeBingSim(500, &rng);
  AqpWorkloadOptions opts;
  opts.num_queries = 100;
  const auto workload = GenerateAqpWorkload(t, opts, &rng).value();
  ASSERT_EQ(workload.size(), 100u);
  for (const auto& q : workload) {
    EXPECT_GE(q.predicates.size(), opts.min_predicates);
    EXPECT_LE(q.predicates.size(), opts.max_predicates);
    if (q.func != AggFunc::kCount) {
      ASSERT_GE(q.target_attr, 0);
      EXPECT_FALSE(
          t.schema().attribute(q.target_attr).is_categorical());
    }
    if (q.group_by_attr >= 0) {
      EXPECT_TRUE(t.schema().attribute(q.group_by_attr).is_categorical());
    }
    for (const auto& p : q.predicates) {
      EXPECT_EQ(p.is_categorical,
                t.schema().attribute(p.attr).is_categorical());
      if (p.is_categorical)
        EXPECT_LT(p.category, t.schema().attribute(p.attr).domain_size());
      else
        EXPECT_LE(p.lo, p.hi);
    }
  }
}

TEST(AqpDiffTest, IdenticalSyntheticBeatsDistortedSynthetic) {
  Rng rng(2);
  data::Table real = data::MakeBingSim(5000, &rng);
  AqpWorkloadOptions wopts;
  wopts.num_queries = 50;
  wopts.max_predicates = 1;  // keep selections non-degenerate at test scale
  wopts.group_by_prob = 0.0;
  const auto workload = GenerateAqpWorkload(real, wopts, &rng).value();

  // Perfect synthetic = the table itself. A 10% baseline sample keeps
  // the sampling error e small at this miniature table size (the paper
  // uses 1% of 100k+ rows).
  AqpDiffOptions dopts;
  dopts.sample_ratio = 0.1;
  Rng r1(3), r2(3);
  const double diff_perfect =
      AqpDiff(real, real, workload, dopts, &r1).value();

  // Distorted synthetic: shuffle one numeric column's values (breaks
  // joint distribution) and shift them.
  data::Table distorted = real;
  for (size_t i = 0; i < distorted.num_records(); ++i)
    distorted.set_value(i, 0,
                        distorted.value(i, 0) * 3.0 + 100.0);
  const double diff_distorted =
      AqpDiff(real, distorted, workload, dopts, &r2).value();
  EXPECT_LT(diff_perfect, diff_distorted);
  // With T' == T, e' is 0 for every query, so DiffAQP equals the
  // sampling error e, which is small but nonzero.
  EXPECT_LT(diff_perfect, 0.25);
}

}  // namespace
}  // namespace daisy::eval
