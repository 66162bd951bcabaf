#include "transform/record_transformer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators/realistic.h"

namespace daisy::transform {
namespace {

data::Table MixedTable() {
  data::Schema schema(
      {data::Attribute::Numerical("age"),
       data::Attribute::Categorical("color", {"r", "g", "b"}),
       data::Attribute::Numerical("income"),
       data::Attribute::Categorical("label", {"neg", "pos"})},
      3);
  data::Table t(schema);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double age = 20.0 + rng.Uniform() * 40.0;
    const double income = rng.Uniform() < 0.5 ? rng.Gaussian(20000, 2000)
                                              : rng.Gaussian(80000, 5000);
    t.AppendRecord({age, static_cast<double>(rng.UniformInt(3)), income,
                    static_cast<double>(rng.UniformInt(2))});
  }
  return t;
}

struct SchemeCase {
  CategoricalEncoding cat;
  NumericalNormalization num;
  const char* name;
};

class SchemeRoundTrip : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(SchemeRoundTrip, VectorFormRoundTripsRecords) {
  data::Table t = MixedTable();
  Rng rng(7);
  TransformOptions opts;
  opts.categorical = GetParam().cat;
  opts.numerical = GetParam().num;
  opts.form = SampleForm::kVector;
  auto tf = RecordTransformer::Fit(t, opts, &rng);

  Matrix samples = tf.Transform(t);
  EXPECT_EQ(samples.rows(), t.num_records());
  EXPECT_EQ(samples.cols(), tf.sample_dim());

  data::Table back = tf.InverseTransform(samples);
  ASSERT_EQ(back.num_records(), t.num_records());
  for (size_t i = 0; i < t.num_records(); ++i) {
    // Categorical attributes decode exactly.
    EXPECT_EQ(back.category(i, 1), t.category(i, 1));
    EXPECT_EQ(back.category(i, 3), t.category(i, 3));
    // Numerical attributes decode approximately (GMM quantizes by
    // component; simple norm is exact up to clamping).
    EXPECT_NEAR(back.value(i, 0), t.value(i, 0), 2.0);
    EXPECT_NEAR(back.value(i, 2), t.value(i, 2),
                0.05 * (t.AttributeMax(2) - t.AttributeMin(2)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeRoundTrip,
    ::testing::Values(
        SchemeCase{CategoricalEncoding::kOrdinal,
                   NumericalNormalization::kSimple, "od_sn"},
        SchemeCase{CategoricalEncoding::kOrdinal,
                   NumericalNormalization::kGmm, "od_gn"},
        SchemeCase{CategoricalEncoding::kOneHot,
                   NumericalNormalization::kSimple, "ht_sn"},
        SchemeCase{CategoricalEncoding::kOneHot,
                   NumericalNormalization::kGmm, "ht_gn"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(RecordTransformerTest, SimpleNormalizationRange) {
  data::Table t = MixedTable();
  Rng rng(8);
  TransformOptions opts;
  opts.numerical = NumericalNormalization::kSimple;
  opts.categorical = CategoricalEncoding::kOrdinal;
  auto tf = RecordTransformer::Fit(t, opts, &rng);
  Matrix samples = tf.Transform(t);
  for (size_t i = 0; i < samples.rows(); ++i) {
    for (size_t c = 0; c < samples.cols(); ++c) {
      EXPECT_GE(samples(i, c), -1.0 - 1e-9);
      EXPECT_LE(samples(i, c), 1.0 + 1e-9);
    }
  }
}

TEST(RecordTransformerTest, OneHotBlocksAreValidOneHots) {
  data::Table t = MixedTable();
  Rng rng(9);
  TransformOptions opts;
  opts.categorical = CategoricalEncoding::kOneHot;
  opts.numerical = NumericalNormalization::kSimple;
  auto tf = RecordTransformer::Fit(t, opts, &rng);
  Matrix samples = tf.Transform(t);
  for (const auto& seg : tf.segments()) {
    if (seg.kind != AttrSegment::Kind::kOneHotCat) continue;
    for (size_t i = 0; i < samples.rows(); ++i) {
      double sum = 0.0;
      for (size_t c = 0; c < seg.width; ++c)
        sum += samples(i, seg.offset + c);
      EXPECT_DOUBLE_EQ(sum, 1.0);
    }
  }
}

TEST(RecordTransformerTest, GmmSegmentWidthIsComponentsPlusOne) {
  data::Table t = MixedTable();
  Rng rng(10);
  TransformOptions opts;
  opts.numerical = NumericalNormalization::kGmm;
  opts.gmm_components = 4;
  auto tf = RecordTransformer::Fit(t, opts, &rng);
  for (const auto& seg : tf.segments()) {
    if (seg.kind == AttrSegment::Kind::kGmmNumeric) {
      EXPECT_EQ(seg.width, 1 + seg.gmm.num_components());
    }
  }
}

TEST(RecordTransformerTest, MatrixFormForcesOrdinalSimpleAndPads) {
  data::Table t = MixedTable();
  Rng rng(11);
  TransformOptions opts;
  opts.categorical = CategoricalEncoding::kOneHot;  // should be overridden
  opts.numerical = NumericalNormalization::kGmm;    // should be overridden
  opts.form = SampleForm::kMatrix;
  auto tf = RecordTransformer::Fit(t, opts, &rng);
  EXPECT_EQ(tf.options().categorical, CategoricalEncoding::kOrdinal);
  EXPECT_EQ(tf.options().numerical, NumericalNormalization::kSimple);
  // 4 attributes -> 2x2 square, no padding needed.
  EXPECT_EQ(tf.matrix_side(), 2u);
  EXPECT_EQ(tf.sample_dim(), 4u);

  data::Table back = tf.InverseTransform(tf.Transform(t));
  for (size_t i = 0; i < 20; ++i)
    EXPECT_EQ(back.category(i, 1), t.category(i, 1));
}

TEST(RecordTransformerTest, MatrixFormPadsNonSquareAttributeCounts) {
  Rng rng(12);
  data::Table t = data::MakeHtru2Sim(100, &rng);  // 8 features + label = 9
  TransformOptions opts;
  opts.form = SampleForm::kMatrix;
  auto tf = RecordTransformer::Fit(t, opts, &rng);
  EXPECT_EQ(tf.matrix_side(), 3u);
  EXPECT_EQ(tf.sample_dim(), 9u);
}

TEST(RecordTransformerTest, ExcludeLabelDropsLabelFromSample) {
  data::Table t = MixedTable();
  Rng rng(13);
  TransformOptions opts;
  opts.exclude_label = true;
  opts.categorical = CategoricalEncoding::kOneHot;
  opts.numerical = NumericalNormalization::kSimple;
  auto tf = RecordTransformer::Fit(t, opts, &rng);
  EXPECT_EQ(tf.schema().num_attributes(), 3u);
  EXPECT_FALSE(tf.schema().has_label());
  // age (1) + color one-hot (3) + income (1) = 5.
  EXPECT_EQ(tf.sample_dim(), 5u);
}

TEST(RecordTransformerTest, DecodeClampsOutOfRangeValues) {
  data::Table t = MixedTable();
  Rng rng(14);
  TransformOptions opts;
  opts.categorical = CategoricalEncoding::kOrdinal;
  opts.numerical = NumericalNormalization::kSimple;
  auto tf = RecordTransformer::Fit(t, opts, &rng);
  Matrix wild(1, tf.sample_dim(), 100.0);  // far outside every range
  data::Table back = tf.InverseTransform(wild);
  EXPECT_LE(back.value(0, 0), t.AttributeMax(0) + 1e-9);
  EXPECT_EQ(back.category(0, 1), 2u);  // clamped to last category
}

}  // namespace
}  // namespace daisy::transform
