#include "data/table.h"

#include <gtest/gtest.h>

namespace daisy::data {
namespace {

Schema TestSchema() {
  return Schema(
      {Attribute::Numerical("age"),
       Attribute::Categorical("color", {"red", "green", "blue"}),
       Attribute::Categorical("label", {"neg", "pos"})},
      /*label_index=*/2);
}

Table TestTable() {
  Table t(TestSchema());
  t.AppendRecord({25.0, 0, 0});
  t.AppendRecord({35.0, 1, 1});
  t.AppendRecord({45.0, 2, 0});
  t.AppendRecord({55.0, 0, 1});
  return t;
}

TEST(SchemaTest, BasicAccessors) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.num_attributes(), 3u);
  EXPECT_TRUE(s.has_label());
  EXPECT_EQ(s.label_index(), 2u);
  EXPECT_EQ(s.num_labels(), 2u);
  EXPECT_EQ(s.FindAttribute("color"), 1);
  EXPECT_EQ(s.FindAttribute("missing"), -1);
  EXPECT_EQ(s.FeatureIndices(), (std::vector<size_t>{0, 1}));
}

TEST(SchemaTest, UnlabeledSchema) {
  Schema s({Attribute::Numerical("x")});
  EXPECT_FALSE(s.has_label());
  EXPECT_EQ(s.FeatureIndices(), (std::vector<size_t>{0}));
}

TEST(TableTest, AppendAndRead) {
  Table t = TestTable();
  EXPECT_EQ(t.num_records(), 4u);
  EXPECT_DOUBLE_EQ(t.value(0, 0), 25.0);
  EXPECT_EQ(t.category(1, 1), 1u);
  EXPECT_EQ(t.CellToString(1, 1), "green");
  EXPECT_EQ(t.CellToString(0, 0), "25");
}

TEST(TableTest, Labels) {
  Table t = TestTable();
  EXPECT_EQ(t.Labels(), (std::vector<size_t>{0, 1, 0, 1}));
  EXPECT_EQ(t.LabelCounts(), (std::vector<size_t>{2, 2}));
}

TEST(TableTest, AttributeMinMaxColumn) {
  Table t = TestTable();
  EXPECT_DOUBLE_EQ(t.AttributeMin(0), 25.0);
  EXPECT_DOUBLE_EQ(t.AttributeMax(0), 55.0);
  EXPECT_EQ(t.Column(0), (std::vector<double>{25, 35, 45, 55}));
}

TEST(TableTest, GatherPreservesOrder) {
  Table t = TestTable();
  Table g = t.Gather({3, 0});
  EXPECT_EQ(g.num_records(), 2u);
  EXPECT_DOUBLE_EQ(g.value(0, 0), 55.0);
  EXPECT_DOUBLE_EQ(g.value(1, 0), 25.0);
}

TEST(TableTest, HeadTruncates) {
  Table t = TestTable();
  EXPECT_EQ(t.Head(2).num_records(), 2u);
  EXPECT_EQ(t.Head(100).num_records(), 4u);
}

TEST(TableTest, FeatureMatrixExcludesLabel) {
  Table t = TestTable();
  Matrix x = t.FeatureMatrix();
  EXPECT_EQ(x.cols(), 2u);
  EXPECT_DOUBLE_EQ(x(2, 0), 45.0);
  EXPECT_DOUBLE_EQ(x(2, 1), 2.0);
}

TEST(TableTest, SplitRatios) {
  Table t(TestSchema());
  for (int i = 0; i < 600; ++i)
    t.AppendRecord({static_cast<double>(i), static_cast<double>(i % 3),
                    static_cast<double>(i % 2)});
  Rng rng(5);
  const auto split = SplitTable(t, 4.0 / 6.0, 1.0 / 6.0, &rng);
  EXPECT_EQ(split.train.num_records(), 400u);
  EXPECT_EQ(split.valid.num_records(), 100u);
  EXPECT_EQ(split.test.num_records(), 100u);
}

TEST(TableTest, SplitPartitionsWithoutDuplication) {
  Table t(TestSchema());
  for (int i = 0; i < 60; ++i)
    t.AppendRecord({static_cast<double>(i), 0.0, 0.0});
  Rng rng(6);
  const auto split = SplitTable(t, 0.5, 0.25, &rng);
  std::vector<bool> seen(60, false);
  auto mark = [&](const Table& part) {
    for (size_t i = 0; i < part.num_records(); ++i) {
      const int v = static_cast<int>(part.value(i, 0));
      EXPECT_FALSE(seen[v]) << "duplicate record " << v;
      seen[v] = true;
    }
  };
  mark(split.train);
  mark(split.valid);
  mark(split.test);
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(UnionSchemaTest, MergesShuffledAndMissingCategories) {
  // Two CSV reads of the same data: b saw the categories in a different
  // first-seen order and never saw "blue" or label "pos" at all.
  Schema a = TestSchema();
  Schema b({Attribute::Numerical("age"),
            Attribute::Categorical("color", {"green", "red"}),
            Attribute::Categorical("label", {"neg"})},
           2);
  const auto u = UnionSchema(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().attribute(1).categories,
            (std::vector<std::string>{"red", "green", "blue"}));
  EXPECT_EQ(u.value().num_labels(), 2u);
  EXPECT_EQ(u.value().label_index(), 2u);

  // Extra categories in b land after a's.
  Schema c({Attribute::Numerical("age"),
            Attribute::Categorical("color", {"cyan", "red"}),
            Attribute::Categorical("label", {"neg", "pos"})},
           2);
  const auto uc = UnionSchema(a, c);
  ASSERT_TRUE(uc.ok());
  EXPECT_EQ(uc.value().attribute(1).categories,
            (std::vector<std::string>{"red", "green", "blue", "cyan"}));
}

TEST(UnionSchemaTest, RejectsIncompatibleSchemas) {
  Schema a = TestSchema();
  Schema renamed({Attribute::Numerical("years"),
                  Attribute::Categorical("color", {"red"}),
                  Attribute::Categorical("label", {"neg", "pos"})},
                 2);
  EXPECT_FALSE(UnionSchema(a, renamed).ok());
  Schema retyped({Attribute::Categorical("age", {"25"}),
                  Attribute::Categorical("color", {"red"}),
                  Attribute::Categorical("label", {"neg", "pos"})},
                 2);
  EXPECT_FALSE(UnionSchema(a, retyped).ok());
  Schema unlabeled({Attribute::Numerical("age"),
                    Attribute::Categorical("color", {"red"}),
                    Attribute::Categorical("label", {"neg", "pos"})});
  EXPECT_FALSE(UnionSchema(a, unlabeled).ok());
}

TEST(RemapToSchemaTest, RewritesIndicesByCategoryName) {
  // "green" is index 0 in the source but 1 in the target.
  Schema source({Attribute::Numerical("age"),
                 Attribute::Categorical("color", {"green", "red"}),
                 Attribute::Categorical("label", {"neg"})},
                2);
  Table t(source);
  t.AppendRecord({25.0, 0, 0});  // green, neg
  t.AppendRecord({35.0, 1, 0});  // red, neg
  const auto u = UnionSchema(TestSchema(), source);
  ASSERT_TRUE(u.ok());
  const auto remapped = RemapToSchema(t, u.value());
  ASSERT_TRUE(remapped.ok());
  EXPECT_EQ(remapped.value().CellToString(0, 1), "green");
  EXPECT_EQ(remapped.value().category(0, 1), 1u);
  EXPECT_EQ(remapped.value().CellToString(1, 1), "red");
  EXPECT_DOUBLE_EQ(remapped.value().value(0, 0), 25.0);
  // The remapped table sees the full union domain, so a two-class
  // label survives even though the source file only contained "neg".
  EXPECT_EQ(remapped.value().schema().num_labels(), 2u);
}

TEST(RemapToSchemaTest, RejectsCategoryMissingFromTarget) {
  Schema target({Attribute::Categorical("c", {"a"})});
  Schema source({Attribute::Categorical("c", {"a", "b"})});
  Table t(source);
  t.AppendRecord({1.0});
  EXPECT_FALSE(RemapToSchema(t, target).ok());
}

TEST(TableDeathTest, CategoryOutOfDomainAborts) {
  Table t(TestSchema());
  EXPECT_DEATH(t.AppendRecord({1.0, 7.0, 0.0}), "DAISY_CHECK");
}

TEST(TableDeathTest, WrongArityAborts) {
  Table t(TestSchema());
  EXPECT_DEATH(t.AppendRecord({1.0, 0.0}), "DAISY_CHECK");
}

}  // namespace
}  // namespace daisy::data
