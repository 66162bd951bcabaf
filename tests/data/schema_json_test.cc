// Tests for the relational spec parser (data/schema_json) and the JSON
// reader under it (core/json): a valid spec, every shape error,
// malformed JSON, \u escapes and the nesting bound. Every bad input is
// an InvalidArgument whose message starts "relational spec: ".
#include "data/schema_json.h"

#include <string>

#include <gtest/gtest.h>

#include "core/json.h"

namespace daisy::data {
namespace {

const char kTwoTables[] = R"({
  "tables": [
    {"name": "users", "file": "users.csv", "primary_key": "user_id"},
    {"name": "orders", "file": "orders.dcol", "primary_key": "order_id",
     "foreign_keys": [
       {"column": "user_id",
        "references": {"table": "users", "column": "user_id"}}]}
  ]
})";

// The spec error for `json`, or a failure when it parses.
std::string SpecError(const std::string& json) {
  auto spec = ParseRelationalSpecJson(json);
  EXPECT_FALSE(spec.ok()) << json;
  if (spec.ok()) return "";
  EXPECT_EQ(spec.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(spec.status().message().rfind("relational spec: ", 0), 0u)
      << spec.status().message();
  return spec.status().message();
}

// `table` as the only entry of a spec.
std::string OneTable(const std::string& table) {
  return R"({"tables": [)" + table + "]}";
}

TEST(RelationalSpecJsonTest, ParsesTwoTableSpec) {
  auto spec = ParseRelationalSpecJson(kTwoTables);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().tables.size(), 2u);
  EXPECT_EQ(spec.value().tables[0].name, "users");
  EXPECT_EQ(spec.value().tables[0].file, "users.csv");
  EXPECT_EQ(spec.value().tables[0].primary_key, "user_id");
  EXPECT_EQ(spec.value().tables[1].file, "orders.dcol");
  ASSERT_EQ(spec.value().foreign_keys.size(), 1u);
  const ForeignKey& fk = spec.value().foreign_keys[0];
  EXPECT_EQ(fk.child_table, "orders");
  EXPECT_EQ(fk.child_column, "user_id");
  EXPECT_EQ(fk.parent_table, "users");
  EXPECT_EQ(fk.parent_column, "user_id");
}

TEST(RelationalSpecJsonTest, DecodesUnicodeEscapesInNames) {
  auto spec = ParseRelationalSpecJson(OneTable(
      R"({"name": "\u0041b\u00e9", "file": "a.csv", "primary_key": "id"})"));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().tables[0].name, "Ab\xC3\xA9");
}

TEST(RelationalSpecJsonTest, MissingKeyIsAnError) {
  EXPECT_NE(SpecError(OneTable(R"({"name": "t", "primary_key": "id"})"))
                .find("is missing \"file\""),
            std::string::npos);
  EXPECT_NE(SpecError("{}").find("\"tables\" must be a non-empty array"),
            std::string::npos);
}

TEST(RelationalSpecJsonTest, EmptyValuesAreErrors) {
  EXPECT_NE(SpecError(OneTable(
                R"({"name": "", "file": "a.csv", "primary_key": "id"})"))
                .find("\"name\" must be a non-empty string"),
            std::string::npos);
  EXPECT_NE(SpecError(OneTable(
                R"({"name": 7, "file": "a.csv", "primary_key": "id"})"))
                .find("\"name\" must be a non-empty string"),
            std::string::npos);
  EXPECT_NE(SpecError(R"({"tables": []})").find("non-empty array"),
            std::string::npos);
}

TEST(RelationalSpecJsonTest, UnknownKeysAreErrors) {
  EXPECT_NE(SpecError(R"({"tables": [], "version": 2})")
                .find("top level has unknown key \"version\""),
            std::string::npos);
  EXPECT_NE(SpecError(OneTable(R"({"name": "t", "file": "a.csv",
                                   "primary_kay": "id"})"))
                .find("unknown key \"primary_kay\""),
            std::string::npos);
}

TEST(RelationalSpecJsonTest, DuplicateKeysAreErrors) {
  EXPECT_NE(SpecError(OneTable(R"({"name": "t", "name": "u",
                                   "file": "a.csv", "primary_key": "id"})"))
                .find("duplicate object key 'name'"),
            std::string::npos);
}

TEST(RelationalSpecJsonTest, WrongContainerTypesAreErrors) {
  EXPECT_NE(SpecError(R"({"tables": {"name": "t"}})")
                .find("\"tables\" must be a non-empty array"),
            std::string::npos);
  EXPECT_NE(SpecError("[1, 2]").find("top level must be an object"),
            std::string::npos);
  EXPECT_NE(SpecError(R"({"tables": ["users"]})").find("must be an object"),
            std::string::npos);
  EXPECT_NE(SpecError(OneTable(R"({"name": "t", "file": "a.csv",
                                   "primary_key": "id",
                                   "foreign_keys": {}})"))
                .find("\"foreign_keys\" must be an array"),
            std::string::npos);
}

TEST(RelationalSpecJsonTest, BadReferencesAreErrors) {
  const auto with_fk = [](const std::string& fk) {
    return OneTable(R"({"name": "t", "file": "a.csv", "primary_key": "id",
                        "foreign_keys": [)" + fk + "]}");
  };
  EXPECT_NE(SpecError(with_fk(R"({"column": "p", "references": "users"})"))
                .find("needs a \"references\" object"),
            std::string::npos);
  EXPECT_NE(SpecError(with_fk(R"({"column": "p"})"))
                .find("needs a \"references\" object"),
            std::string::npos);
  EXPECT_NE(SpecError(with_fk(
                R"({"column": "p", "references": {"table": "users"}})"))
                .find("references is missing \"column\""),
            std::string::npos);
  EXPECT_NE(SpecError(with_fk(R"({"column": "p", "references":
                                  {"table": "u", "column": "id", "on": 1}})"))
                .find("references has unknown key \"on\""),
            std::string::npos);
}

TEST(RelationalSpecJsonTest, MalformedJsonIsAnError) {
  EXPECT_NE(SpecError(std::string(kTwoTables) + " x")
                .find("trailing characters"),
            std::string::npos);
  EXPECT_NE(SpecError(R"({"tables": [{"name": "users)")
                .find("unterminated string"),
            std::string::npos);
  EXPECT_NE(SpecError(R"({"tables": [{"name": "a\qb"}]})")
                .find("unsupported string escape"),
            std::string::npos);
  EXPECT_NE(SpecError(R"({"tables": [{"name": "\u00G1"}]})")
                .find("bad \\u escape"),
            std::string::npos);
  EXPECT_NE(SpecError(R"({"tables" [1]})").find("expected ':'"),
            std::string::npos);
  EXPECT_NE(SpecError("").find("unexpected end of input"), std::string::npos);
}

// Nesting past kMaxJsonDepth is refused before it can exhaust the
// stack, however deep the input goes.
TEST(RelationalSpecJsonTest, NestingPastTheBoundIsAnError) {
  for (const size_t depth : {kMaxJsonDepth + 1, size_t{2} << 20}) {
    SCOPED_TRACE(depth);
    const std::string nested =
        R"({"tables": )" + std::string(depth, '[') + std::string(depth, ']') +
        "}";
    EXPECT_NE(SpecError(nested).find("nesting deeper than 64 levels"),
              std::string::npos);
  }
}

TEST(JsonTest, NestingUpToTheBoundParses) {
  const std::string at_bound =
      std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(at_bound).ok());
  EXPECT_FALSE(ParseJson("[" + at_bound + "]").ok());
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  auto v = ParseJson(R"("\u0001\u00e9\u20AC")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value().text, "\x01\xC3\xA9\xE2\x82\xAC");
  // Surrogate halves are refused, paired or not.
  for (const char* bad : {R"("\ud83d")", R"("\ude00")", R"("\ud83d\ude00")",
                          R"("\u12")", R"("\u12g4")"})
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
}

TEST(JsonTest, NumbersKeepTheirTokenText) {
  auto v = ParseJson("[18446744073709551615, -0.5e-3, 0]");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value().items[0].text, "18446744073709551615");
  EXPECT_EQ(v.value().items[1].text, "-0.5e-3");
  for (const char* bad : {"01", "1.", ".5", "-", "1e", "+1", "0x10", "nan"})
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
}

TEST(JsonTest, RawControlCharactersInStringsAreRefused) {
  EXPECT_FALSE(ParseJson("\"a\tb\"").ok());
  EXPECT_TRUE(ParseJson("\"a\\tb\"").ok());
}

}  // namespace
}  // namespace daisy::data
