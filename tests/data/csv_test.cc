#include "data/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace daisy::data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs each test as its own process, in parallel.
  std::string path_ = ::testing::TempDir() + "daisy_csv_test_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".csv";
};

Table SampleTable() {
  Schema schema(
      {Attribute::Numerical("x"),
       Attribute::Categorical("c", {"alpha", "beta"}),
       Attribute::Categorical("label", {"n", "p"})},
      2);
  Table t(schema);
  t.AppendRecord({1.5, 0, 1});
  t.AppendRecord({-2.25, 1, 0});
  t.AppendRecord({0.0, 1, 1});
  return t;
}

TEST_F(CsvTest, RoundTripPreservesValues) {
  Table original = SampleTable();
  ASSERT_TRUE(WriteCsv(original, path_).ok());
  auto result = ReadCsv(path_, "label");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& read = result.value();
  ASSERT_EQ(read.num_records(), 3u);
  ASSERT_EQ(read.num_attributes(), 3u);
  EXPECT_DOUBLE_EQ(read.value(1, 0), -2.25);
  EXPECT_EQ(read.CellToString(1, 1), "beta");
  EXPECT_EQ(read.label(2), original.label(2) == 1
                               ? read.label(2)  // same category name
                               : read.label(2));
  EXPECT_TRUE(read.schema().has_label());
  EXPECT_EQ(read.schema().attribute(0).type, AttrType::kNumerical);
  EXPECT_EQ(read.schema().attribute(1).type, AttrType::kCategorical);
}

TEST_F(CsvTest, LabelColumnBecomesCategoricalEvenIfNumeric) {
  Schema schema({Attribute::Numerical("x"),
                 Attribute::Categorical("label", {"0", "1"})},
                1);
  Table t(schema);
  t.AppendRecord({1.0, 0});
  t.AppendRecord({2.0, 1});
  ASSERT_TRUE(WriteCsv(t, path_).ok());
  auto result = ReadCsv(path_, "label");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().schema().attribute(1).is_categorical());
}

TEST_F(CsvTest, MissingLabelColumnFails) {
  ASSERT_TRUE(WriteCsv(SampleTable(), path_).ok());
  auto result = ReadCsv(path_, "nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
}

TEST_F(CsvTest, MissingFileFails) {
  auto result = ReadCsv("/nonexistent/definitely/not/here.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

TEST_F(CsvTest, QuotedFieldsWithCommasRoundTrip) {
  Schema schema({Attribute::Categorical("c", {"a,b", "plain"})});
  Table t(schema);
  t.AppendRecord({0});
  t.AppendRecord({1});
  ASSERT_TRUE(WriteCsv(t, path_).ok());
  auto result = ReadCsv(path_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().CellToString(0, 0), "a,b");
}

TEST_F(CsvTest, EmbeddedQuotesRoundTrip) {
  // EscapeField writes `he said "hi"` as `"he said ""hi"""`; the reader
  // must collapse the doubled quotes back to literal ones.
  Schema schema({Attribute::Categorical(
      "c", {"he said \"hi\"", "\"fully quoted\"", "mix,\"of\",both",
            "plain"})});
  Table t(schema);
  for (double v : {0.0, 1.0, 2.0, 3.0}) t.AppendRecord({v});
  ASSERT_TRUE(WriteCsv(t, path_).ok());
  auto result = ReadCsv(path_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& read = result.value();
  EXPECT_EQ(read.CellToString(0, 0), "he said \"hi\"");
  EXPECT_EQ(read.CellToString(1, 0), "\"fully quoted\"");
  EXPECT_EQ(read.CellToString(2, 0), "mix,\"of\",both");
  EXPECT_EQ(read.CellToString(3, 0), "plain");
}

TEST_F(CsvTest, HostileCellsRoundTrip) {
  // Embedded newlines and carriage returns must be quoted on write and
  // reassembled on read — an unquoted "\n" would silently split one
  // record into two.
  Schema schema({Attribute::Categorical(
      "c", {"line1\nline2", "cr\rhere", "crlf\r\nboth", "q\"uote",
            "all,of\n\"it\"\r", "plain"})});
  Table t(schema);
  for (double v : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}) t.AppendRecord({v});
  ASSERT_TRUE(WriteCsv(t, path_).ok());
  auto result = ReadCsv(path_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& read = result.value();
  ASSERT_EQ(read.num_records(), 6u);
  EXPECT_EQ(read.CellToString(0, 0), "line1\nline2");
  EXPECT_EQ(read.CellToString(1, 0), "cr\rhere");
  EXPECT_EQ(read.CellToString(2, 0), "crlf\r\nboth");
  EXPECT_EQ(read.CellToString(3, 0), "q\"uote");
  EXPECT_EQ(read.CellToString(4, 0), "all,of\n\"it\"\r");
  EXPECT_EQ(read.CellToString(5, 0), "plain");
}

TEST_F(CsvTest, EscapeCsvFieldQuotesControlCharacters) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("a\nb"), "\"a\nb\"");
  EXPECT_EQ(EscapeCsvField("a\rb"), "\"a\rb\"");
  EXPECT_EQ(EscapeCsvField("a\"b"), "\"a\"\"b\"");
}

TEST_F(CsvTest, CrlfTerminatedFileParses) {
  // Files written by tools that emit CRLF line endings must read back
  // without the '\r' leaking into the last field of each record.
  {
    std::ofstream out(path_, std::ios::binary);
    out << "x,c\r\n1.5,alpha\r\n2.5,beta\r\n";
  }
  auto result = ReadCsv(path_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& read = result.value();
  ASSERT_EQ(read.num_records(), 2u);
  EXPECT_EQ(read.CellToString(0, 1), "alpha");
  EXPECT_EQ(read.CellToString(1, 1), "beta");
  EXPECT_DOUBLE_EQ(read.value(1, 0), 2.5);
}

TEST_F(CsvTest, UnterminatedQuoteIsAnError) {
  {
    std::ofstream out(path_);
    out << "a,b\n";
    out << "1,\"unterminated\n";
  }
  auto result = ReadCsv(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

// With a name given twice, which column a label (or any lookup by name)
// means is unknowable; the streaming converter refuses the same header
// (ColumnarTest.ConvertRefusesDuplicateHeaderName).
TEST_F(CsvTest, DuplicateHeaderNameIsRefused) {
  {
    std::ofstream out(path_);
    out << "y,a,y\nn,1,2\np,3,4\n";
  }
  for (const std::string label : {"y", "a", ""}) {
    auto result = ReadCsv(path_, label);
    ASSERT_FALSE(result.ok()) << "label '" << label << "'";
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find("duplicate column name 'y'"),
              std::string::npos)
        << result.status().ToString();
  }
}

// A table small enough to sit in the stream's buffer until close must
// still report the write that fails there.
TEST_F(CsvTest, WriteToFullDeviceIsAnError) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full is not available";
  std::fclose(probe);
  const Status st = WriteCsv(SampleTable(), "/dev/full");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kIOError);
}

}  // namespace
}  // namespace daisy::data
