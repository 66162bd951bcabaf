#include "data/csv.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"

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

// Numbers whose "%g" text is easiest to get wrong: random bit patterns,
// NaN of either sign, ±inf, ±0 and subnormals, integers on both sides
// of the switch to exponent form, and exact binary ties at the sixth
// significant digit.
double OracleNumber(Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0, -0.0, kInf, -kInf, kNan,
                             std::copysign(kNan, -1.0),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest()};
  const double sign = rng->UniformInt(2) ? -1.0 : 1.0;
  switch (rng->UniformInt(5)) {
    case 0: {
      const uint64_t bits = rng->Next();
      double v = 0.0;
      std::memcpy(&v, &bits, sizeof(v));
      return v;
    }
    case 1:
      return sign * static_cast<double>(1'000'000 + rng->UniformInt(9'000'000));
    case 2:
      return sign *
             (100'000.0 + static_cast<double>(rng->UniformInt(900'000)) + 0.5);
    case 3:
      return sign * (10'000.0 + static_cast<double>(rng->UniformInt(90'000)) +
                     (rng->UniformInt(2) ? 0.25 : 0.75));
    default:
      return specials[rng->UniformInt(std::size(specials))];
  }
}

// Offset of the first differing byte, or "equal".
std::string FirstDifference(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return "first difference at byte " + std::to_string(i);
  if (a.size() != b.size())
    return "sizes " + std::to_string(a.size()) + " and " +
           std::to_string(b.size());
  return "equal";
}

// CsvRows and WriteCsv against a reference built cell by cell from
// snprintf("%g") and EscapeCsvField.
TEST_F(CsvTest, RowsMatchPrintfAndEscapeReference) {
  const std::vector<std::string> names = {
      "plain", "a,b", "say \"hi\"", "line1\nline2", "cr\rhere", "", "-nan"};
  Schema schema({Attribute::Numerical("x"),
                 Attribute::Categorical("c,1", names),
                 Attribute::Numerical("y\"q"), Attribute::Numerical("z")});
  Table t(schema);
  Rng rng(11);
  std::string want;
  for (size_t i = 0; i < 20'000; ++i) {
    const size_t cat = rng.UniformInt(names.size());
    const std::vector<double> rec = {OracleNumber(&rng),
                                     static_cast<double>(cat),
                                     OracleNumber(&rng), OracleNumber(&rng)};
    t.AppendRecord(rec);
    for (size_t j = 0; j < rec.size(); ++j) {
      if (j) want += ',';
      if (j == 1) {
        want += EscapeCsvField(names[cat]);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", rec[j]);
        want += buf;
      }
    }
    want += '\n';
  }
  const std::string rows = CsvRows(t);
  EXPECT_TRUE(rows == want) << FirstDifference(rows, want);

  ASSERT_TRUE(WriteCsv(t, path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::ostringstream file;
  file << in.rdbuf();
  want = "x,\"c,1\",\"y\"\"q\",z\n" + want;
  EXPECT_TRUE(file.str() == want) << FirstDifference(file.str(), want);
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

// strtod takes nan and inf; a numeric column holding one would train
// to NaN, so the typing rule refuses it and names the first such row.
TEST_F(CsvTest, NonFiniteNumberInNumericColumnIsRefused) {
  for (const std::string cell : {"nan", "NaN", "inf", "-inf", "Infinity"}) {
    {
      std::ofstream out(path_);
      out << "x,c,label\n1.5,a,n\n-2,b,p\n" << cell << ",a,n\n4," << cell
          << ",p\n";
    }
    auto result = ReadCsv(path_, "label");
    ASSERT_FALSE(result.ok()) << cell;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find("column 'x' at data row 3"),
              std::string::npos)
        << result.status().ToString();
  }
}

// A column that is categorical anyway (another cell is not a number),
// or the label, keeps "nan" as a category name.
TEST_F(CsvTest, NanIsACategoryOutsideNumericColumns) {
  {
    std::ofstream out(path_);
    out << "x,c,label\n1.5,nan,nan\n-2,b,inf\n3,nan,nan\n";
  }
  auto result = ReadCsv(path_, "label");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Schema& schema = result.value().schema();
  EXPECT_FALSE(schema.attribute(0).is_categorical());
  EXPECT_EQ(schema.attribute(1).categories,
            (std::vector<std::string>{"nan", "b"}));
  EXPECT_EQ(schema.attribute(2).categories,
            (std::vector<std::string>{"nan", "inf"}));
}

// The converter re-scans its file once per pass; a cell that the
// typing passes never saw (the file changed in between) is refused,
// not encoded as some other value.
TEST_F(CsvTest, EncodeRefusesCellsTypingDidNotSee) {
  const std::vector<std::vector<std::string>> rows = {{"1.5", "a"},
                                                      {"2", "b"}};
  const CsvRecords records = [&rows](const auto& visit) {
    for (const auto& row : rows) DAISY_RETURN_IF_ERROR(visit(row));
    return Status::OK();
  };
  auto typing = CsvTyping::Infer({"x", "c"}, "", records);
  ASSERT_TRUE(typing.ok()) << typing.status().ToString();
  std::vector<double> values;
  ASSERT_TRUE(typing.value().Encode({"-3", "b"}, &values).ok());
  EXPECT_EQ(values, (std::vector<double>{-3.0, 1.0}));
  for (const std::vector<std::string>& row :
       std::vector<std::vector<std::string>>{
           {"1", "z"}, {"abc", "a"}, {"nan", "a"}}) {
    const Status st = typing.value().Encode(row, &values);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << row[0] << row[1];
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
