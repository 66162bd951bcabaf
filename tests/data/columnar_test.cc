// Tests for the paged columnar (.dcol) format: bitwise round-trips,
// ReadCsv-equivalence of the streaming converter, footer min/max
// fidelity, the page cache's budget/fault accounting, and the
// corruption contract (exhaustive single-byte-flip and truncation
// sweeps — mirrors tests/ckpt/checkpoint_test.cc).
#include "data/columnar.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/csv.h"

namespace daisy::data {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Table SampleTable(size_t n) {
  Schema schema(
      {Attribute::Numerical("x"), Attribute::Numerical("y"),
       Attribute::Categorical("c", {"alpha", "beta", "gamma"}),
       Attribute::Categorical("label", {"neg", "pos"})},
      3);
  Rng rng(11);
  Table t(schema);
  for (size_t i = 0; i < n; ++i) {
    t.AppendRecord({rng.Gaussian(0.0, 3.0), rng.Uniform(-5.0, 5.0),
                    static_cast<double>(rng.UniformInt(3)),
                    static_cast<double>(rng.UniformInt(2))});
  }
  return t;
}

void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_records(), b.num_records());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    const Attribute& aa = a.schema().attribute(j);
    const Attribute& ba = b.schema().attribute(j);
    EXPECT_EQ(aa.name, ba.name);
    EXPECT_EQ(aa.type, ba.type);
    EXPECT_EQ(aa.categories, ba.categories);
  }
  EXPECT_EQ(a.schema().has_label(), b.schema().has_label());
  if (a.schema().has_label())
    EXPECT_EQ(a.schema().label_index(), b.schema().label_index());
  for (size_t i = 0; i < a.num_records(); ++i)
    for (size_t j = 0; j < a.num_attributes(); ++j)
      EXPECT_EQ(a.value(i, j), b.value(i, j))
          << "cell (" << i << ", " << j << ")";
}

TEST(ColumnarTest, RoundTripIsBitwiseAtEveryPageGeometry) {
  const std::string dir = FreshDir("dcol_roundtrip");
  const Table table = SampleTable(37);
  for (size_t page_rows : {1u, 7u, 37u, 64u}) {
    SCOPED_TRACE("page_rows=" + std::to_string(page_rows));
    const std::string path =
        dir + "/t" + std::to_string(page_rows) + ".dcol";
    ASSERT_TRUE(WriteColumnar(table, path, page_rows).ok());
    for (size_t budget : {1u, 3u, 100u}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      PagedTable::Options opts;
      opts.page_budget = budget;
      auto opened = PagedTable::Open(path, opts);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      const PagedTable& p = *opened.value();
      EXPECT_EQ(p.num_records(), table.num_records());
      EXPECT_EQ(p.page_rows(), page_rows);
      auto round = p.ToTable();
      ASSERT_TRUE(round.ok());
      ExpectSameTable(table, round.value());
      EXPECT_LE(p.resident_pages(), budget);
    }
  }
}

TEST(ColumnarTest, FooterMinMaxMatchesTableAccumulation) {
  const std::string dir = FreshDir("dcol_minmax");
  const Table table = SampleTable(100);
  const std::string path = dir + "/t.dcol";
  ASSERT_TRUE(WriteColumnar(table, path, 16).ok());
  auto opened = PagedTable::Open(path, {});
  ASSERT_TRUE(opened.ok());
  for (size_t j = 0; j < table.num_attributes(); ++j) {
    EXPECT_EQ(opened.value()->attribute_min(j), table.AttributeMin(j));
    EXPECT_EQ(opened.value()->attribute_max(j), table.AttributeMax(j));
  }
}

TEST(ColumnarTest, PointAndBulkAccessorsAgree) {
  const std::string dir = FreshDir("dcol_access");
  const Table table = SampleTable(50);
  const std::string path = dir + "/t.dcol";
  ASSERT_TRUE(WriteColumnar(table, path, 8).ok());
  PagedTable::Options opts;
  opts.page_budget = 1;  // worst case: every access can evict
  opts.use_mmap = false; // exercise the pread path too
  auto opened = PagedTable::Open(path, opts);
  ASSERT_TRUE(opened.ok());
  const PagedTable& p = *opened.value();

  // ValueAt.
  for (size_t i = 0; i < table.num_records(); i += 7)
    for (size_t j = 0; j < table.num_attributes(); ++j) {
      auto v = p.ValueAt(i, j);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(v.value(), table.value(i, j));
    }

  // GatherRows with an adversarial (page-alternating) row pattern.
  std::vector<size_t> rows = {49, 0, 8, 1, 40, 9, 16, 2, 48};
  auto gathered = p.GatherRows(rows);
  ASSERT_TRUE(gathered.ok());
  for (size_t i = 0; i < rows.size(); ++i)
    for (size_t j = 0; j < table.num_attributes(); ++j)
      EXPECT_EQ(gathered.value()(i, j), table.value(rows[i], j));

  // Page-bucketed gathers fault each needed page at most once per
  // column even at budget 1: rows span 7 pages x 4 columns.
  const auto stats_before = p.cache_stats();
  auto again = p.GatherRows(rows);
  ASSERT_TRUE(again.ok());
  EXPECT_LE(p.cache_stats().misses - stats_before.misses,
            7u * table.num_attributes());

  // ScanColumn bypasses the cache and matches Column.
  std::vector<double> scan(20);
  ASSERT_TRUE(p.ScanColumn(0, 10, 30, scan.data()).ok());
  for (size_t i = 0; i < scan.size(); ++i)
    EXPECT_EQ(scan[i], table.value(10 + i, 0));
}

TEST(ColumnarTest, ConvertMatchesReadCsvBitwise) {
  const std::string dir = FreshDir("dcol_convert");
  const std::string csv = dir + "/t.csv";
  const std::string dcol = dir + "/t.dcol";
  const Table table = SampleTable(64);
  ASSERT_TRUE(WriteCsv(table, csv).ok());

  const auto read = ReadCsv(csv, "label");
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(ConvertCsvToColumnar(csv, dcol, "label", 10).ok());
  auto opened = PagedTable::Open(dcol, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto round = opened.value()->ToTable();
  ASSERT_TRUE(round.ok());
  ExpectSameTable(read.value(), round.value());
}

TEST(ColumnarTest, ConvertWithoutLabelAndQuotedFields) {
  const std::string dir = FreshDir("dcol_convert_quoted");
  const std::string csv = dir + "/t.csv";
  const std::string dcol = dir + "/t.dcol";
  {
    std::ofstream out(csv, std::ios::binary);
    out << "x,c\n1.5,\"a,comma\"\n-2.25,plain\n3.0,\"a,comma\"\n";
  }
  const auto read = ReadCsv(csv);
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(ConvertCsvToColumnar(csv, dcol, "", 2).ok());
  auto opened = PagedTable::Open(dcol, {});
  ASSERT_TRUE(opened.ok());
  auto round = opened.value()->ToTable();
  ASSERT_TRUE(round.ok());
  ExpectSameTable(read.value(), round.value());
  EXPECT_FALSE(round.value().schema().has_label());
  EXPECT_EQ(round.value().CellToString(0, 1), "a,comma");
}

TEST(ColumnarTest, ConvertMissingLabelColumnFails) {
  const std::string dir = FreshDir("dcol_badlabel");
  const std::string csv = dir + "/t.csv";
  ASSERT_TRUE(WriteCsv(SampleTable(5), csv).ok());
  const Status st = ConvertCsvToColumnar(csv, dir + "/t.dcol", "nope", 4);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
}

// Under a repeated header name ReadCsv has no table to be bitwise equal
// to, so the converter refuses the header as ReadCsv does
// (CsvTest.DuplicateHeaderNameIsRefused) and writes no file.
TEST(ColumnarTest, ConvertRefusesDuplicateHeaderName) {
  const std::string dir = FreshDir("dcol_duplicate_header");
  const std::string csv = dir + "/t.csv";
  {
    std::ofstream out(csv, std::ios::binary);
    out << "y,a,y\nn,1,2\np,3,4\n";
  }
  const Status st = ConvertCsvToColumnar(csv, dir + "/t.dcol", "y", 4);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.ToString().find("duplicate column name 'y'"),
            std::string::npos)
      << st.ToString();
  EXPECT_FALSE(fs::exists(dir + "/t.dcol"));
}

TEST(ColumnarTest, WriterRejectsBadRecords) {
  const std::string dir = FreshDir("dcol_writer_errors");
  Schema schema({Attribute::Numerical("x"),
                 Attribute::Categorical("c", {"a", "b"})});
  auto writer = ColumnarWriter::Create(dir + "/t.dcol", schema, 4);
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE(writer.value()->Append({1.0}).ok());            // width
  EXPECT_FALSE(writer.value()->Append({1.0, 2.0}).ok());       // domain high
  EXPECT_FALSE(writer.value()->Append({1.0, -1.0}).ok());      // domain low
  EXPECT_TRUE(writer.value()->Append({1.0, 1.0}).ok());
  ASSERT_TRUE(writer.value()->Finish().ok());
  // The atomic protocol leaves no temp file behind.
  EXPECT_FALSE(fs::exists(dir + "/t.dcol.tmp"));
}

TEST(ColumnarTest, AbandonedWriterLeavesNothingBehind) {
  const std::string dir = FreshDir("dcol_abandoned");
  const std::string path = dir + "/t.dcol";
  {
    auto writer =
        ColumnarWriter::Create(path, Schema({Attribute::Numerical("x")}), 4);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append({1.0}).ok());
    // Destroyed without Finish — simulated crash/abort.
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(ColumnarTest, OpenMissingFileIsIOError) {
  auto opened =
      PagedTable::Open(FreshDir("dcol_missing") + "/nope.dcol", {});
  ASSERT_FALSE(opened.ok());
}

TEST(ColumnarTest, EveryByteFlipIsDetected) {
  const std::string dir = FreshDir("dcol_flip");
  const std::string path = dir + "/t.dcol";
  const std::string mutant = dir + "/mutant.dcol";
  // Small but complete: 5 rows, 2 cols, 2-row pages -> 3 row groups.
  Table t(Schema({Attribute::Numerical("x"),
                  Attribute::Categorical("c", {"a", "b"})}));
  for (double v : {0.5, -1.25, 3.0, 7.5, -0.125})
    t.AppendRecord({v, static_cast<double>(static_cast<int>(v) & 1)});
  ASSERT_TRUE(WriteColumnar(t, path, 2).ok());
  std::string bytes = FileBytes(path);
  ASSERT_GT(bytes.size(), 72u);
  {
    WriteBytes(mutant, bytes);
    auto ok = PagedTable::Open(mutant, {});
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(bytes[i] ^ 0x01);
    WriteBytes(mutant, bytes);
    auto opened = PagedTable::Open(mutant, {});
    EXPECT_FALSE(opened.ok()) << "flip at byte " << i << " went undetected";
    bytes[i] = static_cast<char>(bytes[i] ^ 0x01);
  }
}

TEST(ColumnarTest, EveryTruncationIsDetected) {
  const std::string dir = FreshDir("dcol_trunc");
  const std::string path = dir + "/t.dcol";
  const std::string mutant = dir + "/mutant.dcol";
  Table t(Schema({Attribute::Numerical("x")}));
  for (double v : {1.0, 2.0, 3.0}) t.AppendRecord({v});
  ASSERT_TRUE(WriteColumnar(t, path, 2).ok());
  const std::string bytes = FileBytes(path);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteBytes(mutant, bytes.substr(0, cut));
    auto opened = PagedTable::Open(mutant, {});
    EXPECT_FALSE(opened.ok()) << "truncation to " << cut
                              << " bytes went undetected";
  }
}

TEST(ColumnarTest, PageCorruptionCaughtOnFaultEvenWithoutVerifyPass) {
  const std::string dir = FreshDir("dcol_lazy");
  const std::string path = dir + "/t.dcol";
  Table t(Schema({Attribute::Numerical("x")}));
  for (int i = 0; i < 8; ++i) t.AppendRecord({static_cast<double>(i)});
  ASSERT_TRUE(WriteColumnar(t, path, 2).ok());
  std::string bytes = FileBytes(path);
  bytes[48] = static_cast<char>(bytes[48] ^ 0x40);  // first page payload
  WriteBytes(path, bytes);

  PagedTable::Options opts;
  opts.verify = false;  // skip the Open-time sweep
  auto opened = PagedTable::Open(path, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto v = opened.value()->ValueAt(0, 0);  // faults the corrupted page
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().ToString().find("checksum"), std::string::npos);
  // Other pages remain readable.
  EXPECT_TRUE(opened.value()->ValueAt(7, 0).ok());
}

TEST(ColumnarTest, CsvStreamReaderSupportsRepeatPasses) {
  const std::string dir = FreshDir("dcol_stream_reader");
  const std::string csv = dir + "/t.csv";
  {
    std::ofstream out(csv, std::ios::binary);
    out << "a,b\n1,x\n2,y\n";
  }
  CsvStreamReader reader;
  ASSERT_TRUE(reader.Open(csv).ok());
  ASSERT_EQ(reader.header(), (std::vector<std::string>{"a", "b"}));
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(reader.Open(csv).ok());  // reopen rewinds
    std::vector<std::string> fields;
    bool got = false;
    size_t rows = 0;
    while (reader.Next(&fields, &got).ok() && got) ++rows;
    EXPECT_EQ(rows, 2u);
  }
}

TEST(ColumnarTest, CsvStreamReaderFlagsRaggedRows) {
  const std::string dir = FreshDir("dcol_ragged");
  const std::string csv = dir + "/t.csv";
  {
    std::ofstream out(csv, std::ios::binary);
    out << "a,b\n1,x\n2\n";
  }
  CsvStreamReader reader;
  ASSERT_TRUE(reader.Open(csv).ok());
  std::vector<std::string> fields;
  bool got = false;
  ASSERT_TRUE(reader.Next(&fields, &got).ok());
  ASSERT_TRUE(got);
  const Status st = reader.Next(&fields, &got);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("ragged"), std::string::npos);
}

}  // namespace
}  // namespace daisy::data
