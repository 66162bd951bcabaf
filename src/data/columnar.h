// Paged, checksummed binary columnar table format ("daisy-dcol-v1")
// plus a bounded-memory reader — the out-of-core substrate that lets
// the transform layer and the trainers operate on tables that do not
// fit in RAM.
//
// On-disk layout (all integers little-endian, doubles IEEE-754):
//
//   [header, 48 bytes]
//     0  16  magic "daisy-dcol-v1\n" (NUL padded)
//     16  4  u32 version (1)
//     20  4  u32 num_cols
//     24  8  u64 num_rows
//     32  8  u64 page_rows            rows per page
//     40  4  u32 reserved (0)
//     44  4  u32 crc32 of bytes [0, 44)
//   [row groups]
//     ceil(num_rows / page_rows) groups; group g covers rows
//     [g*page_rows, min(num_rows, (g+1)*page_rows)). Within a group,
//     one page per column, column 0 first. A page is the group's rows
//     of that column as doubles, then u32 crc32 of that payload, then
//     u32 reserved — so every page is 8-byte aligned and page offsets
//     are pure arithmetic (only the last group is short).
//   [footer]
//     tagged-text payload (core/serial): row/col/page counts
//     cross-checked against the header, the full data::Schema (names,
//     types, category domains, label index) and per-column min/max
//     accumulated in ascending row order (bitwise equal to
//     Table::AttributeMin/Max on the same rows).
//   [postscript, 24 bytes]
//     u64 footer_len, u64 fnv1a64(footer payload), 8 bytes "dcolend\n"
//
// Corruption contract (mirrors src/ckpt): every single-byte flip and
// every truncation of a .dcol file is detected — the header and footer
// by their own checksums and exact-size accounting at Open, the page
// payloads by per-page CRC (verified by Open's verify pass, and again
// on every page fault). Writes go through core/durable's AtomicFile.
#ifndef DAISY_DATA_COLUMNAR_H_
#define DAISY_DATA_COLUMNAR_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/durable.h"
#include "core/matrix.h"
#include "core/status.h"
#include "data/table.h"

namespace daisy::data {

/// Streaming writer: append records one at a time, holding at most one
/// row group (page_rows x num_cols doubles) in memory. The file is
/// written through an AtomicFile (`path + ".tmp"`) and committed into
/// place by Finish, so a crash never leaves a torn .dcol behind.
class ColumnarWriter {
 public:
  /// `page_rows` is clamped to >= 1. The schema is persisted verbatim.
  static Result<std::unique_ptr<ColumnarWriter>> Create(
      const std::string& path, const Schema& schema, size_t page_rows);

  ColumnarWriter(const ColumnarWriter&) = delete;
  ColumnarWriter& operator=(const ColumnarWriter&) = delete;

  /// Appends one record; `values` must match the schema width, with
  /// categorical entries holding in-domain category indices.
  Status Append(const std::vector<double>& values);

  /// Flushes the tail group, writes footer + postscript, rewrites the
  /// header and commits the file. Must be called exactly once.
  Status Finish();

  size_t rows_written() const { return rows_written_; }

 private:
  ColumnarWriter(Schema schema, size_t page_rows);
  Status FlushGroup();

  Schema schema_;
  size_t page_rows_ = 0;
  size_t rows_written_ = 0;
  size_t buffered_ = 0;
  std::vector<std::vector<double>> group_;  // [col][row within group]
  std::vector<double> col_min_, col_max_;
  AtomicFile file_;
};

/// Writes a whole in-memory table (convenience for tests and tools).
Status WriteColumnar(const Table& table, const std::string& path,
                     size_t page_rows);

/// Converts a CSV file to .dcol with bounded memory: CsvTyping's passes
/// over the file (column types, then categorical domains), then one
/// more streaming the encoded cells into a ColumnarWriter. The typing
/// rule is ReadCsv's, so the resulting table is bitwise identical to
/// ReadCsv(csv_path, label_column), and both refuse the same files.
Status ConvertCsvToColumnar(const std::string& csv_path,
                            const std::string& dcol_path,
                            const std::string& label_column,
                            size_t page_rows);

/// Bounded-memory reader over a .dcol file. Random accesses fault
/// column pages through an LRU cache of at most `page_budget` resident
/// pages; sequential scans stream pages through a scratch buffer
/// without touching the cache. Not internally synchronized: use one
/// PagedTable per thread (distinct instances over the same file are
/// independent).
class PagedTable {
 public:
  struct Options {
    /// Maximum resident pages across all columns (>= 1). Peak cache
    /// memory is page_budget * page_rows * 8 bytes plus one scratch
    /// page.
    size_t page_budget = 64;
    /// Verify every page CRC with a full sequential pass at Open.
    /// Header and footer checksums are always verified.
    bool verify = true;
  };

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  static Result<std::unique_ptr<PagedTable>> Open(const std::string& path,
                                                  const Options& options);

  /// A table over the same file that exposes only `cols`, in that
  /// order: the in-place counterpart of ProjectColumns. It shares this
  /// table's validated header and footer (schema ProjectSchema, footer
  /// min/max of those columns) and its page budget, reads through its
  /// own descriptor and LRU cache, and makes no verify pass (every page
  /// read is CRC-checked anyway). An empty or out-of-range column list
  /// is InvalidArgument.
  Result<std::unique_ptr<PagedTable>> Project(
      const std::vector<size_t>& cols) const;

  ~PagedTable();
  PagedTable(const PagedTable&) = delete;
  PagedTable& operator=(const PagedTable&) = delete;

  const Schema& schema() const { return schema_; }
  size_t num_records() const { return num_rows_; }
  size_t num_attributes() const { return schema_.num_attributes(); }
  size_t page_rows() const { return page_rows_; }
  /// Maximum resident pages (Options::page_budget, clamped to >= 1).
  size_t page_budget() const { return opts_.page_budget; }
  /// Pages per column (== row groups).
  size_t num_groups() const { return num_groups_; }
  const std::string& path() const { return path_; }

  /// Footer min/max of a column, accumulated in ascending row order at
  /// write time (bitwise equal to Table::AttributeMin/Max).
  double attribute_min(size_t attr) const { return col_min_[attr]; }
  double attribute_max(size_t attr) const { return col_max_[attr]; }

  /// One cell through the page cache.
  Result<double> ValueAt(size_t record, size_t attr) const;

  /// Dense raw-cell gather: m x num_attributes, row i = record
  /// rows[i]. Work proceeds column by column through the cache.
  Result<Matrix> GatherRows(const std::vector<size_t>& rows) const;

  /// Streams column values for records [begin, end) into `out`
  /// (caller provides end - begin doubles). Bypasses the cache.
  Status ScanColumn(size_t attr, size_t begin, size_t end,
                    double* out) const;

  /// Reads one page (row group `group` of column `col`) from the file,
  /// verifying its CRC, into `out`. Bypasses the cache. After an
  /// error the contents of `out` are unspecified.
  Status LoadPage(size_t group, size_t col, std::vector<double>* out) const;

  /// Pages read from the file so far, by any path: Open's verify pass,
  /// cache faults, scans and LoadPage.
  uint64_t page_loads() const { return page_loads_; }

  /// Full materialization (tests / small tables).
  Result<Table> ToTable() const;

  /// Sequentially re-verifies the CRC of every page this table exposes
  /// (what Open's verify pass runs). Returns the first corruption found.
  Status VerifyAllPages() const;

  const CacheStats& cache_stats() const { return stats_; }
  size_t resident_pages() const { return lru_.size(); }

 private:
  PagedTable() = default;

  size_t GroupRows(size_t group) const;
  uint64_t PageOffset(size_t group, size_t file_col) const;
  /// Cache lookup / fault. Returns the resident payload.
  Result<const std::vector<double>*> FaultPage(size_t group,
                                               size_t col) const;
  Status ReadBytes(uint64_t offset, size_t len, void* out) const;

  std::string path_;
  Schema schema_;
  size_t num_rows_ = 0;
  size_t num_cols_ = 0;        // columns in the file (page layout)
  std::vector<size_t> cols_;   // exposed column -> column in the file
  size_t page_rows_ = 0;
  size_t num_groups_ = 0;
  std::vector<double> col_min_, col_max_;
  Options opts_;

  int fd_ = -1;
  uint64_t file_size_ = 0;

  // LRU page cache: key = group * exposed columns + exposed column.
  struct CacheEntry {
    uint64_t key;
    std::vector<double> values;
  };
  mutable std::list<CacheEntry> lru_;  // front = most recently used
  mutable std::unordered_map<uint64_t, std::list<CacheEntry>::iterator>
      cache_;
  mutable CacheStats stats_;
  mutable uint64_t page_loads_ = 0;
};

}  // namespace daisy::data

#endif  // DAISY_DATA_COLUMNAR_H_
