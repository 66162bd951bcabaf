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

/// Converts a CSV file to .dcol with bounded memory: three streaming
/// passes (column types; categorical domains in first-seen order; cell
/// values into a ColumnarWriter). Schema inference matches ReadCsv
/// exactly — the resulting table is bitwise identical to
/// ReadCsv(csv_path, label_column).
Status ConvertCsvToColumnar(const std::string& csv_path,
                            const std::string& dcol_path,
                            const std::string& label_column,
                            size_t page_rows);

class PagedTable;

/// Streams the given columns of a paged table into a new .dcol at
/// `out_path` (same page_rows as the source), holding one window of
/// rows in memory. Cells move through ScanColumn in ascending row
/// order, so the output footer's per-column min/max is bitwise equal
/// to the in-memory ProjectColumns + WriteColumnar of the same table —
/// the projection the relational layer uses to strip key columns
/// without materializing an out-of-core table.
Status ProjectColumnar(const PagedTable& in, const std::vector<size_t>& cols,
                       const std::string& out_path);

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
    /// Map the file read-only and serve page faults by copy from the
    /// mapping instead of pread. Note mmap charges the whole file
    /// against the address space (ulimit -v); bounded-memory runs
    /// under an rlimit should disable it.
    bool use_mmap = true;
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

  ~PagedTable();
  PagedTable(const PagedTable&) = delete;
  PagedTable& operator=(const PagedTable&) = delete;

  const Schema& schema() const { return schema_; }
  size_t num_records() const { return num_rows_; }
  size_t num_attributes() const { return schema_.num_attributes(); }
  size_t page_rows() const { return page_rows_; }
  /// Pages per column (== row groups).
  size_t num_groups() const { return num_groups_; }
  const std::string& path() const { return path_; }

  /// Footer min/max of a column, accumulated in ascending row order at
  /// write time (bitwise equal to Table::AttributeMin/Max).
  double attribute_min(size_t attr) const { return col_min_[attr]; }
  double attribute_max(size_t attr) const { return col_max_[attr]; }

  /// One cell through the page cache.
  Result<double> ValueAt(size_t record, size_t attr) const;

  /// out[i] = cell(rows[i], attr). Faults each needed page at most
  /// once per call (accesses are bucketed by page), so the call is
  /// correct and efficient even with page_budget == 1.
  Status GatherColumn(size_t attr, const std::vector<size_t>& rows,
                      double* out) const;

  /// Dense raw-cell gather: m x num_attributes, row i = record
  /// rows[i]. Work proceeds column by column through the cache.
  Result<Matrix> GatherRows(const std::vector<size_t>& rows) const;

  /// Streams column values for records [begin, end) into `out`
  /// (caller provides end - begin doubles). Bypasses the cache.
  Status ScanColumn(size_t attr, size_t begin, size_t end,
                    double* out) const;

  /// Label (category index) per record, streamed from the label
  /// column. Requires schema().has_label().
  Result<std::vector<size_t>> ReadLabels() const;

  /// Full materialization (tests / small tables).
  Result<Table> ToTable() const;

  /// Sequentially re-verifies every page CRC (what Open's verify pass
  /// runs). Returns the first corruption found.
  Status VerifyAllPages() const;

  const CacheStats& cache_stats() const { return stats_; }
  size_t resident_pages() const { return lru_.size(); }

 private:
  PagedTable() = default;

  size_t GroupRows(size_t group) const;
  uint64_t PageOffset(size_t group, size_t col) const;
  /// Loads (verifying CRC) the page's doubles into `out`.
  Status LoadPage(size_t group, size_t col, std::vector<double>* out) const;
  /// Cache lookup / fault. Returns the resident payload.
  Result<const std::vector<double>*> FaultPage(size_t group,
                                               size_t col) const;
  Status ReadBytes(uint64_t offset, size_t len, void* out) const;

  std::string path_;
  Schema schema_;
  size_t num_rows_ = 0;
  size_t num_cols_ = 0;
  size_t page_rows_ = 0;
  size_t num_groups_ = 0;
  std::vector<double> col_min_, col_max_;
  Options opts_;

  int fd_ = -1;
  const unsigned char* map_ = nullptr;  // non-null iff mmap succeeded
  uint64_t file_size_ = 0;

  // LRU page cache: key = group * num_cols + col.
  struct CacheEntry {
    uint64_t key;
    std::vector<double> values;
  };
  mutable std::list<CacheEntry> lru_;  // front = most recently used
  mutable std::unordered_map<uint64_t, std::list<CacheEntry>::iterator>
      cache_;
  mutable CacheStats stats_;
};

}  // namespace daisy::data

#endif  // DAISY_DATA_COLUMNAR_H_
