// CSV import/export for Table, with schema inference on read.
#ifndef DAISY_DATA_CSV_H_
#define DAISY_DATA_CSV_H_

#include <fstream>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/table.h"

namespace daisy::data {

/// Strict numeric parse used for CSV schema inference: the whole field
/// must be consumed by strtod and must be non-empty. Exposed so the
/// streaming CSV->dcol converter infers types byte-identically to
/// ReadCsv.
bool ParseCsvNumber(const std::string& s, double* out);

/// Record-at-a-time CSV reader: same RFC-4180 grammar as ReadCsv
/// (quoted fields, doubled quotes, CRLF line endings, fields spanning
/// physical lines) but holding only one record in memory, so
/// arbitrarily large files stream in bounded space. Open() consumes
/// the header row, and refuses the headers ReadCsv refuses; call Open()
/// again to rewind for another pass.
class CsvStreamReader {
 public:
  CsvStreamReader() = default;

  Status Open(const std::string& path);

  /// Header fields (valid after a successful Open).
  const std::vector<std::string>& header() const { return header_; }

  /// Reads the next data record. Sets *got = false on clean EOF.
  /// Ragged records (width != header width) are an error.
  Status Next(std::vector<std::string>* fields, bool* got);

  /// Data records returned by Next since the last Open.
  size_t rows_read() const { return rows_read_; }

 private:
  std::ifstream in_;
  std::string path_;
  std::vector<std::string> header_;
  size_t rows_read_ = 0;
};

/// RFC-4180 escaping for one cell: the field is quoted (with embedded
/// quotes doubled) when it contains a comma, quote, CR or LF. Exposed
/// so streaming writers (the serve CSV encoder) produce bytes identical
/// to WriteCsv.
std::string EscapeCsvField(const std::string& s);

/// Writes the table with a header row; categorical cells are written as
/// category names, numerics with full precision. Cells containing
/// delimiters, quotes or line breaks are quoted per RFC 4180, and
/// ReadCsv round-trips them (including embedded newlines).
Status WriteCsv(const Table& table, const std::string& path);

/// Reads a CSV with a header row. Columns where every value parses as a
/// number become numerical; everything else becomes categorical with
/// the observed distinct values as its domain. `label_column` (by name)
/// optionally designates the label; it must resolve to a categorical
/// column (pass "" for no label). A header that repeats a column name
/// is refused with InvalidArgument.
Result<Table> ReadCsv(const std::string& path,
                      const std::string& label_column = "");

}  // namespace daisy::data

#endif  // DAISY_DATA_CSV_H_
