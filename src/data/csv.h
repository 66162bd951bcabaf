// CSV import/export for Table, with schema inference on read.
#ifndef DAISY_DATA_CSV_H_
#define DAISY_DATA_CSV_H_

#include <fstream>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "data/table.h"

namespace daisy::data {

/// Record-at-a-time CSV reader for RFC-4180 files (quoted fields,
/// doubled quotes, CRLF line endings, fields spanning physical lines),
/// holding only one record in memory, so arbitrarily large files stream
/// in bounded space. Open() consumes the header row and refuses a file
/// with none, or a header that repeats a column name, with
/// InvalidArgument; call Open() again to rewind for another pass.
class CsvStreamReader {
 public:
  CsvStreamReader() = default;

  Status Open(const std::string& path);

  /// Header fields (valid after a successful Open).
  const std::vector<std::string>& header() const { return header_; }

  /// Reads the next data record. Sets *got = false on clean EOF.
  /// Ragged records (width != header width) are an error.
  Status Next(std::vector<std::string>* fields, bool* got);

 private:
  std::ifstream in_;
  std::string path_;
  std::vector<std::string> header_;
};

/// One pass over a CSV's data records in file order: calls `visit` on
/// each and returns the first error, of the read or of `visit`.
using CsvRecords = std::function<Status(
    const std::function<Status(const std::vector<std::string>&)>& visit)>;

/// The CSV typing rule, shared by ReadCsv and ConvertCsvToColumnar. A
/// column is numerical iff every cell parses as a number (strtod
/// consumes the whole, non-empty cell); the label column is
/// categorical even then. A categorical column's domain is its
/// distinct cells in first-seen order.
class CsvTyping {
 public:
  /// Runs `records` once for the column types and, when some column is
  /// categorical, once more for the domains. NotFound when
  /// `label_column` (non-empty) is not in `header`; InvalidArgument
  /// when a numerical column holds a non-finite number (nan, inf),
  /// naming the column and the first such data row (1-based).
  static Result<CsvTyping> Infer(const std::vector<std::string>& header,
                                 const std::string& label_column,
                                 const CsvRecords& records);

  const Schema& schema() const { return schema_; }

  /// One record's values: the category index of a categorical cell,
  /// the parsed number of a numerical one. InvalidArgument for a cell
  /// the typing passes did not see (the file changed between passes).
  Status Encode(const std::vector<std::string>& fields,
                std::vector<double>* values) const;

 private:
  Schema schema_;
  // Per column: category -> index (empty for numerical columns).
  std::vector<std::unordered_map<std::string, size_t>> cat_index_;
};

/// RFC-4180 escaping for one cell: the field is quoted (with embedded
/// quotes doubled) when it contains a comma, quote, CR or LF.
std::string EscapeCsvField(const std::string& s);

/// The header line (attribute names, escaped, trailing '\n').
std::string CsvHeader(const Schema& schema);

/// All rows of `table` as CSV lines (each with a trailing '\n'), each
/// cell as Table::CellToString renders it: categorical cells as category
/// names, escaped; numbers as printf "%g" prints them (6 significant
/// digits, through std::to_chars), which never needs escaping.
/// CsvHeader + CsvRows of a table, or of its consecutive chunks, is
/// WriteCsv's file byte for byte.
std::string CsvRows(const Table& table);

/// Writes CsvHeader and CsvRows of the table to `path`. ReadCsv reads
/// every category name back (embedded newlines included), and every
/// number as "%g" printed it (6 significant digits).
Status WriteCsv(const Table& table, const std::string& path);

/// Reads a CSV with a header row, typed by CsvTyping. `label_column`
/// (by name) optionally designates the label (pass "" for no label).
/// A header that repeats a column name is refused with InvalidArgument.
Result<Table> ReadCsv(const std::string& path,
                      const std::string& label_column = "");

}  // namespace daisy::data

#endif  // DAISY_DATA_CSV_H_
