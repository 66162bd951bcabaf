#include "data/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace daisy::data {

namespace {

// RFC-4180 record parsing: inside a quoted section a doubled quote
// ("") is an escaped literal quote, a single quote closes the section,
// and a line break is part of the field — a record may span several
// physical lines. A quote left open at end of file is an error.
// On success sets *got to whether a record was read (false = clean
// EOF); blank physical lines between records are skipped.
Status ParseRecord(std::istream& in, std::vector<std::string>* fields,
                   bool* got) {
  fields->clear();
  *got = false;
  std::string line;
  bool had_cr = false;
  // CRLF terminators: strip the '\r' at record boundaries (it is part
  // of the line ending, not of the last field).
  const auto next_line = [&in, &line, &had_cr] {
    if (!std::getline(in, line)) return false;
    had_cr = !line.empty() && line.back() == '\r';
    if (had_cr) line.pop_back();
    return true;
  };
  do {
    if (!next_line()) return Status::OK();  // clean EOF
  } while (line.empty());

  std::string field;
  bool in_quotes = false;
  for (;;) {
    for (size_t i = 0; i < line.size(); ++i) {
      const char ch = line[i];
      if (in_quotes) {
        if (ch == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            field.push_back('"');
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          field.push_back(ch);
        }
      } else if (ch == '"') {
        in_quotes = true;
      } else if (ch == ',') {
        fields->push_back(std::move(field));
        field.clear();
      } else {
        field.push_back(ch);
      }
    }
    if (!in_quotes) break;
    // The open quote swallows the line break: the field continues on
    // the next physical line. Inside quotes a stripped '\r' was cell
    // content (a quoted CRLF), so restore it.
    if (had_cr) field.push_back('\r');
    if (!next_line())
      return Status::InvalidArgument("unterminated quote in csv record");
    field.push_back('\n');
  }
  fields->push_back(std::move(field));
  *got = true;
  return Status::OK();
}

// Reads the header record for ReadCsv and CsvStreamReader alike, so the
// two refuse the same headers: none at all, or a name given twice
// (which column the label, or any lookup by name, meant is unknowable).
Status ParseHeader(std::istream& in, const std::string& path,
                   std::vector<std::string>* header) {
  bool got = false;
  DAISY_RETURN_IF_ERROR(ParseRecord(in, header, &got));
  if (!got) return Status::InvalidArgument("empty csv: " + path);
  std::set<std::string> seen;
  for (const std::string& name : *header)
    if (!seen.insert(name).second)
      return Status::InvalidArgument("duplicate column name '" + name +
                                     "' in csv header: " + path);
  return Status::OK();
}

}  // namespace

std::string EscapeCsvField(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += "\"\"";
    else out.push_back(ch);
  }
  out += "\"";
  return out;
}

bool ParseCsvNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

namespace {

bool ParseDouble(const std::string& s, double* out) {
  return ParseCsvNumber(s, out);
}

}  // namespace

Status CsvStreamReader::Open(const std::string& path) {
  if (in_.is_open()) in_.close();
  in_.clear();
  in_.open(path);
  if (!in_) return Status::IOError("cannot open for read: " + path);
  path_ = path;
  rows_read_ = 0;
  return ParseHeader(in_, path, &header_);
}

Status CsvStreamReader::Next(std::vector<std::string>* fields, bool* got) {
  if (!in_.is_open())
    return Status::FailedPrecondition("csv stream reader is not open");
  DAISY_RETURN_IF_ERROR(ParseRecord(in_, fields, got));
  if (!*got) return Status::OK();
  if (fields->size() != header_.size())
    return Status::InvalidArgument("ragged row in csv: " + path_);
  ++rows_read_;
  return Status::OK();
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  const Schema& schema = table.schema();
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    if (j) out << ',';
    out << EscapeCsvField(schema.attribute(j).name);
  }
  out << '\n';
  for (size_t i = 0; i < table.num_records(); ++i) {
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      if (j) out << ',';
      out << EscapeCsvField(table.CellToString(i, j));
    }
    out << '\n';
  }
  // The last buffered rows reach the file only at close; check after it.
  out.close();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Table> ReadCsv(const std::string& path,
                      const std::string& label_column) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);

  std::vector<std::string> header;
  DAISY_RETURN_IF_ERROR(ParseHeader(in, path, &header));
  const size_t m = header.size();

  std::vector<std::vector<std::string>> raw;  // rows of string fields
  bool got = false;
  for (;;) {
    std::vector<std::string> fields;
    if (Status st = ParseRecord(in, &fields, &got); !st.ok()) return st;
    if (!got) break;
    if (fields.size() != m)
      return Status::InvalidArgument("ragged row in csv: " + path);
    raw.push_back(std::move(fields));
  }

  // Infer per-column type.
  std::vector<bool> numeric(m, true);
  for (const auto& row : raw) {
    for (size_t j = 0; j < m; ++j) {
      double tmp;
      if (numeric[j] && !ParseDouble(row[j], &tmp)) numeric[j] = false;
    }
  }

  std::vector<Attribute> attrs(m);
  std::vector<std::map<std::string, size_t>> cat_index(m);
  for (size_t j = 0; j < m; ++j) {
    if (numeric[j] && header[j] != label_column) {
      attrs[j] = Attribute::Numerical(header[j]);
    } else {
      // Categorical: collect distinct values in first-seen order.
      std::vector<std::string> cats;
      for (const auto& row : raw) {
        if (cat_index[j].emplace(row[j], cats.size()).second)
          cats.push_back(row[j]);
      }
      attrs[j] = Attribute::Categorical(header[j], std::move(cats));
    }
  }

  int label_index = -1;
  if (!label_column.empty()) {
    for (size_t j = 0; j < m; ++j)
      if (header[j] == label_column) label_index = static_cast<int>(j);
    if (label_index < 0)
      return Status::NotFound("label column not in csv: " + label_column);
  }

  Table table(Schema(std::move(attrs), label_index));
  std::vector<double> values(m);
  for (const auto& row : raw) {
    for (size_t j = 0; j < m; ++j) {
      if (table.schema().attribute(j).is_categorical()) {
        values[j] = static_cast<double>(cat_index[j][row[j]]);
      } else {
        double v = 0.0;
        ParseDouble(row[j], &v);
        values[j] = v;
      }
    }
    table.AppendRecord(values);
  }
  return table;
}

}  // namespace daisy::data
