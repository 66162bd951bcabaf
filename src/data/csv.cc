#include "data/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>

#include "core/format.h"

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

// Strict numeric parse: the whole non-empty field must be consumed by
// strtod, with no range error. strtod also takes nan and inf; the typing
// rule refuses those in a numerical column.
bool ParseCsvNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

void AppendCsvField(const std::string& s, std::string* out) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    *out += s;
    return;
  }
  out->push_back('"');
  for (char ch : s) {
    if (ch == '"') out->push_back('"');
    out->push_back(ch);
  }
  out->push_back('"');
}

// The one row encoder (CsvRows, WriteCsv). Each cell is written in
// place, as CellToString renders it: a number needs no escaping, since
// "%g" text never holds a comma, quote, CR or LF.
void AppendCsvRow(const Table& table, size_t i, std::string* out) {
  const Schema& schema = table.schema();
  for (size_t j = 0; j < table.num_attributes(); ++j) {
    if (j) out->push_back(',');
    const Attribute& a = schema.attribute(j);
    if (a.is_categorical())
      AppendCsvField(a.categories[table.category(i, j)], out);
    else
      AppendG(table.value(i, j), kTextDigits, out);
  }
  out->push_back('\n');
}

}  // namespace

Status CsvStreamReader::Open(const std::string& path) {
  if (in_.is_open()) in_.close();
  in_.clear();
  in_.open(path);
  if (!in_) return Status::IOError("cannot open for read: " + path);
  path_ = path;
  bool got = false;
  DAISY_RETURN_IF_ERROR(ParseRecord(in_, &header_, &got));
  if (!got) return Status::InvalidArgument("empty csv: " + path);
  // A name given twice makes the label, or any lookup by name, ambiguous.
  std::set<std::string> seen;
  for (const std::string& name : header_)
    if (!seen.insert(name).second)
      return Status::InvalidArgument("duplicate column name '" + name +
                                     "' in csv header: " + path);
  return Status::OK();
}

Status CsvStreamReader::Next(std::vector<std::string>* fields, bool* got) {
  if (!in_.is_open())
    return Status::FailedPrecondition("csv stream reader is not open");
  DAISY_RETURN_IF_ERROR(ParseRecord(in_, fields, got));
  if (!*got) return Status::OK();
  if (fields->size() != header_.size())
    return Status::InvalidArgument("ragged row in csv: " + path_);
  return Status::OK();
}

Result<CsvTyping> CsvTyping::Infer(const std::vector<std::string>& header,
                                   const std::string& label_column,
                                   const CsvRecords& records) {
  const size_t m = header.size();
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<bool> numeric(m, true);
  std::vector<size_t> first_non_finite(m, kNone);  // 1-based data row
  size_t row = 0;
  const auto type_cells = [&](const std::vector<std::string>& fields) {
    ++row;
    for (size_t j = 0; j < m; ++j) {
      if (!numeric[j]) continue;
      double v = 0.0;
      if (!ParseCsvNumber(fields[j], &v))
        numeric[j] = false;
      else if (!std::isfinite(v) && first_non_finite[j] == kNone)
        first_non_finite[j] = row;
    }
    return Status::OK();
  };
  DAISY_RETURN_IF_ERROR(records(type_cells));

  int label_index = -1;
  if (!label_column.empty()) {
    for (size_t j = 0; j < m; ++j)
      if (header[j] == label_column) label_index = static_cast<int>(j);
    if (label_index < 0)
      return Status::NotFound("label column not in csv: " + label_column);
  }
  std::vector<bool> categorical(m);
  bool any_categorical = false;
  for (size_t j = 0; j < m; ++j) {
    categorical[j] = !numeric[j] || static_cast<int>(j) == label_index;
    any_categorical |= categorical[j];
    if (!categorical[j] && first_non_finite[j] != kNone)
      return Status::InvalidArgument(
          "non-finite number in numeric csv column '" + header[j] +
          "' at data row " + std::to_string(first_non_finite[j]));
  }

  CsvTyping typing;
  typing.cat_index_.resize(m);
  std::vector<std::vector<std::string>> cats(m);
  const auto collect_domains = [&](const std::vector<std::string>& fields) {
    for (size_t j = 0; j < m; ++j)
      if (categorical[j] &&
          typing.cat_index_[j].try_emplace(fields[j], cats[j].size()).second)
        cats[j].push_back(fields[j]);
    return Status::OK();
  };
  if (any_categorical) DAISY_RETURN_IF_ERROR(records(collect_domains));
  std::vector<Attribute> attrs(m);
  for (size_t j = 0; j < m; ++j)
    attrs[j] = categorical[j]
                   ? Attribute::Categorical(header[j], std::move(cats[j]))
                   : Attribute::Numerical(header[j]);
  typing.schema_ = Schema(std::move(attrs), label_index);
  return typing;
}

Status CsvTyping::Encode(const std::vector<std::string>& fields,
                         std::vector<double>* values) const {
  values->resize(fields.size());
  for (size_t j = 0; j < fields.size(); ++j) {
    bool seen;
    if (schema_.attribute(j).is_categorical()) {
      const auto it = cat_index_[j].find(fields[j]);
      seen = it != cat_index_[j].end();
      if (seen) (*values)[j] = static_cast<double>(it->second);
    } else {
      seen = ParseCsvNumber(fields[j], &(*values)[j]) &&
             std::isfinite((*values)[j]);
    }
    if (!seen)
      return Status::InvalidArgument("csv cell '" + fields[j] +
                                     "' in column '" +
                                     schema_.attribute(j).name +
                                     "' was not seen when typing the file");
  }
  return Status::OK();
}

std::string EscapeCsvField(const std::string& s) {
  std::string out;
  AppendCsvField(s, &out);
  return out;
}

std::string CsvHeader(const Schema& schema) {
  std::string out;
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    if (j) out.push_back(',');
    AppendCsvField(schema.attribute(j).name, &out);
  }
  out.push_back('\n');
  return out;
}

std::string CsvRows(const Table& table) {
  std::string out;
  for (size_t i = 0; i < table.num_records(); ++i)
    AppendCsvRow(table, i, &out);
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << CsvHeader(table.schema());
  std::string line;
  for (size_t i = 0; i < table.num_records(); ++i) {
    line.clear();
    AppendCsvRow(table, i, &line);
    out << line;
  }
  // The last buffered rows reach the file only at close; check after it.
  out.close();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Table> ReadCsv(const std::string& path,
                      const std::string& label_column) {
  CsvStreamReader reader;
  DAISY_RETURN_IF_ERROR(reader.Open(path));
  std::vector<std::vector<std::string>> raw;  // rows of string fields
  for (;;) {
    std::vector<std::string> fields;
    bool got = false;
    DAISY_RETURN_IF_ERROR(reader.Next(&fields, &got));
    if (!got) break;
    raw.push_back(std::move(fields));
  }
  // Typing replays the rows held in memory; the file is read once.
  const CsvRecords replay = [&raw](const auto& visit) {
    for (const auto& row : raw) DAISY_RETURN_IF_ERROR(visit(row));
    return Status::OK();
  };
  auto typing = CsvTyping::Infer(reader.header(), label_column, replay);
  if (!typing.ok()) return typing.status();

  Table table(typing.value().schema());
  table.Reserve(raw.size());
  std::vector<double> values;
  for (const auto& row : raw) {
    DAISY_RETURN_IF_ERROR(typing.value().Encode(row, &values));
    table.AppendRecord(values);
  }
  return table;
}

}  // namespace daisy::data
