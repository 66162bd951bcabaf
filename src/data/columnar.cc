#include "data/columnar.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "core/serial.h"
#include "data/csv.h"

#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "daisy-dcol-v1 stores pages as host-endian doubles and is "
              "only supported on little-endian targets");
#endif

namespace daisy::data {

namespace {

constexpr char kMagic[16] = {'d', 'a', 'i', 's', 'y', '-', 'd', 'c',
                             'o', 'l', '-', 'v', '1', '\n', 0, 0};
constexpr char kEndMagic[8] = {'d', 'c', 'o', 'l', 'e', 'n', 'd', '\n'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderLen = 48;
constexpr size_t kPostscriptLen = 24;
constexpr char kFooterTag[] = "daisy-dcol-footer-v1";

void PutU32(unsigned char* p, uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void PutU64(unsigned char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

uint32_t GetU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// 48-byte header for the given shape (see columnar.h for the layout).
void EncodeHeader(uint32_t num_cols, uint64_t num_rows, uint64_t page_rows,
                  unsigned char out[kHeaderLen]) {
  std::memset(out, 0, kHeaderLen);
  std::memcpy(out, kMagic, sizeof(kMagic));
  PutU32(out + 16, kVersion);
  PutU32(out + 20, num_cols);
  PutU64(out + 24, num_rows);
  PutU64(out + 32, page_rows);
  PutU32(out + 40, 0);  // reserved
  PutU32(out + 44, Crc32(out, 44));
}

size_t PageBytes(size_t rows) { return rows * sizeof(double) + 8; }

// Bytes occupied by all row groups of an (num_rows, page_rows) table.
uint64_t DataBytes(uint64_t num_rows, uint64_t page_rows, uint32_t num_cols) {
  const uint64_t full = num_rows / page_rows;
  const uint64_t rem = num_rows % page_rows;
  uint64_t total = full * num_cols * PageBytes(page_rows);
  if (rem) total += num_cols * PageBytes(rem);
  return total;
}

std::string FooterPayload(const Schema& schema, uint64_t num_rows,
                          uint64_t page_rows,
                          const std::vector<double>& col_min,
                          const std::vector<double>& col_max) {
  std::ostringstream os;
  Serializer out(&os);
  out.WriteTag(kFooterTag);
  out.WriteU64(schema.num_attributes());
  out.WriteU64(num_rows);
  out.WriteU64(page_rows);
  out.WriteTag("schema");
  for (const Attribute& a : schema.attributes()) {
    out.WriteString(a.name);
    out.WriteU64(a.is_categorical() ? 1 : 0);
    if (a.is_categorical()) {
      out.WriteU64(a.categories.size());
      for (const std::string& c : a.categories) out.WriteString(c);
    }
  }
  out.WriteU64(schema.has_label() ? 1 : 0);
  out.WriteU64(schema.has_label() ? schema.label_index() : 0);
  out.WriteTag("stats");
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    out.WriteDouble(col_min[j]);
    out.WriteDouble(col_max[j]);
  }
  out.WriteTag("end");
  return os.str();
}

struct ParsedFooter {
  Schema schema;
  uint64_t num_rows = 0;
  uint64_t page_rows = 0;
  std::vector<double> col_min, col_max;
};

Result<ParsedFooter> ParseFooter(const std::string& payload) {
  std::istringstream is(payload);
  Deserializer in(&is);
  ParsedFooter f;
  in.ExpectTag(kFooterTag);
  const uint64_t num_cols = in.ReadU64();
  f.num_rows = in.ReadU64();
  f.page_rows = in.ReadU64();
  if (!in.ok())
    return Status::InvalidArgument("dcol footer: " + in.error());
  if (num_cols == 0 || num_cols > (1u << 20))
    return Status::InvalidArgument("dcol footer: implausible column count");
  in.ExpectTag("schema");
  std::vector<Attribute> attrs;
  attrs.reserve(num_cols);
  for (uint64_t j = 0; j < num_cols && in.ok(); ++j) {
    const std::string name = in.ReadString();
    const uint64_t categorical = in.ReadU64();
    if (categorical > 1) {
      in.Fail("bad attribute type");
      break;
    }
    if (categorical) {
      const uint64_t n = in.ReadU64();
      if (!in.ok() || n > (1u << 24)) {
        in.Fail("implausible category count");
        break;
      }
      std::vector<std::string> cats(n);
      for (uint64_t c = 0; c < n && in.ok(); ++c) cats[c] = in.ReadString();
      attrs.push_back(Attribute::Categorical(name, std::move(cats)));
    } else {
      attrs.push_back(Attribute::Numerical(name));
    }
  }
  const uint64_t has_label = in.ReadU64();
  const uint64_t label_index = in.ReadU64();
  in.ExpectTag("stats");
  f.col_min.resize(num_cols);
  f.col_max.resize(num_cols);
  for (uint64_t j = 0; j < num_cols && in.ok(); ++j) {
    f.col_min[j] = in.ReadDouble();
    f.col_max[j] = in.ReadDouble();
  }
  in.ExpectTag("end");
  if (!in.ok())
    return Status::InvalidArgument("dcol footer: " + in.error());
  if (has_label > 1 || (has_label && label_index >= num_cols))
    return Status::InvalidArgument("dcol footer: bad label index");
  if (has_label && !attrs[label_index].is_categorical())
    return Status::InvalidArgument("dcol footer: label must be categorical");
  f.schema = Schema(std::move(attrs),
                    has_label ? static_cast<int>(label_index) : -1);
  return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// ColumnarWriter

ColumnarWriter::ColumnarWriter(Schema schema, size_t page_rows)
    : schema_(std::move(schema)), page_rows_(std::max<size_t>(1, page_rows)) {
  const size_t cols = schema_.num_attributes();
  group_.resize(cols);
  for (auto& col : group_) col.resize(page_rows_);
  col_min_.assign(cols, 0.0);
  col_max_.assign(cols, 0.0);
}

Result<std::unique_ptr<ColumnarWriter>> ColumnarWriter::Create(
    const std::string& path, const Schema& schema, size_t page_rows) {
  if (schema.num_attributes() == 0)
    return Status::InvalidArgument("dcol: schema has no attributes");
  std::unique_ptr<ColumnarWriter> w(new ColumnarWriter(schema, page_rows));
  DAISY_RETURN_IF_ERROR(w->file_.Open(path));
  // Placeholder header; Finish rewrites it with the final row count.
  unsigned char header[kHeaderLen];
  EncodeHeader(static_cast<uint32_t>(schema.num_attributes()), 0,
               w->page_rows_, header);
  DAISY_RETURN_IF_ERROR(w->file_.Write(header, kHeaderLen));
  return w;
}

Status ColumnarWriter::Append(const std::vector<double>& values) {
  if (!file_.is_open())
    return Status::FailedPrecondition("dcol writer is not open");
  if (values.size() != schema_.num_attributes())
    return Status::InvalidArgument("dcol append: record width mismatch");
  for (size_t j = 0; j < values.size(); ++j) {
    const Attribute& a = schema_.attribute(j);
    if (a.is_categorical()) {
      const long long idx = std::llround(values[j]);
      if (idx < 0 || idx >= static_cast<long long>(a.domain_size()))
        return Status::InvalidArgument("dcol append: category index out of "
                                       "domain in column '" +
                                       a.name + "'");
    }
    // Same accumulation as Table::AttributeMin/Max: seed from row 0,
    // then fold with std::min/max in ascending row order.
    if (rows_written_ == 0) {
      col_min_[j] = values[j];
      col_max_[j] = values[j];
    } else {
      col_min_[j] = std::min(col_min_[j], values[j]);
      col_max_[j] = std::max(col_max_[j], values[j]);
    }
  }
  for (size_t j = 0; j < values.size(); ++j) group_[j][buffered_] = values[j];
  ++buffered_;
  ++rows_written_;
  if (buffered_ == page_rows_) return FlushGroup();
  return Status::OK();
}

Status ColumnarWriter::FlushGroup() {
  if (buffered_ == 0) return Status::OK();
  std::vector<unsigned char> page(PageBytes(buffered_));
  for (size_t j = 0; j < group_.size(); ++j) {
    const size_t payload = buffered_ * sizeof(double);
    std::memcpy(page.data(), group_[j].data(), payload);
    PutU32(page.data() + payload, Crc32(page.data(), payload));
    PutU32(page.data() + payload + 4, 0);  // alignment pad
    DAISY_RETURN_IF_ERROR(file_.Write(page.data(), page.size()));
  }
  buffered_ = 0;
  return Status::OK();
}

Status ColumnarWriter::Finish() {
  if (!file_.is_open())
    return Status::FailedPrecondition("dcol writer is not open");
  DAISY_RETURN_IF_ERROR(FlushGroup());
  const std::string footer =
      FooterPayload(schema_, rows_written_, page_rows_, col_min_, col_max_);
  unsigned char post[kPostscriptLen];
  PutU64(post, footer.size());
  PutU64(post + 8, Fnv1a64(footer.data(), footer.size()));
  std::memcpy(post + 16, kEndMagic, sizeof(kEndMagic));
  unsigned char header[kHeaderLen];
  EncodeHeader(static_cast<uint32_t>(schema_.num_attributes()), rows_written_,
               page_rows_, header);
  DAISY_RETURN_IF_ERROR(file_.Write(footer.data(), footer.size()));
  DAISY_RETURN_IF_ERROR(file_.Write(post, kPostscriptLen));
  DAISY_RETURN_IF_ERROR(file_.Seek(0));
  DAISY_RETURN_IF_ERROR(file_.Write(header, kHeaderLen));
  return file_.Commit();
}

Status WriteColumnar(const Table& table, const std::string& path,
                     size_t page_rows) {
  auto writer = ColumnarWriter::Create(path, table.schema(), page_rows);
  if (!writer.ok()) return writer.status();
  std::vector<double> values(table.num_attributes());
  for (size_t i = 0; i < table.num_records(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) values[j] = table.value(i, j);
    DAISY_RETURN_IF_ERROR(writer.value()->Append(values));
  }
  return writer.value()->Finish();
}

// ---------------------------------------------------------------------------
// CSV -> dcol conversion (bounded memory: every pass re-scans the file)

Status ConvertCsvToColumnar(const std::string& csv_path,
                            const std::string& dcol_path,
                            const std::string& label_column,
                            size_t page_rows) {
  CsvStreamReader reader;
  const CsvRecords scan = [&](const auto& visit) {
    DAISY_RETURN_IF_ERROR(reader.Open(csv_path));
    std::vector<std::string> fields;
    bool got = false;
    for (;;) {
      DAISY_RETURN_IF_ERROR(reader.Next(&fields, &got));
      if (!got) return Status::OK();
      DAISY_RETURN_IF_ERROR(visit(fields));
    }
  };
  DAISY_RETURN_IF_ERROR(reader.Open(csv_path));
  auto typing = CsvTyping::Infer(reader.header(), label_column, scan);
  if (!typing.ok()) return typing.status();

  auto writer =
      ColumnarWriter::Create(dcol_path, typing.value().schema(), page_rows);
  if (!writer.ok()) return writer.status();
  std::vector<double> values;
  const auto append = [&](const std::vector<std::string>& fields) {
    DAISY_RETURN_IF_ERROR(typing.value().Encode(fields, &values));
    return writer.value()->Append(values);
  };
  DAISY_RETURN_IF_ERROR(scan(append));
  return writer.value()->Finish();
}

// ---------------------------------------------------------------------------
// PagedTable

Result<std::unique_ptr<PagedTable>> PagedTable::Open(const std::string& path,
                                                     const Options& options) {
  std::unique_ptr<PagedTable> t(new PagedTable());
  t->path_ = path;
  t->opts_ = options;
  t->opts_.page_budget = std::max<size_t>(1, t->opts_.page_budget);

  t->fd_ = ::open(path.c_str(), O_RDONLY);
  if (t->fd_ < 0) return Status::NotFound("cannot open dcol file '" + path + "'");
  struct stat sb;
  if (::fstat(t->fd_, &sb) != 0)
    return Status::IOError("cannot stat dcol file '" + path + "'");
  t->file_size_ = static_cast<uint64_t>(sb.st_size);

  if (t->file_size_ < kHeaderLen + kPostscriptLen)
    return Status::InvalidArgument("dcol file too short (truncated?): " +
                                   path);

  unsigned char header[kHeaderLen];
  DAISY_RETURN_IF_ERROR(t->ReadBytes(0, kHeaderLen, header));
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
    return Status::InvalidArgument("not a dcol file (bad magic): " + path);
  if (GetU32(header + 44) != Crc32(header, 44))
    return Status::InvalidArgument("dcol header checksum mismatch: " + path);
  if (GetU32(header + 16) != kVersion)
    return Status::InvalidArgument("unsupported dcol version in " + path);
  t->num_cols_ = GetU32(header + 20);
  t->num_rows_ = GetU64(header + 24);
  t->page_rows_ = static_cast<size_t>(GetU64(header + 32));
  if (t->num_cols_ == 0 || t->page_rows_ == 0)
    return Status::InvalidArgument("dcol header has empty shape: " + path);
  t->num_groups_ = (t->num_rows_ + t->page_rows_ - 1) / t->page_rows_;

  const uint64_t data_bytes =
      DataBytes(t->num_rows_, t->page_rows_, t->num_cols_);

  unsigned char post[kPostscriptLen];
  DAISY_RETURN_IF_ERROR(t->ReadBytes(t->file_size_ - kPostscriptLen,
                                     kPostscriptLen, post));
  if (std::memcmp(post + 16, kEndMagic, sizeof(kEndMagic)) != 0)
    return Status::InvalidArgument("dcol end marker missing (truncated?): " +
                                   path);
  const uint64_t footer_len = GetU64(post);
  const uint64_t footer_fnv = GetU64(post + 8);
  // Exact size accounting: any truncation or extension of the page
  // area shifts this equation even before page CRCs are consulted.
  if (t->file_size_ !=
      kHeaderLen + data_bytes + footer_len + kPostscriptLen)
    return Status::InvalidArgument("dcol size mismatch (corrupt): " + path);

  std::string footer(footer_len, '\0');
  DAISY_RETURN_IF_ERROR(
      t->ReadBytes(kHeaderLen + data_bytes, footer_len, footer.data()));
  if (Fnv1a64(footer.data(), footer.size()) != footer_fnv)
    return Status::InvalidArgument("dcol footer checksum mismatch: " + path);
  auto parsed = ParseFooter(footer);
  if (!parsed.ok()) return parsed.status();
  ParsedFooter& f = parsed.value();
  if (f.num_rows != t->num_rows_ || f.page_rows != t->page_rows_ ||
      f.schema.num_attributes() != t->num_cols_)
    return Status::InvalidArgument("dcol footer disagrees with header: " +
                                   path);
  t->schema_ = std::move(f.schema);
  t->col_min_ = std::move(f.col_min);
  t->col_max_ = std::move(f.col_max);
  t->cols_.resize(t->num_cols_);
  for (size_t c = 0; c < t->num_cols_; ++c) t->cols_[c] = c;

  if (options.verify) DAISY_RETURN_IF_ERROR(t->VerifyAllPages());
  return t;
}

Result<std::unique_ptr<PagedTable>> PagedTable::Project(
    const std::vector<size_t>& cols) const {
  if (cols.empty())
    return Status::InvalidArgument("dcol projection needs a column");
  for (size_t c : cols)
    if (c >= cols_.size())
      return Status::InvalidArgument("dcol projection column " +
                                     std::to_string(c) + " out of range");
  std::unique_ptr<PagedTable> t(new PagedTable());
  t->path_ = path_;
  t->schema_ = ProjectSchema(schema_, cols);
  t->num_rows_ = num_rows_;
  t->num_cols_ = num_cols_;
  t->page_rows_ = page_rows_;
  t->num_groups_ = num_groups_;
  t->opts_ = opts_;
  t->file_size_ = file_size_;
  for (size_t c : cols) {
    t->cols_.push_back(cols_[c]);
    t->col_min_.push_back(col_min_[c]);
    t->col_max_.push_back(col_max_[c]);
  }
  t->fd_ = ::dup(fd_);
  if (t->fd_ < 0)
    return Status::IOError("cannot duplicate dcol descriptor: " + path_);
  return t;
}

PagedTable::~PagedTable() {
  if (fd_ >= 0) ::close(fd_);
}

size_t PagedTable::GroupRows(size_t group) const {
  DAISY_CHECK(group < num_groups_);
  const size_t rem = num_rows_ % page_rows_;
  return (group + 1 == num_groups_ && rem != 0) ? rem : page_rows_;
}

uint64_t PagedTable::PageOffset(size_t group, size_t file_col) const {
  // All groups before `group` are full.
  return kHeaderLen +
         static_cast<uint64_t>(group) * num_cols_ * PageBytes(page_rows_) +
         static_cast<uint64_t>(file_col) * PageBytes(GroupRows(group));
}

Status PagedTable::ReadBytes(uint64_t offset, size_t len, void* out) const {
  if (len == 0) return Status::OK();
  if (offset + len > file_size_)
    return Status::InvalidArgument("dcol read past end of file: " + path_);
  // A file shrunk under an open table reads short here (pread returns
  // 0 past the new end), which comes back as a Status, never a signal.
  char* dst = static_cast<char*>(out);
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, dst + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n <= 0) return Status::IOError("dcol pread failed: " + path_);
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PagedTable::LoadPage(size_t group, size_t col,
                            std::vector<double>* out) const {
  if (group >= num_groups_ || col >= cols_.size())
    return Status::InvalidArgument("dcol page out of range");
  ++page_loads_;
  const size_t rows = GroupRows(group);
  const size_t payload = rows * sizeof(double);
  // The page is read in place: its 8-byte CRC + pad trailer lands in
  // one extra double that is dropped once checked.
  out->resize(rows + 1);
  const auto* buf = reinterpret_cast<const unsigned char*>(out->data());
  DAISY_RETURN_IF_ERROR(
      ReadBytes(PageOffset(group, cols_[col]), PageBytes(rows), out->data()));
  if (GetU32(buf + payload) != Crc32(buf, payload))
    return Status::InvalidArgument(
        "dcol page checksum mismatch (column " + std::to_string(col) +
        ", page " + std::to_string(group) + "): " + path_);
  // The alignment pad is written as zero; anything else is corruption
  // (it is the one page region the CRC does not cover).
  if (GetU32(buf + payload + 4) != 0)
    return Status::InvalidArgument(
        "dcol page pad corrupted (column " + std::to_string(col) +
        ", page " + std::to_string(group) + "): " + path_);
  out->resize(rows);
  return Status::OK();
}

Result<const std::vector<double>*> PagedTable::FaultPage(size_t group,
                                                         size_t col) const {
  const uint64_t key = static_cast<uint64_t>(group) * cols_.size() + col;
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return static_cast<const std::vector<double>*>(&it->second->values);
  }
  ++stats_.misses;
  std::vector<double> values;
  DAISY_RETURN_IF_ERROR(LoadPage(group, col, &values));
  while (lru_.size() >= opts_.page_budget) {
    cache_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(CacheEntry{key, std::move(values)});
  cache_[key] = lru_.begin();
  return static_cast<const std::vector<double>*>(&lru_.front().values);
}

Result<double> PagedTable::ValueAt(size_t record, size_t attr) const {
  if (record >= num_rows_ || attr >= cols_.size())
    return Status::InvalidArgument("dcol cell index out of range");
  auto page = FaultPage(record / page_rows_, attr);
  if (!page.ok()) return page.status();
  return (*page.value())[record % page_rows_];
}

Result<Matrix> PagedTable::GatherRows(const std::vector<size_t>& rows) const {
  Matrix out(rows.size(), cols_.size());
  std::map<size_t, std::vector<size_t>> by_group;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= num_rows_)
      return Status::InvalidArgument("dcol record index out of range");
    by_group[rows[i] / page_rows_].push_back(i);
  }
  for (size_t col = 0; col < cols_.size(); ++col) {
    for (const auto& [group, idxs] : by_group) {
      auto page = FaultPage(group, col);
      if (!page.ok()) return page.status();
      const std::vector<double>& values = *page.value();
      for (size_t i : idxs)
        out(i, col) = values[rows[i] - group * page_rows_];
    }
  }
  return out;
}

Status PagedTable::ScanColumn(size_t attr, size_t begin, size_t end,
                              double* out) const {
  if (attr >= cols_.size() || begin > end || end > num_rows_)
    return Status::InvalidArgument("dcol scan range out of range");
  std::vector<double> page;
  for (size_t group = begin / page_rows_; begin < end; ++group) {
    DAISY_RETURN_IF_ERROR(LoadPage(group, attr, &page));
    const size_t group_begin = group * page_rows_;
    const size_t take = std::min(end, group_begin + GroupRows(group)) - begin;
    std::memcpy(out, page.data() + (begin - group_begin),
                take * sizeof(double));
    out += take;
    begin += take;
  }
  return Status::OK();
}

Result<Table> PagedTable::ToTable() const {
  Table table(schema_);
  table.Reserve(num_rows_);
  const size_t width = cols_.size();
  std::vector<std::vector<double>> pages(width);
  std::vector<double> values(width);
  for (size_t group = 0; group < num_groups_; ++group) {
    for (size_t col = 0; col < width; ++col)
      DAISY_RETURN_IF_ERROR(LoadPage(group, col, &pages[col]));
    const size_t rows = GroupRows(group);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t col = 0; col < width; ++col) values[col] = pages[col][r];
      table.AppendRecord(values);
    }
  }
  return table;
}

Status PagedTable::VerifyAllPages() const {
  std::vector<double> page;
  for (size_t group = 0; group < num_groups_; ++group)
    for (size_t col = 0; col < cols_.size(); ++col)
      DAISY_RETURN_IF_ERROR(LoadPage(group, col, &page));
  return Status::OK();
}

}  // namespace daisy::data
