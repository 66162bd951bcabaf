#include "obs/run_logger.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "core/durable.h"

namespace daisy::obs {

namespace {

// %.17g round-trips every double exactly.
void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendUnsigned(std::string* out, unsigned long long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", v);
  *out += buf;
}

void AppendString(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        // Remaining control characters would break the one-record-per-
        // line framing (and are invalid raw JSON); emit them \u-escaped.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

// Minimal scanner for the flat objects ToJsonLine emits.
class LineScanner {
 public:
  explicit LineScanner(const std::string& line) : s_(line) {}

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= s_.size();
  }

  bool ReadString(std::string* out) {
    SkipSpace();
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        c = s_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // \uXXXX; AppendString only emits codepoints < 0x20, so a
            // single byte suffices (no UTF-8 expansion needed here).
            if (pos_ + 4 > s_.size()) return false;
            unsigned v = 0;
            for (size_t i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                v |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (v > 0xFF) return false;  // beyond what we ever emit
            c = static_cast<char>(v);
            break;
          }
          default: break;  // \" and \\ (and anything else) literal
        }
      }
      *out += c;
    }
    if (pos_ >= s_.size()) return false;  // unterminated string
    ++pos_;                               // closing quote
    return true;
  }

  // Decimal unsigned integer; keeps uint64 values (e.g. seeds above
  // 2^53) exact instead of routing them through double.
  bool ReadUnsigned(unsigned long long* out) {
    SkipSpace();
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_])))
      return false;
    char* end = nullptr;
    *out = std::strtoull(s_.c_str() + pos_, &end, 10);
    if (end == s_.c_str() + pos_) return false;
    pos_ = static_cast<size_t>(end - s_.c_str());
    return true;
  }

  // Number or null (null -> NaN).
  bool ReadNumber(double* out) {
    SkipSpace();
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      *out = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return false;
    pos_ = static_cast<size_t>(end - s_.c_str());
    *out = v;
    return true;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

std::string ToJsonLine(const MetricRecord& r) {
  std::string out = "{\"run\":";
  AppendString(&out, r.run);
  auto field = [&out](const char* key, double v) {
    out += ",\"";
    out += key;
    out += "\":";
    AppendNumber(&out, v);
  };
  auto ufield = [&out](const char* key, unsigned long long v) {
    out += ",\"";
    out += key;
    out += "\":";
    AppendUnsigned(&out, v);
  };
  ufield("iter", r.iter);
  field("d_loss", r.d_loss);
  field("g_loss", r.g_loss);
  field("g_grad_norm", r.g_grad_norm);
  field("d_grad_norm", r.d_grad_norm);
  field("param_norm", r.param_norm);
  field("value", r.value);
  field("iter_ms", r.iter_ms);
  field("wall_ms", r.wall_ms);
  ufield("threads", r.threads);
  ufield("seed", r.seed);
  ufield("starved_labels", r.starved_labels);
  out += '}';
  return out;
}

Result<MetricRecord> ParseJsonLine(const std::string& line) {
  LineScanner scan(line);
  if (!scan.Consume('{'))
    return Status::InvalidArgument("JSONL record must start with '{'");

  MetricRecord r;
  bool first = true;
  while (!scan.Consume('}')) {
    if (!first && !scan.Consume(','))
      return Status::InvalidArgument("expected ',' between JSONL fields");
    first = false;
    std::string key;
    if (!scan.ReadString(&key) || !scan.Consume(':'))
      return Status::InvalidArgument("malformed JSONL key");
    // ReadString consumes nothing unless the value starts with '"', so
    // it doubles as a peek: string values (run, or unknown keys added
    // by future schema versions) take this branch, numbers fall through.
    std::string sval;
    if (scan.ReadString(&sval)) {
      if (key == "run") r.run = sval;
      continue;
    }
    if (key == "iter" || key == "threads" || key == "seed" ||
        key == "starved_labels") {
      unsigned long long u = 0;
      if (!scan.ReadUnsigned(&u))
        return Status::InvalidArgument("malformed integer for key '" + key +
                                       "'");
      if (key == "iter") r.iter = static_cast<size_t>(u);
      else if (key == "threads") r.threads = static_cast<size_t>(u);
      else if (key == "starved_labels")
        r.starved_labels = static_cast<size_t>(u);
      else r.seed = static_cast<uint64_t>(u);
      continue;
    }
    double v = 0.0;
    if (!scan.ReadNumber(&v))
      return Status::InvalidArgument("malformed value for key '" + key + "'");
    if (key == "d_loss") r.d_loss = v;
    else if (key == "g_loss") r.g_loss = v;
    else if (key == "g_grad_norm") r.g_grad_norm = v;
    else if (key == "d_grad_norm") r.d_grad_norm = v;
    else if (key == "param_norm") r.param_norm = v;
    else if (key == "value") r.value = v;
    else if (key == "iter_ms") r.iter_ms = v;
    else if (key == "wall_ms") r.wall_ms = v;
    // Unknown keys: skipped (forward compatibility).
  }
  if (!scan.AtEnd())
    return Status::InvalidArgument("trailing bytes after JSONL record");
  return r;
}

Result<std::unique_ptr<RunLogger>> RunLogger::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    return Status::IOError("cannot open run log '" + path + "' for writing");
  return std::unique_ptr<RunLogger>(new RunLogger(f, path));
}

namespace {

// Atomically rewrites the log to its first `max_lines` complete lines
// (so a crash never loses them), then reopens it for appending. A
// partial tail line a killed writer left is dropped: it would corrupt
// the next appended record. A missing log reads as empty — a resumed
// run may point at a log path that was never created.
Result<std::FILE*> KeepLines(const std::string& path, uint64_t max_lines,
                             uint64_t* kept) {
  auto read = ReadFile(path);
  if (!read.ok() && read.status().code() != Status::Code::kNotFound)
    return read.status();
  std::string content = read.ok() ? read.take() : std::string();
  size_t end = 0;
  *kept = 0;
  for (size_t i = 0; i < content.size() && *kept < max_lines; ++i) {
    if (content[i] != '\n') continue;
    ++*kept;
    end = i + 1;
  }
  content.resize(end);
  DAISY_RETURN_IF_ERROR(WriteFileAtomic(path, content));
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr)
    return Status::IOError("cannot open run log '" + path + "' for writing");
  return f;
}

}  // namespace

Result<std::unique_ptr<RunLogger>> RunLogger::OpenForResume(
    const std::string& path) {
  uint64_t kept = 0;
  auto f = KeepLines(path, std::numeric_limits<uint64_t>::max(), &kept);
  if (!f.ok()) return f.status();
  auto logger = std::unique_ptr<RunLogger>(new RunLogger(f.value(), path));
  logger->lines_ = kept;
  return logger;
}

RunLogger::RunLogger(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

RunLogger::~RunLogger() {
  if (file_ != nullptr) std::fclose(file_);
}

void RunLogger::Log(const MetricRecord& record) {
  const std::string line = ToJsonLine(record);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);  // keep the log readable even if the run dies
  ++lines_;
}

Status RunLogger::Flush() {
  // The error indicator is sticky: it also reports a Log whose write
  // failed, even if this fflush has nothing left to push.
  if (std::fflush(file_) != 0 || std::ferror(file_))
    return Status::IOError("flush failed for run log '" + path_ + "'");
  return Status::OK();
}

Status RunLogger::ResumeAt(uint64_t n) {
  if (lines_ <= n) return Status::OK();
  if (std::fflush(file_) != 0)
    return Status::IOError("flush failed for run log '" + path_ + "'");
  uint64_t kept = 0;
  auto f = KeepLines(path_, n, &kept);
  if (!f.ok()) return f.status();
  std::fclose(file_);
  file_ = f.value();
  lines_ = kept;
  if (kept < n)
    return Status::IOError("run log '" + path_ + "' holds " +
                           std::to_string(kept) + " lines, cannot keep " +
                           std::to_string(n));
  return Status::OK();
}

}  // namespace daisy::obs
