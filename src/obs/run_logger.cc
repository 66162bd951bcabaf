#include "obs/run_logger.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "core/durable.h"
#include "core/format.h"
#include "core/json.h"

namespace daisy::obs {

namespace {

// %.17g round-trips every double exactly.
void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  AppendG(v, kRoundTripDigits, out);
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
  auto parsed = ParseJson(line);
  if (!parsed.ok())
    return Status::InvalidArgument("JSONL record: " +
                                   parsed.status().message());
  if (parsed.value().kind != JsonValue::Kind::kObject)
    return Status::InvalidArgument("JSONL record must be an object");

  MetricRecord r;
  const std::pair<const char*, double*> reals[] = {
      {"d_loss", &r.d_loss},           {"g_loss", &r.g_loss},
      {"g_grad_norm", &r.g_grad_norm}, {"d_grad_norm", &r.d_grad_norm},
      {"param_norm", &r.param_norm},   {"value", &r.value},
      {"iter_ms", &r.iter_ms},         {"wall_ms", &r.wall_ms}};
  for (const auto& [key, v] : parsed.value().members) {
    if (key == "run") {
      if (v.kind != JsonValue::Kind::kString)
        return Status::InvalidArgument("JSONL key 'run' must be a string");
      r.run = v.text;
      continue;
    }
    if (key == "iter" || key == "threads" || key == "seed" ||
        key == "starved_labels") {
      // Decimal digits through strtoull, so uint64 values above 2^53
      // (seeds) stay exact instead of passing through a double.
      const bool digits =
          v.kind == JsonValue::Kind::kNumber &&
          v.text.find_first_not_of("0123456789") == std::string::npos;
      errno = 0;
      const unsigned long long u =
          digits ? std::strtoull(v.text.c_str(), nullptr, 10) : 0;
      if (!digits || errno == ERANGE)
        return Status::InvalidArgument("malformed integer for key '" + key +
                                       "'");
      if (key == "iter") r.iter = static_cast<size_t>(u);
      else if (key == "threads") r.threads = static_cast<size_t>(u);
      else if (key == "starved_labels")
        r.starved_labels = static_cast<size_t>(u);
      else r.seed = static_cast<uint64_t>(u);
      continue;
    }
    for (const auto& [name, field] : reals) {
      if (key != name) continue;
      if (v.kind == JsonValue::Kind::kNull)
        *field = std::numeric_limits<double>::quiet_NaN();
      else if (v.kind == JsonValue::Kind::kNumber)
        *field = std::strtod(v.text.c_str(), nullptr);
      else
        return Status::InvalidArgument("malformed value for key '" + key +
                                       "'");
    }
    // Any other key, of any value type, is skipped (forward
    // compatibility).
  }
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
