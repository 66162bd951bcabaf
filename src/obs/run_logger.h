// JSONL run logger: one single-line JSON object per MetricRecord,
// appended to a file as training progresses. The schema is flat
// (string / integer / float fields only) so any JSON parser — or the
// ParseJsonLine helper below — can read it back. Non-finite doubles
// are serialized as null, since JSON has no NaN/Infinity literals;
// integer fields (iter, threads, seed) are emitted as decimal
// integers so uint64 values above 2^53 round-trip exactly; control
// characters in string fields are \-escaped so the one-record-per-line
// framing survives arbitrary run tags.
#ifndef DAISY_OBS_RUN_LOGGER_H_
#define DAISY_OBS_RUN_LOGGER_H_

#include <cstdio>
#include <memory>
#include <string>

#include "obs/metrics.h"

namespace daisy::obs {

/// Serializes a record as one line of JSON (no trailing newline).
std::string ToJsonLine(const MetricRecord& record);

/// Parses a line produced by ToJsonLine (through core/json). Unknown
/// keys of any value type are skipped; null numeric fields come back
/// as quiet NaN. Returns InvalidArgument on malformed input.
Result<MetricRecord> ParseJsonLine(const std::string& line);

/// MetricSink that appends JSONL to a file. Create via Open; the file
/// is truncated, written line-by-line, and flushed on every record so
/// a crashed or killed run still leaves a readable log.
class RunLogger : public MetricSink {
 public:
  static Result<std::unique_ptr<RunLogger>> Open(const std::string& path);

  /// Like Open, but keeps an existing log instead of truncating it:
  /// complete lines are preserved (a trailing partial line from a
  /// killed writer is dropped) and new records append after them. Use
  /// with `--resume` so the combined log reads as one uninterrupted
  /// run once ResumeAt has trimmed it to the checkpoint's cursor.
  static Result<std::unique_ptr<RunLogger>> OpenForResume(
      const std::string& path);

  ~RunLogger() override;

  RunLogger(const RunLogger&) = delete;
  RunLogger& operator=(const RunLogger&) = delete;

  void Log(const MetricRecord& record) override;
  Status Flush() override;
  uint64_t records_logged() const override { return lines_; }

  /// Truncates the log to its first n lines (no-op when it already has
  /// n or fewer), so records a crashed run wrote after its last
  /// checkpoint are erased before the resumed run re-emits them.
  Status ResumeAt(uint64_t n) override;

  size_t lines_written() const { return lines_; }
  const std::string& path() const { return path_; }

 private:
  RunLogger(std::FILE* file, std::string path);

  std::FILE* file_;
  std::string path_;
  size_t lines_ = 0;
};

}  // namespace daisy::obs

#endif  // DAISY_OBS_RUN_LOGGER_H_
