// Span recorder of the traced run. The runner wraps each call it makes
// into a library module's public function in a ScopedSpan; spans are
// kept in memory and written out once, when the run ends. A disabled
// tracer records nothing, which is how the untraced run measures.
#ifndef E2EBENCH_RUNNER_TRACE_H_
#define E2EBENCH_RUNNER_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  std::string name;       // "<layer>.<call>", e.g. "synth.fit"
  double start_s = 0.0;   // steady clock (NowS)
  double end_s = 0.0;
  int64_t parent = -1;    // index of the enclosing span, -1 at top level
  int64_t request = -1;   // serving request id, -1 outside requests
};

/// Per-name totals over all spans of that name. Self time is a span's
/// duration minus the part of it its child spans cover.
struct SpanTotals {
  size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span on the calling thread (its parent is the innermost
  /// span still open on this thread). Returns -1 when disabled.
  int64_t Begin(const std::string& name, int64_t request = -1);
  void End(int64_t id);

  /// Records an already-measured interval (e.g. a request's queue wait,
  /// which starts at its due time rather than at a call).
  void Add(const std::string& name, double start_s, double end_s,
           int64_t request = -1);

  std::vector<SpanRecord> spans() const;
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes one JSON object per span, then one per name with its
  /// totals. Times are relative to the first span's start.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_RUNNER_TRACE_H_
