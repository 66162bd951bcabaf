#include "runner/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "runner/measure.h"

namespace e2ebench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;

}  // namespace

int64_t Tracer::Begin(const std::string& name, int64_t request) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_spans.empty() ? -1 : open_spans.back();
  rec.request = request;
  rec.start_s = NowS();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(rec));
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double now = NowS();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_s = now;
}

void Tracer::Add(const std::string& name, double start_s, double end_s,
                 int64_t request) {
  if (!enabled_) return;
  SpanRecord rec;
  rec.name = name;
  rec.start_s = start_s;
  rec.end_s = end_s;
  rec.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  const std::vector<SpanRecord> all = spans();
  // Child intervals per parent, merged so overlapping children (from
  // several threads) are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> kids(all.size());
  for (const SpanRecord& s : all)
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_s, s.end_s);
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [b0, e0] : iv) {
      const double b = std::max(b0, s.start_s), e = std::min(e0, s.end_s);
      if (e <= b) continue;
      if (b > hi) {
        if (hi > lo) covered += hi - lo;
        lo = b;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (hi > lo) covered += hi - lo;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += s.end_s - s.start_s;
    t.self_s += s.end_s - s.start_s - covered;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = all.empty() ? 0.0 : all.front().start_s;
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%lld,\"request\":%lld}\n",
                 i, s.name.c_str(), s.start_s - t0, s.end_s - t0,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  for (const auto& [name, t] : Totals())
    std::fprintf(f,
                 "{\"totals\":\"%s\",\"count\":%zu,\"total_s\":%.9f,"
                 "\"self_s\":%.9f}\n",
                 name.c_str(), t.count, t.total_s, t.self_s);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
