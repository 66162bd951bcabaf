#include "runner/open_loop.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "core/rng.h"
#include "runner/measure.h"

namespace e2ebench {

std::vector<Arrival> MakeArrivals(size_t num_models, uint64_t seed) {
  daisy::Rng rng(seed);
  std::vector<Arrival> out(kPhaseRequests);
  double t = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    Arrival& a = out[i];
    t += -std::log(1.0 - rng.Uniform()) / kRequestsPerS;
    a.due_s = t;
    a.model = static_cast<size_t>(rng.UniformInt(num_models));
    const size_t small = 1 + rng.UniformInt(kSmallMaxRows);
    a.rows = (i + 1) % kLargeEvery == 0 ? kLargeRows : small;
    a.seed = rng.Next();
  }
  return out;
}

OpenLoop::OpenLoop(const std::vector<double>& due_offsets_s)
    : offsets_(due_offsets_s), timings_(due_offsets_s.size()) {}

void OpenLoop::Chunk(size_t i) {
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  if (timings_[i].chunks++ == 0) timings_[i].first_s = now;
}

void OpenLoop::Done(size_t i, bool ok) {
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  RequestTiming& t = timings_[i];
  if (t.chunks == 0) t.first_s = now;
  t.done_s = now;
  t.ok = ok;
  --pending_;
  cv_.notify_all();
}

std::vector<RequestTiming> OpenLoop::Run(
    const std::function<bool(size_t)>& submit) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start_tp = Clock::now();
  const double start_s = NowS();
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ = offsets_.size();
    for (size_t i = 0; i < offsets_.size(); ++i)
      timings_[i].due_s = start_s + offsets_[i];
  }
  for (size_t i = 0; i < offsets_.size(); ++i) {
    std::this_thread::sleep_until(
        start_tp + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offsets_[i])));
    {
      std::lock_guard<std::mutex> lock(mu_);
      timings_[i].sent_s = NowS();
    }
    if (!submit(i)) Done(i, false);
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return pending_ == 0; });
  return timings_;
}

}  // namespace e2ebench
