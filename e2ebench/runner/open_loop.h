// Open-loop load generation: requests are sent on a seeded schedule
// from one thread whatever the server's state, and each is timed from
// the moment it was due, so a stall anywhere (server, reply sink or
// the generator itself) shows up in the latency of every request that
// was due during it.
#ifndef E2EBENCH_RUNNER_OPEN_LOOP_H_
#define E2EBENCH_RUNNER_OPEN_LOOP_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace e2ebench {

struct Arrival {
  double due_s = 0.0;  // offset from the start of the run
  size_t model = 0;    // index into the served models
  size_t rows = 0;
  uint64_t seed = 0;
};

// The request mix of every serving phase. kPhaseRequests leaves 10
// samples beyond the phase's p99. The mix is an assumption, not a measurement: nothing in
// the repository records what users request, so it fills in "mostly
// small requests, a few large ones". Large requests have the size of
// bench/bench_serve.cc's larger requests (2000 rows); the small sizes
// (1..kSmallMaxRows rows) are unmeasured. Every kLargeEvery-th request
// is large (a fixed count, so the tail does not depend on how many
// large requests a seed happens to draw). The rate is about a quarter
// of one thread's bulk generation capacity on the reference host: at
// half capacity the queue grew unstable whenever the shared host slowed
// down.
constexpr size_t kPhaseRequests = 1000;
constexpr double kRequestsPerS = 250.0;
constexpr size_t kSmallMaxRows = 64;
constexpr size_t kLargeEvery = 50;
constexpr size_t kLargeRows = 2000;

/// Seeded schedule of one serving phase, kPhaseRequests arrivals:
/// exponential inter-arrival gaps at kRequestsPerS, models drawn
/// uniformly from `num_models`.
std::vector<Arrival> MakeArrivals(size_t num_models, uint64_t seed);

struct RequestTiming {
  double due_s = 0.0;    // absolute steady-clock times (NowS)
  double sent_s = 0.0;
  double first_s = 0.0;  // first reply chunk
  double done_s = 0.0;
  size_t chunks = 0;
  bool ok = false;

  double latency_ms() const { return (done_s - due_s) * 1e3; }
  double queue_wait_ms() const { return (first_s - due_s) * 1e3; }
  double service_ms() const { return (done_s - first_s) * 1e3; }
};

/// Drives one open-loop run. The submit callback must arrange for
/// Chunk(i) per reply chunk and exactly one Done(i, ok) per request;
/// those may be called from any thread.
class OpenLoop {
 public:
  explicit OpenLoop(const std::vector<double>& due_offsets_s);
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void Chunk(size_t i);
  void Done(size_t i, bool ok);

  /// Sends request i at start + due_offsets_s[i] by calling submit(i)
  /// (a false return completes it as failed), then waits until every
  /// request is done. Returns the timings in request order.
  std::vector<RequestTiming> Run(const std::function<bool(size_t)>& submit);

 private:
  std::vector<double> offsets_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<RequestTiming> timings_;  // guarded by mu_
  size_t pending_ = 0;                  // guarded by mu_
};

}  // namespace e2ebench

#endif  // E2EBENCH_RUNNER_OPEN_LOOP_H_
