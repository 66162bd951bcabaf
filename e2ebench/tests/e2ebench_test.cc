// Tests of the benchmark's own machinery: percentiles, the open loop,
// input determinism, the peak-RSS reset, the step timer and span self
// time.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/inputs.h"
#include "runner/measure.h"
#include "runner/open_loop.h"
#include "runner/trace.h"

namespace e2ebench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(TailPercentile(OneTo(999), 0.99).has_value());
  const auto p99 = TailPercentile(OneTo(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);  // 10 samples (991..1000) lie beyond it
  EXPECT_FALSE(TailPercentile(OneTo(100), 0.99).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
  // A p90 needs only 100 samples for 10 beyond it.
  EXPECT_EQ(TailPercentile(OneTo(100), 0.9).value_or(-1), 90.0);
}

TEST(PercentileTest, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

// A fake single-threaded server: requests are served in FIFO order by a
// worker thread that calls the reply sink, and the sink of request
// `stall_at` blocks for `stall_ms` before returning.
class FakeServer {
 public:
  FakeServer(OpenLoop* loop, size_t stall_at, int stall_ms)
      : loop_(loop), stall_at_(stall_at), stall_ms_(stall_ms),
        worker_([this] { Work(); }) {}
  ~FakeServer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
  void Submit(size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(i);
    }
    cv_.notify_all();
  }

 private:
  void Work() {
    for (;;) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        i = queue_.front();
        queue_.pop_front();
      }
      loop_->Chunk(i);
      if (i == stall_at_)
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
      loop_->Done(i, true);
    }
  }

  OpenLoop* loop_;
  size_t stall_at_;
  int stall_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<size_t> queue_;  // guarded by mu_
  bool stop_ = false;         // guarded by mu_
  std::thread worker_;
};

TEST(OpenLoopTest, StalledSinkRaisesLatencyOfLaterRequests) {
  // Ten requests 10 ms apart; the sink of request 3 stalls for 150 ms.
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(0.01 * i);
  OpenLoop loop(due);
  std::vector<RequestTiming> t;
  {
    FakeServer server(&loop, /*stall_at=*/3, /*stall_ms=*/150);
    t = loop.Run([&](size_t i) {
      server.Submit(i);
      return true;
    });
  }
  ASSERT_EQ(t.size(), 10u);
  for (size_t i = 0; i < 3; ++i) EXPECT_LT(t[i].latency_ms(), 100.0) << i;
  // Requests due during the stall are still sent on schedule...
  for (size_t i = 4; i < 10; ++i)
    EXPECT_LT((t[i].sent_s - t[i].due_s) * 1e3, 50.0) << i;
  // ...and wait behind it: request 4, due at 40 ms, cannot finish before
  // the stall ends at about 30 + 150 ms.
  EXPECT_GT(t[4].latency_ms(), 120.0);
  EXPECT_GT(t[9].latency_ms(), 70.0);
  for (const RequestTiming& r : t) EXPECT_TRUE(r.ok);
}

TEST(OpenLoopTest, LatencyCountsFromDueTimeWhenTheGeneratorRunsLate) {
  // The submit of request 1 blocks for 100 ms, so request 2 (due at
  // 20 ms) is sent about 80 ms late; its latency includes that delay.
  OpenLoop loop({0.0, 0.01, 0.02});
  const std::vector<RequestTiming> t = loop.Run([&](size_t i) {
    if (i == 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    loop.Chunk(i);
    loop.Done(i, true);
    return true;
  });
  EXPECT_GT((t[2].sent_s - t[2].due_s) * 1e3, 60.0);
  EXPECT_GT(t[2].latency_ms(), 60.0);
  EXPECT_LT(t[0].latency_ms(), 50.0);
}

TEST(OpenLoopTest, RefusedSubmitCountsAsFailed) {
  OpenLoop loop({0.0, 0.001});
  const auto t = loop.Run([&](size_t i) {
    if (i == 0) {
      loop.Done(i, true);
      return true;
    }
    return false;
  });
  EXPECT_TRUE(t[0].ok);
  EXPECT_FALSE(t[1].ok);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

TEST(InputsTest, SameSeedGivesByteIdenticalInputs) {
  const std::string dir =
      (std::filesystem::current_path() / "e2ebench_inputs_test").string();
  std::filesystem::create_directories(dir);
  std::string label_a, label_b, label_c;
  ASSERT_TRUE(WriteAdultCsv(dir + "/a.csv", 5000, 7, &label_a).ok());
  ASSERT_TRUE(WriteAdultCsv(dir + "/b.csv", 5000, 7, &label_b).ok());
  ASSERT_TRUE(WriteAdultCsv(dir + "/c.csv", 5000, 8, &label_c).ok());
  const std::string a = ReadFile(dir + "/a.csv");
  EXPECT_GT(a.size(), 5000u * 15);
  EXPECT_EQ(a, ReadFile(dir + "/b.csv"));
  EXPECT_NE(a, ReadFile(dir + "/c.csv"));
  EXPECT_EQ(label_a, "income");
  std::filesystem::remove_all(dir);

  const auto t1 = MakeAdultTable(2000, 9), t2 = MakeAdultTable(2000, 9);
  ASSERT_EQ(t1.num_records(), 2000u);
  for (size_t i = 0; i < t1.num_records(); ++i)
    for (size_t j = 0; j < t1.num_attributes(); ++j)
      ASSERT_EQ(t1.value(i, j), t2.value(i, j));

  const auto s1 = MakeArrivals(3, 11), s2 = MakeArrivals(3, 11);
  const auto s3 = MakeArrivals(3, 12);
  ASSERT_EQ(s1.size(), kPhaseRequests);
  size_t large = 0;
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].due_s, s2[i].due_s);
    EXPECT_EQ(s1[i].rows, s2[i].rows);
    EXPECT_EQ(s1[i].seed, s2[i].seed);
    EXPECT_EQ(s1[i].model, s2[i].model);
    large += s1[i].rows == kLargeRows;
  }
  EXPECT_EQ(large, kPhaseRequests / kLargeEvery);
  EXPECT_NE(s1[0].due_s, s3[0].due_s);
}

TEST(PeakRssTest, ResetExcludesEarlierPeaks) {
  {
    // "Set-up": touch 256 MiB, then free it (large blocks are unmapped).
    std::vector<char> setup(256u << 20);
    for (size_t i = 0; i < setup.size(); i += 4096) setup[i] = 1;
    EXPECT_GE(PeakRssMb(), 256.0);
  }
  if (!ResetPeakRss()) GTEST_SKIP() << "/proc/self/clear_refs not writable";
  std::vector<char> timed(16u << 20);
  for (size_t i = 0; i < timed.size(); i += 4096) timed[i] = 1;
  const double peak = PeakRssMb();
  EXPECT_GE(peak, 16.0);
  EXPECT_LT(peak, 200.0);
}

TEST(StepTimerTest, ScalesWallTimeAndLeavesOutNestedProbes) {
  const size_t before = HostProbeLog().size();
  StepTimer outer;
  StepTimer inner;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  inner.Stop();
  outer.Stop();
  const double inner_wall = inner.wall_s();
  inner.Stop();  // stopping again changes nothing
  EXPECT_EQ(inner.wall_s(), inner_wall);
  EXPECT_GE(inner.wall_s(), 0.03);
  // The inner timer's two probes (tens of milliseconds) ran inside the
  // outer step but are not part of its wall time.
  EXPECT_GE(outer.wall_s(), inner.wall_s());
  EXPECT_LT(outer.wall_s() - inner.wall_s(), 0.01);

  // Each timer probed once at each end; all four probes lie within the
  // window of both steps, so both are scaled by their median.
  const std::vector<ProbeRecord>& log = HostProbeLog();
  ASSERT_EQ(log.size(), before + 4);
  std::vector<double> ms;
  for (size_t i = before; i < log.size(); ++i) {
    EXPECT_GT(log[i].ms, 0.0);
    ms.push_back(log[i].ms);
  }
  const double scale =
      std::pow(kReferenceProbeMs / Median(ms), kHostSensitivity);
  EXPECT_DOUBLE_EQ(inner.scaled_s(), inner.wall_s() * scale);
  EXPECT_DOUBLE_EQ(outer.scaled_s(), outer.wall_s() * scale);
  // Probes long after a step are outside its window.
  const double late = log.back().at_s + kProbeWindowS + 1.0;
  EXPECT_EQ(HostSpeedScale(late, late + 1.0), 1.0);
}

TEST(TraceTest, SelfTimeSubtractsChildren) {
  Tracer tracer(true);
  tracer.Add("child", 1.0, 1.5);  // top-level records, then nest by hand
  const int64_t parent = tracer.Begin("parent");
  {
    ScopedSpan child(&tracer, "child");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  tracer.End(parent);
  const auto totals = tracer.Totals();
  const SpanTotals& p = totals.at("parent");
  const SpanTotals& c = totals.at("child");
  EXPECT_EQ(c.count, 2u);
  EXPECT_NEAR(p.total_s - p.self_s, c.total_s - 0.5, 1e-9);
  EXPECT_GT(p.self_s, 0.02);
  EXPECT_EQ(tracer.spans()[2].parent, 1);

  Tracer off;
  EXPECT_EQ(off.Begin("x"), -1);
  off.End(-1);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace e2ebench
