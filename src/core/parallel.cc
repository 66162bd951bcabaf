#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace daisy::par {

namespace {

// 0 means "not overridden": fall back to env var / hardware.
std::atomic<size_t> g_override{0};

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

size_t AutoThreads() {
  if (const char* env = std::getenv("DAISY_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<size_t>(v);
  }
  return HardwareThreads();
}

// One parallel region in flight. Workers pull chunk indices from a
// shared atomic counter; the partition itself (chunk -> iteration
// range) is fixed by (begin, grain, num_chunks), so which thread runs a
// chunk never affects what the chunk computes.
struct Job {
  const std::function<void(size_t, size_t)>* fn = nullptr;
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  size_t active_workers = 0;  // pool workers allowed to join this job
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> completed{0};

  void RunChunks() {
    size_t c;
    while ((c = next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks) {
      const size_t b = begin + c * grain;
      const size_t e = std::min(end, b + grain);
      (*fn)(b, e);
      completed.fetch_add(1, std::memory_order_acq_rel);
    }
  }
};

// True while this thread is executing a ParallelFor body; nested calls
// run inline instead of deadlocking on the single in-flight job.
thread_local bool t_in_parallel_region = false;

class Pool {
 public:
  static Pool& Instance() {
    static Pool* pool = new Pool();  // leaked: workers may outlive statics
    return *pool;
  }

  void Run(size_t begin, size_t end, size_t grain,
           const std::function<void(size_t, size_t)>& fn, size_t num_chunks,
           size_t threads) {
    // Only one region at a time; concurrent callers degrade to inline.
    if (!region_mu_.try_lock()) {
      fn(begin, end);
      return;
    }
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->num_chunks = num_chunks;
    {
      std::lock_guard<std::mutex> lk(mu_);
      // More runnable threads than cores only add switching, and the
      // pool keeps every worker it starts for the life of the process.
      // Chunking ignores the worker count, so the cap moves no byte.
      const size_t cap = kMaxWorkersPerCore * HardwareThreads();
      const size_t want = std::min({threads - 1, num_chunks - 1, cap});
      while (workers_.size() < want)
        workers_.emplace_back(&Pool::WorkerLoop, this, workers_.size());
      job->active_workers = want;
      job_ = job;
      ++job_id_;
    }
    cv_job_.notify_all();

    t_in_parallel_region = true;
    job->RunChunks();  // the calling thread is worker #0
    t_in_parallel_region = false;

    if (job->completed.load(std::memory_order_acquire) < job->num_chunks) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] {
        return job->completed.load(std::memory_order_acquire) ==
               job->num_chunks;
      });
    }
    region_mu_.unlock();
  }

 private:
  void WorkerLoop(size_t index) {
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_job_.wait(lk, [&] { return job_id_ != seen; });
        seen = job_id_;
        job = job_;
      }
      // A worker spawned before a later SetNumThreads() downgrade sits
      // this job out so the configured parallelism is respected.
      if (index >= job->active_workers) continue;
      t_in_parallel_region = true;
      job->RunChunks();
      t_in_parallel_region = false;
      if (job->completed.load(std::memory_order_acquire) ==
          job->num_chunks) {
        { std::lock_guard<std::mutex> lk(mu_); }
        cv_done_.notify_all();
      }
    }
  }

  std::mutex region_mu_;  // serializes parallel regions
  std::mutex mu_;         // guards job publication + worker spawn
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  uint64_t job_id_ = 0;
};

}  // namespace

size_t NumThreads() {
  const size_t o = g_override.load(std::memory_order_relaxed);
  return o != 0 ? o : AutoThreads();
}

void SetNumThreads(size_t n) {
  g_override.store(n, std::memory_order_relaxed);
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t num_chunks = (n + grain - 1) / grain;
  const size_t threads = NumThreads();
  if (threads == 1 || num_chunks == 1 || t_in_parallel_region) {
    fn(begin, end);
    return;
  }
  Pool::Instance().Run(begin, end, grain, fn, num_chunks, threads);
}

size_t RowGrain(size_t flops_per_row, size_t multiple) {
  constexpr size_t kMinFlopsPerChunk = 1 << 15;
  const size_t rows = std::max<size_t>(
      1, kMinFlopsPerChunk / std::max<size_t>(1, flops_per_row));
  return (rows + multiple - 1) / multiple * multiple;
}

size_t NumChunks(size_t begin, size_t end, size_t grain) {
  if (begin >= end) return 0;
  if (grain == 0) grain = 1;
  return (end - begin + grain - 1) / grain;
}

void ParallelForIndexed(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = (end - begin + grain - 1) / grain;
  // Reuse ParallelFor over the chunk axis with grain 1: each pool chunk
  // is exactly one caller chunk, and the inline fallback's single
  // fn(0, num_chunks) call walks the chunks sequentially — the same
  // partition either way.
  ParallelFor(0, num_chunks, 1, [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      const size_t b = begin + c * grain;
      fn(c, b, std::min(end, b + grain));
    }
  });
}

}  // namespace daisy::par
