// Thread-pool and determinism tests for the parallel substrate: chunk
// coverage, nested/inline fallbacks, and bit-identical Matrix kernel
// output across thread counts.
#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/matrix.h"
#include "core/rng.h"

namespace daisy {
namespace {

// Restores the process-wide thread setting after each test so the rest
// of the suite keeps its configured/default parallelism.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { par::SetNumThreads(0); }
};

TEST_F(ParallelTest, NumThreadsIsAtLeastOne) {
  par::SetNumThreads(0);
  EXPECT_GE(par::NumThreads(), 1u);
  par::SetNumThreads(3);
  EXPECT_EQ(par::NumThreads(), 3u);
}

TEST_F(ParallelTest, CoversRangeExactlyOnce) {
  par::SetNumThreads(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  par::ParallelFor(0, hits.size(), 7, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_F(ParallelTest, EmptyRangeIsNoOp) {
  par::SetNumThreads(4);
  bool called = false;
  par::ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelTest, SingleThreadRunsInlineAsOneChunk) {
  par::SetNumThreads(1);
  std::vector<std::pair<size_t, size_t>> chunks;
  par::ParallelFor(0, 100, 10, [&](size_t b, size_t e) {
    chunks.emplace_back(b, e);  // safe: inline on this thread
  });
  ASSERT_EQ(chunks.size(), 1u);
  const std::pair<size_t, size_t> whole(0, 100);
  EXPECT_EQ(chunks[0], whole);
}

TEST_F(ParallelTest, ChunkBoundariesAreAFunctionOfGrainOnly) {
  par::SetNumThreads(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  par::ParallelFor(0, 25, 10, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<size_t, size_t>> expected = {
      {0, 10}, {10, 20}, {20, 25}};
  EXPECT_EQ(chunks, expected);
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  par::SetNumThreads(4);
  std::atomic<int> inner_calls{0};
  par::ParallelFor(0, 8, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      par::ParallelFor(0, 100, 1, [&](size_t ib, size_t ie) {
        // Nested bodies must collapse to exactly one inline chunk.
        EXPECT_EQ(ib, 0u);
        EXPECT_EQ(ie, 100u);
        inner_calls.fetch_add(1);
      });
    }
  });
  EXPECT_EQ(inner_calls.load(), 8);
}

TEST_F(ParallelTest, PoolWorkersAreCappedByHardware) {
  // 64 configured threads over 128 chunks would start 63 workers
  // without the cap. Each chunk sleeps, so in practice every started
  // worker runs some and the set of thread ids is the pool plus the
  // caller. On a host with 32+ hardware threads the cap is not reached.
  par::SetNumThreads(64);
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t cap = par::kMaxWorkersPerCore * (hw >= 1 ? hw : 1);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<size_t> covered{0};
  par::ParallelFor(0, 128, 1, [&](size_t b, size_t e) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    covered.fetch_add(e - b);
    std::lock_guard<std::mutex> lk(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(covered.load(), 128u);
  EXPECT_LE(ids.size(), cap + 1);
  EXPECT_EQ(par::NumThreads(), 64u);  // the configured count stands
}

// The acceptance-criterion test: every parallel Matrix kernel is
// bit-identical across thread counts (here 1 vs 4, matching
// DAISY_THREADS=1 vs 4 — SetNumThreads overrides the env var).
TEST_F(ParallelTest, MatrixKernelsBitIdenticalAcrossThreadCounts) {
  Rng rng(99);
  Matrix a = Matrix::Randn(67, 129, &rng);
  Matrix b = Matrix::Randn(129, 83, &rng);
  Matrix bt = Matrix::Randn(83, 129, &rng);
  Matrix at2 = Matrix::Randn(67, 129, &rng);

  auto run_all = [&]() {
    std::vector<Matrix> out;
    out.push_back(a.MatMul(b));
    out.push_back(a.TransposeMatMul(at2));
    out.push_back(a.MatMulTranspose(bt));
    out.push_back(a.ColSum());
    out.push_back(a.CWiseMul(at2));
    Matrix acc = a;
    acc += at2;
    acc -= a;
    out.push_back(acc);
    return out;
  };

  par::SetNumThreads(1);
  const auto single = run_all();
  for (size_t threads : {2u, 4u, 7u}) {
    par::SetNumThreads(threads);
    const auto multi = run_all();
    ASSERT_EQ(single.size(), multi.size());
    for (size_t i = 0; i < single.size(); ++i) {
      ASSERT_TRUE(single[i].SameShape(multi[i])) << "kernel " << i;
      EXPECT_EQ(std::memcmp(single[i].data(), multi[i].data(),
                            single[i].size() * sizeof(double)),
                0)
          << "kernel " << i << " not bit-identical at " << threads
          << " threads";
    }
  }
}

TEST_F(ParallelTest, LargeMatMulMatchesNaiveReference) {
  Rng rng(7);
  Matrix a = Matrix::Randn(150, 90, &rng);
  Matrix b = Matrix::Randn(90, 110, &rng);
  par::SetNumThreads(4);
  Matrix got = a.MatMul(b);
  for (size_t r = 0; r < a.rows(); r += 37)
    for (size_t c = 0; c < b.cols(); c += 23) {
      double acc = 0.0;
      for (size_t p = 0; p < a.cols(); ++p) acc += a(r, p) * b(p, c);
      EXPECT_NEAR(got(r, c), acc, 1e-9);
    }
}

}  // namespace
}  // namespace daisy
