// Parallel-execution substrate: a lazily-initialized fixed thread pool
// and a ParallelFor primitive used by the Matrix kernels (and anything
// else that wants deterministic data parallelism).
//
// Determinism contract: ParallelFor partitions [begin, end) into chunks
// of `grain` iterations purely as a function of (begin, end, grain) —
// never of the thread count — and each chunk is executed sequentially
// by exactly one thread. A kernel whose chunks write disjoint outputs
// (and whose per-output accumulation order is fixed by the code, not by
// the partition) therefore produces bit-identical results for any
// DAISY_THREADS value, including 1.
#ifndef DAISY_CORE_PARALLEL_H_
#define DAISY_CORE_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace daisy::par {

/// The pool starts at most this many worker threads per hardware
/// thread, whatever NumThreads() says; a ParallelFor runs on at most
/// that many workers plus the calling thread.
inline constexpr size_t kMaxWorkersPerCore = 2;

/// Resolved worker count: the last SetNumThreads() value, else the
/// DAISY_THREADS environment variable, else hardware_concurrency.
/// Always >= 1.
size_t NumThreads();

/// Overrides the thread count. `n == 0` restores automatic resolution
/// (DAISY_THREADS env var, then hardware_concurrency); `n == 1` is an
/// exact single-threaded fallback — ParallelFor runs the body inline on
/// the calling thread with no pool interaction at all.
void SetNumThreads(size_t n);

/// Runs fn(chunk_begin, chunk_end) over a partition of [begin, end)
/// into chunks of `grain` iterations (the last chunk may be short).
/// Chunks run concurrently across the pool; each chunk runs on exactly
/// one thread. Falls back to a single inline fn(begin, end) call when
/// there is one chunk, one configured thread, or the caller is itself
/// inside a ParallelFor body (no nested parallelism).
///
/// fn must tolerate any partition of the range (see the determinism
/// contract above) and must not throw.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Like ParallelFor, but fn also receives the chunk index
/// ((chunk_begin - begin) / grain). Unlike ParallelFor — whose inline
/// fallback runs one fn(begin, end) call over the whole range — the
/// single-threaded/nested fallback here still invokes fn once per
/// chunk, in ascending chunk order. Callers that accumulate into
/// chunk-indexed partial sums (reduced in chunk order afterwards)
/// therefore see the exact same partition, and produce bit-identical
/// results, for any DAISY_THREADS value.
void ParallelForIndexed(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t chunk, size_t, size_t)>& fn);

/// Row-block grain for row-parallel kernels: enough rows for at least
/// 32k flops per chunk, so small problems never pay scheduling
/// overhead. A function of the shape alone (never the thread count),
/// which keeps the partition — and any chunk-local accumulation —
/// deterministic. Rounded up to a multiple of `multiple`, so a kernel
/// that works in row tiles gets whole tiles in every chunk but the last.
size_t RowGrain(size_t flops_per_row, size_t multiple = 1);

/// Number of chunks ParallelFor / ParallelForIndexed partition
/// [begin, end) into for the given grain — a pure function of the
/// range, never of the thread count. Callers that reduce per-chunk
/// partial results in ascending chunk order use it to size the partial
/// buffer. Returns 0 for an empty range.
size_t NumChunks(size_t begin, size_t end, size_t grain);

}  // namespace daisy::par

#endif  // DAISY_CORE_PARALLEL_H_
