// The benchmark's three workloads. Each runs a publisher's session —
// input to saved model, evaluation and bulk generation to CSV, plus
// open-loop serving in serve_open — sized so that a different group of
// layers does almost all of the work (see e2ebench/README.md).
#ifndef E2EBENCH_RUNNER_WORKLOADS_H_
#define E2EBENCH_RUNNER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// Worker threads the library runs with (par::SetNumThreads). One
/// worker was the steadier setting on the shared 4-vCPU reference host
/// (a fit's run-to-run spread was 8.8% against 14% at two); with the
/// arrival thread and the serving scheduler, at most three threads are
/// busy.
constexpr size_t kThreads = 1;

/// Pages the ingest workload's PagedTable may keep resident: one row
/// group of the 15-column input (15 pages) plus one.
constexpr size_t kPageBudget = 16;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string root;      // checkout root (inputs of metadata)
  std::string work_dir;  // scratch files of this run
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run metadata, digests and diagnostics as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> meta;
};

std::vector<std::string> WorkloadNames();

/// Runs one workload. Unknown names and set-up failures return
/// attempted == 0.
RunResult RunWorkload(const RunConfig& cfg);

}  // namespace e2ebench

#endif  // E2EBENCH_RUNNER_WORKLOADS_H_
