// End-to-end benchmark runner.
//
//   e2ebench --workload <ingest_paged|design_sweep|serve_open>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Runs from the root of a checkout: work files go to .bench_work/ and
// traced runs write their spans to .bench_traces/. Prints one metadata
// line, then the result as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ones. Exits 2 on bad arguments and 1 when set-up fails,
// printing no result in either case.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "runner/measure.h"
#include "runner/workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  e2ebench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(cfg.seconds > 0))
        return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      cfg.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : e2ebench::WorkloadNames())
    known = known || w == cfg.workload;
  if (!have_workload || !known) return Usage("unknown or missing --workload");

  cfg.root = fs::current_path().string();
  const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed);
  cfg.work_dir = cfg.root + "/.bench_work/" + tag + "-" +
                 std::to_string(static_cast<long>(getpid()));
  cfg.trace_path = cfg.root + "/.bench_traces/" + tag + ".jsonl";
  std::error_code ec;
  fs::create_directories(cfg.work_dir, ec);
  if (cfg.trace) fs::create_directories(cfg.root + "/.bench_traces", ec);

  const e2ebench::RunResult r = e2ebench::RunWorkload(cfg);
  fs::remove_all(cfg.work_dir, ec);
  if (r.attempted == 0) {
    std::fprintf(stderr, "e2ebench: set-up of %s failed\n",
                 cfg.workload.c_str());
    return 1;
  }

  std::string meta = "{\"meta\": {";
  for (size_t i = 0; i < r.meta.size(); ++i)
    meta += (i ? ", \"" : "\"") + r.meta[i].first + "\": " + r.meta[i].second;
  std::printf("%s}}\n", meta.c_str());

  std::string metrics;
  for (size_t i = 0; i < r.metrics.size(); ++i)
    metrics += (i ? ", \"" : "\"") + r.metrics[i].name +
               "\": {\"value\": " + e2ebench::JsonNumber(r.metrics[i].value) +
               ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
