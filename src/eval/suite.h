// One-call evaluation harness for the full paper report: classification
// utility (F1 / AUC diff per classifier), clustering utility (NMI
// diff), statistical fidelity (marginal KL, pairwise associations, FD
// violations), privacy risk (hitting rate, DCR) and AQP relative-error
// difference — each metric timed with obs::WallTimer and optionally
// streamed as one JSONL record through any obs::MetricSink (RunLogger),
// so evaluation cost lands in the same telemetry stream as training.
//
// Every metric the suite runs is deterministic for a fixed seed and
// bitwise identical for any DAISY_THREADS value (the underlying
// implementations draw their random probes serially and parallelize
// with fixed-order reductions).
#ifndef DAISY_EVAL_SUITE_H_
#define DAISY_EVAL_SUITE_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "data/table.h"
#include "eval/aqp.h"
#include "eval/fidelity.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace daisy::eval {

/// One evaluated metric: a dotted name ("privacy.hitting_rate",
/// "utility.f1_diff.RF10", ...), its value, and the wall-clock it cost
/// (0 for "utility.auc_diff.*", scored from the F1 metric's fits).
struct SuiteMetric {
  std::string name;
  double value = 0.0;
  double wall_ms = 0.0;
};

struct SuiteOptions {
  SuiteOptions() { aqp_workload.num_queries = 100; }

  /// Fraction of the real table used to train the reference
  /// classifiers; the rest is the held-out test split.
  double train_ratio = 2.0 / 3.0;

  /// Section toggles. Utility / clustering silently skip when the
  /// schema has no label.
  bool utility = true;
  bool clustering = true;
  bool fidelity = true;
  bool privacy = true;
  bool aqp = true;

  /// Also report AUC diffs (binary label problems only). The AUC is
  /// scored from the same fits as the F1, so it adds only prediction.
  bool utility_auc = false;

  /// Records sampled by the privacy metrics.
  size_t privacy_samples = 500;

  FidelityOptions fidelity_opts;
  /// Real-frequency ceiling below which a (nonzero) category counts as
  /// a rare mode for fidelity.rare_mode_recall.
  double rare_mode_threshold = 0.01;
  double fd_min_confidence = 0.95;
  AqpWorkloadOptions aqp_workload;
  AqpDiffOptions aqp_diff;

  uint64_t seed = 61;
};

struct SuiteReport {
  std::vector<SuiteMetric> metrics;
  double total_ms = 0.0;

  /// First metric with the given name, or nullptr.
  const SuiteMetric* Find(const std::string& name) const;
};

/// Appends metrics to a report and mirrors each one into `sink` (may be
/// null) as one MetricRecord: run = "eval.<name>", value, iter_ms = the
/// metric's wall ms, wall_ms = elapsed since the emitter was made, iter
/// = 1-based metric index, threads, and `seed`. Shared by every
/// evaluation suite, so their JSONL records have one shape.
class MetricEmitter {
 public:
  MetricEmitter(SuiteReport* report, obs::MetricSink* sink, uint64_t seed)
      : report_(report), sink_(sink), seed_(seed) {}

  void Add(std::string name, double value, double wall_ms);

  double ElapsedMs() const { return timer_.ElapsedMs(); }

 private:
  SuiteReport* report_;
  obs::MetricSink* sink_;
  uint64_t seed_;
  obs::WallTimer timer_;
};

class EvaluationSuite {
 public:
  explicit EvaluationSuite(SuiteOptions opts = {}) : opts_(std::move(opts)) {}

  /// Runs every enabled section against the table pair. Both tables
  /// must share the schema width. `sink` may be null; when given, one
  /// MetricRecord per metric is emitted (run = "eval.<name>", value =
  /// metric value, iter_ms = metric wall ms, wall_ms = elapsed since
  /// the suite started, iter = 1-based metric index) and the sink is
  /// flushed at the end.
  Result<SuiteReport> Run(const data::Table& real,
                          const data::Table& synthetic,
                          obs::MetricSink* sink = nullptr) const;

  const SuiteOptions& options() const { return opts_; }

 private:
  SuiteOptions opts_;
};

}  // namespace daisy::eval

#endif  // DAISY_EVAL_SUITE_H_
