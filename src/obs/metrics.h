// Run telemetry for the training loops: one MetricRecord per logged
// iteration, pushed into a MetricSink. The trainers (GanTrainer and
// the baselines) emit records; sinks decide what to do with them —
// keep them in memory (MemorySink, tests), or stream them to disk as
// JSONL (RunLogger). Sinks are deliberately dumb: no aggregation, no
// sampling; cadence is the emitter's job (LoopOptions::log_every).
#ifndef DAISY_OBS_METRICS_H_
#define DAISY_OBS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace daisy::obs {

/// One logged training iteration. Loss semantics depend on `run`:
/// for GANs d_loss/g_loss are the discriminator/generator objectives;
/// single-model trainers (VAE, autoencoder pretraining) report their
/// loss in g_loss and leave d_loss at 0.
struct MetricRecord {
  std::string run;          // emitter tag, e.g. "gan.wtrain", "vae"
  size_t iter = 0;          // 1-based iteration (or epoch) index
  double d_loss = 0.0;
  double g_loss = 0.0;
  double g_grad_norm = 0.0; // global L2 grad norm at the last G update
  double d_grad_norm = 0.0; // same for D (0 when there is no D)
  double param_norm = 0.0;  // global L2 norm of the generator params
  double value = 0.0;       // generic metric value (evaluation suite)
  double iter_ms = 0.0;     // wall-clock spent in this iteration
  double wall_ms = 0.0;     // wall-clock since training started
  size_t threads = 0;       // par::NumThreads() at emit time
  uint64_t seed = 0;        // the run's base seed
  size_t starved_labels = 0;  // CTrain: labels with zero records (skipped)
};

/// Receives records from a training run. Implementations must not
/// throw; I/O errors surface through Flush.
class MetricSink {
 public:
  virtual ~MetricSink() = default;

  virtual void Log(const MetricRecord& record) = 0;

  /// Forces buffered records out (no-op for in-memory sinks) and
  /// reports any record the sink failed to write since it was opened.
  /// Called by the training loop after each phase's last record.
  virtual Status Flush() { return Status::OK(); }

  /// Number of records this sink has accepted so far. Checkpoints
  /// store this as the telemetry cursor so a resumed run knows where
  /// the uninterrupted log ended.
  virtual uint64_t records_logged() const { return 0; }

  /// Repositions the sink so the next Log appends as record n+1:
  /// records past n (logged by a crashed run after its last checkpoint)
  /// are discarded. A sink holding fewer than n records keeps what it
  /// has — a fresh sink attached to a resumed run starts empty and
  /// that is not an error.
  virtual Status ResumeAt(uint64_t n) {
    (void)n;
    return Status::OK();
  }
};

/// Keeps every record in memory — for tests and in-process analysis.
class MemorySink : public MetricSink {
 public:
  void Log(const MetricRecord& record) override {
    records_.push_back(record);
  }

  uint64_t records_logged() const override { return records_.size(); }

  Status ResumeAt(uint64_t n) override {
    if (records_.size() > n) records_.resize(n);
    return Status::OK();
  }

  const std::vector<MetricRecord>& records() const { return records_; }

 private:
  std::vector<MetricRecord> records_;
};

}  // namespace daisy::obs

#endif  // DAISY_OBS_METRICS_H_
