// Crash-safe training checkpoints. A TrainCheckpoint captures every
// piece of mutable training state — model parameters, BatchNorm
// buffers, optimizer moments (as opaque per-optimizer blobs written by
// nn::Optimizer::Save), the rng engine words, iteration counter,
// sentinel rollback baselines, loss traces / snapshots, and the
// telemetry cursor — so a killed run resumes bit-for-bit where it left
// off.
//
// On-disk format: the core/serial tagged text stream, led by a version
// tag, followed by the core/durable checksum trailer, and written
// through core/durable's AtomicFile — so a crash mid-write leaves
// either the old file or the new one, never a half-written one; and
// any corruption (bit flip, truncation) fails the checksum before a
// single payload byte is parsed.
#ifndef DAISY_CKPT_CHECKPOINT_H_
#define DAISY_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/durable.h"  // Fnv1a64: the checksum trailer's hash
#include "core/matrix.h"
#include "core/status.h"

namespace daisy::ckpt {

/// Complete mid-training state of one trainer. The trainers define
/// what goes where (e.g. GanTrainer stores generator-then-discriminator
/// params, medGAN uses `phase` to distinguish autoencoder pretraining
/// from adversarial training); the checkpoint layer just round-trips
/// the containers faithfully, NaNs and infinities included.
struct TrainCheckpoint {
  /// Format owners: bump kVersion when the field set changes; Load
  /// rejects files written by a different version outright.
  static constexpr uint64_t kVersion = 1;

  std::string run;       // emitter tag, e.g. "gan.wtrain"; validated on resume
  uint64_t phase = 0;    // training phase for multi-phase trainers
  uint64_t iter = 0;     // completed iterations within the phase
  uint64_t total_iters = 0;  // configured run length (resume sanity check)
  uint64_t seed = 0;         // base seed (resume sanity check)
  uint64_t telemetry_records = 0;  // MetricSink cursor at save time

  std::vector<uint64_t> rng_state;  // engine words (Rng::GetState, possibly
                                    // several streams concatenated)
  std::vector<Matrix> params;       // trainable parameter values
  std::vector<Matrix> buffers;      // non-trainable state (BatchNorm stats)
  std::vector<std::string> optimizer_state;  // one blob per optimizer

  std::vector<Matrix> healthy_params;   // sentinel rollback baseline
  std::vector<Matrix> healthy_buffers;  // ... and its buffers

  std::vector<double> d_losses;  // per-iteration loss traces
  std::vector<double> g_losses;
  std::vector<std::vector<Matrix>> snapshots;  // periodic param snapshots
  std::vector<uint64_t> snapshot_iters;
  std::vector<double> extra;  // trainer-specific scalars (e.g. epsilon spent)
};

/// Serializes a checkpoint to the tagged-text payload + checksum
/// trailer (the exact bytes SaveCheckpoint writes).
std::string SerializeCheckpoint(const TrainCheckpoint& ckpt);

/// Parses bytes produced by SerializeCheckpoint. Verifies the checksum
/// trailer before touching the payload; any mismatch, truncation, or
/// malformed field yields an error Status, never UB.
Result<TrainCheckpoint> ParseCheckpoint(const std::string& bytes);

/// Atomically writes `ckpt` to `path` (core/durable WriteFileAtomic).
Status SaveCheckpoint(const TrainCheckpoint& ckpt, const std::string& path);

/// Loads and verifies a checkpoint file.
Result<TrainCheckpoint> LoadCheckpoint(const std::string& path);

/// A directory of checkpoints with retention: Save names files so that
/// lexicographic order is (phase, iter) order, then prunes all but the
/// newest `keep_last`. LoadLatest walks newest to oldest, skipping
/// corrupt files, so one bad write never strands a run.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir, size_t keep_last = 3);

  /// Writes the checkpoint (creating the directory if needed) and
  /// prunes old files beyond keep_last.
  Status Save(const TrainCheckpoint& ckpt);

  /// Newest checkpoint that verifies, or NotFound when the directory
  /// holds none (corrupt-only directories report the newest file's
  /// error). `loaded_from`, when non-null, receives the winning path.
  Result<TrainCheckpoint> LoadLatest(std::string* loaded_from = nullptr) const;

  /// Newest checkpoint that verifies and satisfies `accept` (the
  /// sentinel's durable fallback: a finite rollback baseline), or
  /// NotFound.
  Result<TrainCheckpoint> LoadLatestWhere(
      const std::function<bool(const TrainCheckpoint&)>& accept) const;

  /// Checkpoint file paths in ascending (phase, iter) order.
  std::vector<std::string> ListFiles() const;

  const std::string& dir() const { return dir_; }
  size_t keep_last() const { return keep_last_; }

  /// Basename used for a (phase, iter) pair, e.g.
  /// "ckpt-p0001-i000000000042.daisyckpt".
  static std::string FileName(uint64_t phase, uint64_t iter);

 private:
  std::string dir_;
  size_t keep_last_;
};

}  // namespace daisy::ckpt

#endif  // DAISY_CKPT_CHECKPOINT_H_
