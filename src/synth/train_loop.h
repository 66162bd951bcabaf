// The one training loop. GanTrainer, the VAE, PATE-GAN and both medGAN
// phases hand it a per-iteration step plus the lists of state a
// checkpoint must capture; the loop owns everything around the step:
// resume and its validation, the divergence sentinel with its
// in-memory rollback and durable on-disk fallback, telemetry cadence,
// the ".ckpt" record, checkpoint cadence, the max_iters_per_run pause
// and the final Flush. The policy lives here once, so every method
// refuses the same bad checkpoints the same way.
#ifndef DAISY_SYNTH_TRAIN_LOOP_H_
#define DAISY_SYNTH_TRAIN_LOOP_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/rng.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace daisy::synth {

/// One training phase as a method hands it to TrainLoop::Run. The
/// vectors hold live state the loop reads, checkpoints and restores;
/// their order is the checkpoint's order.
struct LoopPhase {
  uint64_t phase = 0;     // checkpoint phase id
  std::string tag;        // telemetry run tag, e.g. "medgan.pretrain"
  size_t iterations = 0;  // this phase's run length
  /// A later phase still has work, so the pause may fire after this
  /// phase's last iteration.
  bool more_after = false;

  /// Everything the phase trains.
  std::vector<nn::Parameter*> params;
  std::vector<Matrix*> buffers;
  /// The generation path: the sentinel's rollback target, and what
  /// each record's param_norm measures.
  std::vector<nn::Parameter*> healthy_params;
  std::vector<Matrix*> healthy_buffers;
  std::vector<nn::Optimizer*> optimizers;
  /// Rng streams, concatenated into the checkpoint's word vector.
  std::vector<Rng*> rngs;
  /// Method scalars carried in the checkpoint's `extra` vector.
  std::vector<double*> extras;

  /// Runs iteration `iter` (0-based) and returns its losses and grad
  /// norms; the loop stamps run, iter, param_norm, timings, threads
  /// and seed. An error (training data that cannot be read) stops the
  /// phase like a sentinel trip, with the error as its health.
  std::function<Result<obs::MetricRecord>(size_t iter)> step;
  /// Optional: called with each healthy record, before its checkpoint.
  std::function<void(const obs::MetricRecord&)> on_healthy;
  /// Optional hooks for payload beyond the lists above (GAN's loss
  /// traces and snapshots): check a checkpoint before anything is
  /// mutated, apply an accepted one, fill one being saved.
  std::function<Status(const ckpt::TrainCheckpoint&)> validate;
  std::function<void(const ckpt::TrainCheckpoint&)> apply;
  std::function<void(ckpt::TrainCheckpoint*)> save;
};

/// How one TrainLoop::Run ended.
struct LoopOutcome {
  /// OK when the phase ran to completion or paused; otherwise why it
  /// stopped (a failed step, a sentinel trip or a failed checkpoint
  /// save, after which the generation path holds its last healthy
  /// state) or, with
  /// `refused`, why it never started.
  Status health;
  /// The resume was refused: nothing was trained and no parameter,
  /// buffer, optimizer or rng was touched.
  bool refused = false;
  /// Stopped on LoopOptions::max_iters_per_run (health stays OK).
  bool paused = false;
  size_t completed_iters = 0;  // healthy iterations, resumed ones included
};

/// Drives one method's training, one Run per phase in phase order. A
/// multi-phase method (medGAN) keeps one TrainLoop across its phases:
/// the newest checkpoint is loaded once, a phase before the
/// checkpoint's is skipped as finished, and the pause budget counts
/// iterations across phases.
class TrainLoop {
 public:
  /// `run` tags the checkpoints and `seed` is the method's base seed;
  /// both are checked on resume, as is the checkpoint's phase against
  /// `num_phases`. `sink` may be null.
  TrainLoop(const LoopOptions& options, std::string run, uint64_t seed,
            uint64_t num_phases, obs::MetricSink* sink);

  LoopOutcome Run(const LoopPhase& phase);

 private:
  // Restores the pending checkpoint if it belongs to `phase`: sets
  // *start (the phase's iterations when a later phase's checkpoint
  // proves it finished) and the rollback baselines. A non-OK return is
  // a refusal, made before any mutation.
  Status Resume(const LoopPhase& phase, size_t* start, StateDict* healthy,
                StateDict* healthy_buffers);
  Status Check(const ckpt::TrainCheckpoint& c, const LoopPhase& phase) const;
  ckpt::TrainCheckpoint MakeCheckpoint(const LoopPhase& phase, size_t done,
                                       const StateDict& healthy,
                                       const StateDict& healthy_buffers) const;
  // After a failed run: puts the generation path back to its last
  // healthy state, preferring the newest finite on-disk baseline of
  // this phase when the in-memory one is poisoned.
  void RollBack(const LoopPhase& phase, StateDict* healthy,
                StateDict* healthy_buffers) const;

  LoopOptions opts_;
  std::string run_;
  uint64_t seed_;
  uint64_t num_phases_;
  obs::MetricSink* sink_;
  obs::WallTimer run_timer_;
  std::unique_ptr<ckpt::CheckpointStore> store_;  // null without a dir
  bool loaded_ = false;  // the resume checkpoint has been looked up
  std::optional<ckpt::TrainCheckpoint> pending_;  // loaded, not yet applied
  size_t iters_this_run_ = 0;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_TRAIN_LOOP_H_
