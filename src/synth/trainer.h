// Phase II of the framework: adversarial training. Implements the four
// algorithms of paper Table 1 / Appendix A.2 over any Generator /
// Discriminator pair:
//
//   VTrain  — vanilla GAN, Adam, random sampling, non-saturating G loss
//             plus the per-attribute KL warm-up of Eq. (2)
//   WTrain  — Wasserstein GAN, RMSProp, d_steps critic iterations,
//             weight clipping (Algorithm 2)
//   CTrain  — conditional GAN with label-aware sampling (Algorithm 3)
//   DPTrain — WTrain plus clipped & noised discriminator gradients
//             (Algorithm 4, DPGAN)
#ifndef DAISY_SYNTH_TRAINER_H_
#define DAISY_SYNTH_TRAINER_H_

#include <memory>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/rng.h"
#include "data/table.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "synth/condition.h"
#include "synth/config.h"
#include "synth/dp_engine.h"
#include "synth/discriminator.h"
#include "synth/generator.h"
#include "synth/kl_regularizer.h"
#include "synth/sampler.h"
#include "synth/train_source.h"
#include "transform/record_transformer.h"

namespace daisy::synth {

/// What a training run produces: loss traces and periodic generator
/// snapshots for validation-based model selection (paper §6.2).
///
/// Health contract: `health` is OK when all requested iterations ran;
/// otherwise why training stopped early or never started (divergence
/// detected by the sentinel, refused data, an unusable checkpoint).
/// The loss traces and `completed_iters` cover only healthy
/// iterations — no NaN/Inf ever lands in them while the sentinel is
/// enabled — and the last snapshot is the last healthy generator
/// state, which is also what the generator's parameters hold after
/// Train returns.
struct TrainResult {
  std::vector<double> g_losses;        // one entry per generator update
  std::vector<double> d_losses;
  std::vector<StateDict> snapshots;    // GanOptions::snapshots entries
  std::vector<size_t> snapshot_iters;
  Status health;                       // OK, or why the run stopped early
  size_t completed_iters = 0;          // healthy iterations applied

  /// True when the run stopped early because it exhausted
  /// GanOptions::max_iters_per_run (health stays OK). A paused run did
  /// no rollback / final-snapshot bookkeeping; resume it from its
  /// checkpoint directory to finish.
  bool paused = false;
};

/// Runs one of the four training algorithms. The trainer does not own
/// the networks; the caller keeps them for generation afterwards.
class GanTrainer {
 public:
  GanTrainer(Generator* generator, Discriminator* discriminator,
             const transform::RecordTransformer* transformer,
             const GanOptions& options);

  /// Trains on `table` (already the training split); data the
  /// condition source refuses, or a DP engine the discriminator cannot
  /// run (ResolveDpEngine), is an InvalidArgument health. When `sink`
  /// is non-null it receives one obs::MetricRecord every
  /// options.log_every iterations (losses, global grad norms, generator
  /// param norm, wall-clock timings); the divergence sentinel
  /// (options.sentinel) is checked every iteration either way, and its
  /// verdict lands in TrainResult::health.
  TrainResult Train(const data::Table& table, Rng* rng,
                    obs::MetricSink* sink = nullptr);

  /// Same training loop over any TrainDataSource — the out-of-core
  /// entry point (Train(table) is a thin wrapper over an
  /// InMemoryTrainSource). For a fixed options/seed/source content the
  /// run is bitwise identical whichever source implementation serves
  /// it, because encoded batches are (see train_source.h).
  TrainResult Train(const TrainDataSource& source, Rng* rng,
                    obs::MetricSink* sink = nullptr);

  /// Same loop with a caller-built condition source (MakeConditionSource
  /// over `source`, e.g. with parent rows); the networks' cond width
  /// must equal cond.dim().
  TrainResult Train(const TrainDataSource& source,
                    const ConditionSource& cond, Rng* rng,
                    obs::MetricSink* sink = nullptr);

 private:
  // One discriminator update on given real rows + equally sized fake
  // batch; returns the discriminator loss: BCE-with-logits, or the
  // critic score under WTrain/DPTrain. Under DPTrain the gradient comes
  // from DpSgdEngine (options.dp_engine picks the implementation).
  double DiscriminatorStep(const Matrix& real, const Matrix& real_cond,
                           const Matrix& fake, const Matrix& fake_cond,
                           Rng* rng);

  // One generator update; returns the generator loss. `real_ref` is a
  // real minibatch for the KL warm-up (empty to skip the term). The
  // condition source adds its own loss term for the batch generated
  // under `cond` (TBS's conditional cross-entropy).
  double GeneratorStep(const Matrix& z, const Matrix& cond,
                       const Matrix& real_ref, const ConditionSource& source);

  Matrix SampleNoise(size_t m, Rng* rng) const;

  // A run that stops before its first iteration: `why` as health, the
  // current generator as the last snapshot.
  TrainResult StopBeforeTraining(Status why, obs::MetricSink* sink);

  // Snapshots the complete mutable training state after `completed`
  // iterations: G+D parameter values and buffers, both optimizer
  // blobs, the rng engine, loss traces / snapshots accumulated so far,
  // the sentinel baselines and the telemetry cursor.
  ckpt::TrainCheckpoint MakeCheckpoint(size_t completed, uint64_t cursor,
                                       const TrainResult& result,
                                       const StateDict& last_healthy,
                                       const StateDict& last_healthy_buffers,
                                       Rng* rng);

  // Applies a checkpoint produced by MakeCheckpoint. Validates run
  // tag, configured length, seed and every shape BEFORE mutating
  // anything, so a mismatched or hostile checkpoint leaves the trainer
  // untouched.
  Status RestoreFromCheckpoint(const ckpt::TrainCheckpoint& c, Rng* rng,
                               obs::MetricSink* sink, TrainResult* result,
                               StateDict* last_healthy,
                               StateDict* last_healthy_buffers,
                               size_t* start_iter);

  Generator* g_;
  Discriminator* d_;
  const transform::RecordTransformer* transformer_;
  GanOptions opts_;
  KlRegularizer kl_;
  const bool wasserstein_;  // WTrain/DPTrain: critic losses, RMSProp, clipping

  // Telemetry captured by the step functions: the global grad norm
  // right after the backward pass (before the optimizer applies it).
  // With multiple D steps (or strata) per iteration, the last step's
  // value is what gets logged.
  double last_d_grad_norm_ = 0.0;
  double last_g_grad_norm_ = 0.0;
  // CTrain only: labels with zero training records in the last
  // iteration (skipped silently before; now surfaced per record).
  size_t last_starved_labels_ = 0;

  std::unique_ptr<nn::Optimizer> g_opt_;
  std::unique_ptr<nn::Optimizer> d_opt_;
  // Non-null iff algo == kDPTrain and the requested engine resolved.
  // When it did not, refusal_ says why and every Train stops before
  // training.
  std::unique_ptr<DpSgdEngine> dp_engine_;
  Status refusal_;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_TRAINER_H_
