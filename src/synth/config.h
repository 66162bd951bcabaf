// Configuration surface of the GAN-based synthesis framework — the
// design space of Figure 3 in the paper, expressed as options.
#ifndef DAISY_SYNTH_CONFIG_H_
#define DAISY_SYNTH_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/sentinel.h"
#include "transform/record_transformer.h"

namespace daisy::synth {

/// Generator neural-network family (paper §5.1).
enum class GeneratorArch { kMlp, kLstm, kCnn };

/// Discriminator family. MLP everywhere except the Table 11 ablation;
/// kBiLstm is this repository's future-work extension (paper §3.2
/// mentions Bidirectional LSTM as unexplored).
enum class DiscriminatorArch { kMlp, kLstm, kBiLstm, kCnn };

/// Training algorithm (paper Table 1).
enum class TrainAlgo { kVTrain, kWTrain, kCTrain, kDPTrain };

/// How DPTrain computes its clipped per-sample gradient sum. Both
/// engines implement the SAME mechanism (clip each record's gradient to
/// c_g, sum, noise the sum) and differ only in floating-point summation
/// grouping; each is bit-identical across thread counts. An explicit
/// kVectorized on a discriminator other than the MLP is refused with a
/// Status (synth/dp_engine.h, ResolveDpEngine).
enum class DpEngineKind {
  kAuto,        ///< Vectorized if supported, else per-sample.
  kPerSample,   ///< Reference: one backward pass per record.
  kVectorized,  ///< Batched norms + scaled GEMMs (Linear-only stacks).
};

/// Minibatch sampler for the non-label-aware algorithms (Figure 2's
/// Sampler box). kUniform draws with replacement from the whole table
/// — the paper's sampler and the default. kChunkedShuffle visits the
/// table as shuffled chunks of shuffle_chunk_rows consecutive records
/// (shuffled within each chunk): one epoch covers every record once,
/// and a minibatch touches O(1) pages of a paged table instead of
/// random-faulting the whole file — the out-of-core mode. The chunked
/// sampler derives its own rng streams from the seed and consumes
/// nothing from the training rng. kTrainingBySampling is CTGAN-style
/// training-by-sampling (DESIGN.md §5i): rare categories are trained
/// orders of magnitude more often; it owns the cond vector, so label
/// conditioning excludes it (ResolveConditionKind, DESIGN.md §5l).
enum class SamplerKind { kUniform, kChunkedShuffle, kTrainingBySampling };

/// Hyper-parameters shared by the architectures and trainers. The
/// sampler choice (Figure 2's Sampler box) is implied by the training
/// algorithm: kCTrain uses label-aware sampling, everything else uses
/// `sampler` (uniform by default).
struct GanOptions {
  GeneratorArch generator = GeneratorArch::kMlp;
  DiscriminatorArch discriminator = DiscriminatorArch::kMlp;
  TrainAlgo algo = TrainAlgo::kVTrain;

  /// Feed the label as a condition vector to G and D (conditional GAN,
  /// paper §5.3). Requires a labeled table; kCTrain implies it.
  bool conditional = false;

  /// Use a deliberately weaker discriminator (1 narrow layer) — the
  /// "Simplified" mode-collapse mitigation of §5.2.
  bool simplified_discriminator = false;

  // Network sizes.
  size_t noise_dim = 32;
  std::vector<size_t> g_hidden = {96, 96};   // MLP generator layers
  std::vector<size_t> d_hidden = {96, 96};   // MLP discriminator layers
  size_t lstm_hidden = 64;                   // LSTM cell width
  size_t lstm_feature = 32;                  // LSTM per-step output f

  // Training.
  size_t iterations = 300;   // generator updates
  size_t batch_size = 64;
  double lr_g = 1e-3;
  double lr_d = 1e-3;
  size_t d_steps = 1;        // discriminator steps per generator step
  SamplerKind sampler = SamplerKind::kUniform;
  size_t shuffle_chunk_rows = 4096;  // kChunkedShuffle chunk size
  double weight_clip = 0.01; // WGAN parameter clipping
  double kl_weight = 1.0;    // VTrain warm-up term weight

  /// RCC-GAN-style critic regularization (arXiv:2205.11693): when > 0,
  /// the discriminator/critic gradient is rescaled before the optimizer
  /// step whenever its global L2 norm exceeds this bound. Tames the
  /// critic's exploding gradients on heavy-tailed numeric columns,
  /// where extreme (but valid) samples otherwise dominate the batch
  /// gradient. 0 disables. Applies to every training algorithm; under
  /// DPTrain the clamp runs after noising (post-processing, so the
  /// privacy accounting is unchanged).
  double critic_reg = 0.0;

  /// Weight of the generator's conditional cross-entropy term under
  /// kTrainingBySampling: penalizes generated rows whose conditioned
  /// attribute's softmax block puts low mass on the requested category.
  /// This is what forces the generator to *use* the cond vector.
  double tbs_ce_weight = 1.0;

  // Differential privacy (DPTrain).
  double dp_noise_scale = 1.0;  // sigma_n
  double dp_grad_bound = 1.0;   // c_g
  DpEngineKind dp_engine = DpEngineKind::kAuto;

  /// Number of evaluation snapshots over the run (paper divides
  /// training into 10 epochs and selects the best on validation).
  size_t snapshots = 10;

  /// Telemetry cadence: when a MetricSink is wired into Train, it
  /// receives one record every log_every iterations (plus the final
  /// iteration, and the failing record on divergence). The divergence
  /// sentinel itself runs every iteration regardless.
  size_t log_every = 1;

  /// Divergence sentinel thresholds (obs/sentinel.h). Set
  /// sentinel.enabled = false to reproduce the old push-NaNs behavior.
  obs::SentinelOptions sentinel;

  /// Crash-safe checkpointing (src/ckpt). With checkpoint_every > 0
  /// and a non-empty checkpoint_dir, the trainer writes an atomic,
  /// checksummed TrainCheckpoint every checkpoint_every iterations and
  /// keeps the newest checkpoint_keep files. With resume set, training
  /// restores the newest valid checkpoint in checkpoint_dir (if any)
  /// and continues bit-for-bit where that run left off: identical
  /// parameters, rng stream and telemetry as an uninterrupted run.
  size_t checkpoint_every = 0;
  std::string checkpoint_dir;
  size_t checkpoint_keep = 3;
  bool resume = false;

  /// Preemption budget: when > 0, the trainer pauses cleanly (no
  /// rollback, no final-snapshot bookkeeping) after this many
  /// iterations in the current process, leaving completion to a later
  /// resumed run. 0 disables. Used by tests and budgeted schedulers to
  /// split one logical run across processes deterministically.
  size_t max_iters_per_run = 0;

  /// Worker threads for the Matrix kernels during training and
  /// generation. 0 keeps the process-wide default (the DAISY_THREADS
  /// environment variable, else hardware_concurrency); any other value
  /// is applied via par::SetNumThreads when Fit starts. Results are
  /// bit-identical for every setting.
  size_t num_threads = 0;

  uint64_t seed = 17;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_CONFIG_H_
