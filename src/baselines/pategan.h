// PATE-GAN (Jordon, Yoon & van der Schaar, ICLR'19) — the paper cites
// it ([30], §8 direction 1) as the other route to differentially
// private GAN synthesis, complementing DPGAN. k teacher discriminators
// are trained on disjoint partitions of the real data; a student
// discriminator sees ONLY generated samples labeled by Laplace-noised
// teacher votes, and the generator trains against the student. Privacy
// follows from the PATE mechanism: the real data influences the
// student (and hence the generator) only through noisy aggregate
// votes.
#ifndef DAISY_BASELINES_PATEGAN_H_
#define DAISY_BASELINES_PATEGAN_H_

#include <memory>
#include <vector>

#include "data/table.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "synth/config.h"
#include "synth/kl_regularizer.h"
#include "synth/mlp_nets.h"
#include "transform/record_transformer.h"

namespace daisy::baselines {

/// The loop knobs (LoopOptions) count iterations. A checkpoint captures
/// the generator, student, and all k teachers (parameters, optimizer
/// moments, and batch-norm buffers), the k+1 rng streams, and the
/// epsilon ledger, so a resumed run replays bit-for-bit and keeps
/// honest privacy accounting.
struct PateGanOptions : synth::LoopOptions {
  size_t num_teachers = 5;
  /// Per-query privacy parameter: teacher vote counts get
  /// Laplace(2/lambda) noise and each labeled sample consumes ~lambda
  /// of (pure) epsilon budget. Small lambda = strong privacy but
  /// noisy votes; with k teachers the votes stay informative while the
  /// noise scale 2/lambda is below ~k/2.
  double lambda = 2.0;
  size_t iterations = 200;
  size_t batch_size = 32;
  /// Student updates per generator update.
  size_t student_steps = 1;
  double lr = 1e-3;
  /// Teachers learn slower than the generator so the student's labels
  /// keep carrying gradient signal instead of saturating at "fake".
  double teacher_lr = 1e-4;
  /// Budget for the one-shot noisy-marginal query that anchors the
  /// generator's marginals (prevents the cold-start collapse PATE-GAN
  /// exhibits at small scale; see the .cc for the mechanism). Set to 0
  /// to disable the anchor entirely.
  double marginal_epsilon = 0.1;
  /// Weight of the marginal-anchor term in the generator loss.
  double marginal_weight = 1.0;
  size_t noise_dim = 16;
  std::vector<size_t> hidden = {64, 64};

  uint64_t seed = 29;
};

class PateGanSynthesizer {
 public:
  PateGanSynthesizer(const PateGanOptions& options,
                     const transform::TransformOptions& transform_opts);

  /// Trains teachers/student/generator. A non-null `sink` receives one
  /// record per log_every iterations (student loss in d_loss, generator
  /// loss in g_loss). Returns OK, or why the sentinel stopped the
  /// run — in which case the generator is rolled back to the last
  /// healthy iteration, so Generate() still samples from sane weights.
  /// A checkpoint that does not fit the run (with resume set) is
  /// refused before training and leaves PATE-GAN unfitted.
  Status Fit(const data::Table& train, obs::MetricSink* sink = nullptr);
  data::Table Generate(size_t n, Rng* rng);

  /// Loose pure-DP composition bound on the epsilon consumed by the
  /// noisy vote queries (lambda per labeled sample). Not a moments
  /// accountant; monotone in lambda and query count, which is what the
  /// privacy/utility sweeps need.
  double ApproxEpsilonSpent() const { return epsilon_spent_; }

  /// True once Fit trained (even if it stopped early).
  bool fitted() const { return fitted_; }

  /// Every parameter's then every buffer's current value, generator
  /// first, then student and teachers (for tests).
  synth::StateDict ParamState();

  /// True when the last Fit stopped early on max_iters_per_run.
  bool paused() const { return paused_; }

 private:
  PateGanOptions opts_;
  transform::TransformOptions topts_;
  Rng rng_;

  std::unique_ptr<transform::RecordTransformer> transformer_;
  std::unique_ptr<synth::MlpGenerator> generator_;
  std::vector<std::unique_ptr<synth::MlpDiscriminator>> teachers_;
  std::unique_ptr<synth::MlpDiscriminator> student_;
  std::unique_ptr<nn::Optimizer> g_opt_;
  std::vector<std::unique_ptr<nn::Optimizer>> teacher_opts_;
  std::unique_ptr<nn::Optimizer> student_opt_;
  std::unique_ptr<synth::KlRegularizer> anchor_;
  Matrix anchor_targets_;  // 2 pseudo-rows encoding noised marginals

  double epsilon_spent_ = 0.0;
  bool fitted_ = false;
  bool paused_ = false;
};

}  // namespace daisy::baselines

#endif  // DAISY_BASELINES_PATEGAN_H_
