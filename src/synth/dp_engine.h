// Vectorized DP-SGD discriminator step (the DPTrain hot loop) and its
// per-record reference. Both engines compute the SAME mechanism —
// per-record gradient clipped to c_g, clipped gradients summed,
// Gaussian noise N(0, (sigma_n c_g)^2) added to the sum, sum divided
// by B — so the per-record L2 sensitivity bound of
// synth/dp_accountant.h (exactly c_g) is engine-independent. The
// engines differ only in how the clipped sum is produced:
//
//   kPerSample   B forward/backward pairs, one record at a time — the
//                reference implementation (and the bitwise twin of the
//                original serial trainer loop). Runs any discriminator.
//   kVectorized  For Linear-only stacks: ONE batched forward +
//                delta-propagation per half yields every per-record
//                gradient implicitly (nn/per_sample.h); per-record
//                norms come from the outer-product identity
//                |x d^T|_F^2 = |x|^2 |d|^2, and the clipped sum from
//                one scale-rows + GEMM per layer. O(layers) batched
//                GEMMs instead of 2B backward passes.
//
// kAuto resolves to kVectorized when the discriminator supports it and
// to kPerSample otherwise (ResolveDpEngine). Both engines are
// bit-identical for every DAISY_THREADS value.
#ifndef DAISY_SYNTH_DP_ENGINE_H_
#define DAISY_SYNTH_DP_ENGINE_H_

#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "core/status.h"
#include "nn/optimizer.h"
#include "synth/config.h"
#include "synth/discriminator.h"

namespace daisy::synth {

/// The engine `requested` runs as on `d` — the one place engine
/// support is decided. kAuto is kVectorized when `d` supports it and
/// kPerSample otherwise; an explicit kVectorized on a discriminator
/// that is not a plain Linear/activation stack is InvalidArgument.
Result<DpEngineKind> ResolveDpEngine(Discriminator* d,
                                     DpEngineKind requested);

class DpSgdEngine {
 public:
  /// Runs the engine ResolveDpEngine(d, requested) picks, which must
  /// resolve (an unsupported request is a programming error here;
  /// GanTrainer refuses it with a Status first). `d` must outlive the
  /// engine.
  DpSgdEngine(Discriminator* d, double max_norm, double noise_scale,
              DpEngineKind requested);

  /// The engine actually in use (kAuto resolved).
  DpEngineKind kind() const { return kind_; }

  /// One DP discriminator update on B (real, fake) record pairs: leaves
  /// the noised batch-averaged gradient in d->Params() grads (the
  /// caller applies its optimizer) and returns the discriminator loss.
  /// Pair i (i-th real + i-th fake) is one clipped per-record unit.
  /// `rng` is consumed identically (by Finalize only) in every engine.
  double Step(const Matrix& real, const Matrix& real_cond, const Matrix& fake,
              const Matrix& fake_cond, bool wasserstein, Rng* rng);

  /// L2 norm of the clipped pre-noise gradient sum of the last Step.
  double last_sum_norm() const { return last_sum_norm_; }

  /// Pre-clip per-record gradient norms from the last Step, index-
  /// aligned with the batch (testing / telemetry).
  const std::vector<double>& last_sample_norms() const {
    return last_sample_norms_;
  }

 private:
  double StepPerSample(const Matrix& real, const Matrix& real_cond,
                       const Matrix& fake, const Matrix& fake_cond,
                       bool wasserstein);
  double StepVectorized(const Matrix& real, const Matrix& real_cond,
                        const Matrix& fake, const Matrix& fake_cond,
                        bool wasserstein);

  Discriminator* d_;
  double max_norm_;
  double noise_scale_;
  DpEngineKind kind_;

  nn::DpSgdAggregator agg_;

  // Reusable per-record scratch rows for the serial reference path
  // (hoisted out of the inner loop; see Matrix::CopyRowFrom).
  Matrix x_row_;
  Matrix c_row_;

  double last_sum_norm_ = 0.0;
  std::vector<double> last_sample_norms_;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_DP_ENGINE_H_
