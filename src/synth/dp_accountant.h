// Back-of-envelope (eps, delta) accounting for DPTrain. DPGAN's
// moments accountant is approximated with the standard composition
// bound eps ~= c * q * sqrt(T * ln(1/delta)) / sigma (Abadi et al.),
// which is monotone in sigma and therefore invertible — enough to
// sweep "privacy level" the way the paper's Figure 8 does. Not a
// certified accountant; documented as an approximation in DESIGN.md.
//
// Accounting assumption (matches nn::DpSgdAggregator as used by
// GanTrainer::DpDiscriminatorStep): each record's gradient is clipped
// to c_g BEFORE summation, the SUM receives N(0, (sigma_n c_g)^2 I),
// and sum and noise are divided by B together — the canonical DP-SGD
// mechanism of Abadi et al. Per-sample clipping is what makes the
// per-record L2 sensitivity of the noised sum exactly c_g. (Clipping
// only the batch-averaged gradient bounds the output's norm, not any
// single record's influence on it — sensitivity would stay
// Theta(c_g) while the noise shrank with B, under-noising by ~B.)
//
// The DpSgdEngine execution strategies (per-sample reference and
// vectorized; synth/dp_engine.h) do not change this accounting: both
// clip EVERY record's gradient to c_g before it enters the sum and
// noise the sum once, so the per-record sensitivity is exactly c_g
// regardless of which engine — or how many threads — produced the sum.
// They differ only in floating-point summation grouping.
#ifndef DAISY_SYNTH_DP_ACCOUNTANT_H_
#define DAISY_SYNTH_DP_ACCOUNTANT_H_

#include <cstddef>

namespace daisy::synth {

/// Approximate epsilon spent by `iterations` noisy discriminator
/// updates with sampling rate batch/dataset and noise multiplier
/// `noise_scale`.
double ApproxEpsilon(double noise_scale, size_t iterations, size_t batch,
                     size_t dataset_size, double delta = 1e-5);

/// Inverse of ApproxEpsilon: the noise multiplier needed to stay within
/// `epsilon` over the given training run.
double NoiseForEpsilon(double epsilon, size_t iterations, size_t batch,
                       size_t dataset_size, double delta = 1e-5);

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_DP_ACCOUNTANT_H_
