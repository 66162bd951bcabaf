// Deterministic random number generation. Every stochastic component in
// the library takes an explicit Rng so experiments are reproducible.
#ifndef DAISY_CORE_RNG_H_
#define DAISY_CORE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"

namespace daisy {

/// xoshiro256** PRNG seeded via splitmix64. Fast, high quality, and
/// deterministic across platforms (unlike distributions in <random>).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (cached pair).
  double Gaussian();

  /// Normal with the given mean / stddev.
  double Gaussian(double mean, double stddev);

  /// Laplace(0, b) noise via inverse CDF.
  double Laplace(double b);

  /// Index drawn from an (unnormalized, non-negative) weight vector.
  /// Returns weights.size()-1 if all weights are zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Fork a new independent stream (e.g. one per worker / component).
  Rng Split();

  /// Complete engine state as opaque words: the four xoshiro words plus
  /// the Box-Muller cache (has_cached flag and cached value bits).
  /// Restoring via SetState resumes the exact output stream, so a
  /// checkpointed run continues bit-for-bit where it left off.
  std::vector<uint64_t> GetState() const;
  static constexpr size_t kStateWords = 6;  // GetState().size()

  /// Restores state captured by GetState. Rejects wrong-sized vectors
  /// and an all-zero xoshiro state (which would lock the engine at 0).
  Status SetState(const std::vector<uint64_t>& state);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace daisy

#endif  // DAISY_CORE_RNG_H_
