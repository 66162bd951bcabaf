#include "core/rng.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "core/status.h"

namespace daisy {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  DAISY_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Laplace(double b) {
  const double u = Uniform() - 0.5;
  return -b * std::copysign(std::log(1.0 - 2.0 * std::fabs(u)), u);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  DAISY_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    DAISY_CHECK(w >= 0.0);
    total += w;
  }
  if (total <= 0.0) return weights.size() - 1;
  double x = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = UniformInt(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::Split() { return Rng(Next() ^ 0xA5A5A5A5DEADBEEFULL); }

std::vector<uint64_t> Rng::GetState() const {
  return {s_[0], s_[1], s_[2], s_[3],
          has_cached_gaussian_ ? 1ULL : 0ULL,
          std::bit_cast<uint64_t>(cached_gaussian_)};
}

Status Rng::SetState(const std::vector<uint64_t>& state) {
  if (state.size() != kStateWords) {
    return Status::InvalidArgument("rng state must hold 6 words, got " +
                                   std::to_string(state.size()));
  }
  if ((state[0] | state[1] | state[2] | state[3]) == 0) {
    return Status::InvalidArgument("all-zero xoshiro state");
  }
  if (state[4] > 1) {
    return Status::InvalidArgument("rng cached-gaussian flag must be 0 or 1");
  }
  for (size_t i = 0; i < 4; ++i) s_[i] = state[i];
  has_cached_gaussian_ = state[4] == 1;
  cached_gaussian_ = std::bit_cast<double>(state[5]);
  return Status::OK();
}

}  // namespace daisy
