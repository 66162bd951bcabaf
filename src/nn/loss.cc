#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "core/status.h"

namespace daisy::nn {

double BceLoss(const Matrix& probs, const Matrix& targets, Matrix* grad) {
  DAISY_CHECK(probs.SameShape(targets));
  const double n = static_cast<double>(probs.size());
  double loss = 0.0;
  *grad = Matrix(probs.rows(), probs.cols());
  constexpr double kEps = 1e-12;
  for (size_t r = 0; r < probs.rows(); ++r) {
    for (size_t c = 0; c < probs.cols(); ++c) {
      const double p = std::clamp(probs(r, c), kEps, 1.0 - kEps);
      const double t = targets(r, c);
      loss += -(t * std::log(p) + (1.0 - t) * std::log(1.0 - p));
      (*grad)(r, c) = (p - t) / (p * (1.0 - p)) / n;
    }
  }
  return loss / n;
}

double BceWithLogitsLoss(const Matrix& logits, const Matrix& targets,
                         Matrix* grad) {
  DAISY_CHECK(logits.SameShape(targets));
  const double n = static_cast<double>(logits.size());
  double loss = 0.0;
  *grad = Matrix(logits.rows(), logits.cols());
  for (size_t r = 0; r < logits.rows(); ++r) {
    for (size_t c = 0; c < logits.cols(); ++c) {
      const double x = logits(r, c);
      const double t = targets(r, c);
      // log(1+exp(-|x|)) + max(x,0) - x*t is the stable form.
      const double e = std::exp(-std::fabs(x));
      loss += std::log1p(e) + std::max(x, 0.0) - x * t;
      // Two-sided sigmoid: exp only sees -|x|, so x = -750 gives
      // p = 0 exactly instead of 1/(1+inf) passing through overflow
      // (and x = +750 no longer risks exp(-x) -> 0/0 style traps).
      const double p = x >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
      (*grad)(r, c) = (p - t) / n;
    }
  }
  return loss / n;
}

}  // namespace daisy::nn
