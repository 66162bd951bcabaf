#include "nn/batchnorm.h"

#include <cmath>

namespace daisy::nn {

BatchNorm1d::BatchNorm1d(size_t features, double momentum, double eps)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Matrix(1, features, 1.0)),
      beta_("bn.beta", Matrix(1, features, 0.0)),
      running_mean_(1, features, 0.0),
      running_var_(1, features, 1.0) {}

Matrix BatchNorm1d::Forward(const Matrix& x, bool training) {
  DAISY_CHECK(x.cols() == features_);
  Matrix mean(1, features_);
  Matrix var(1, features_);
  if (training && x.rows() > 1) {
    mean = x.ColMean();
    for (size_t r = 0; r < x.rows(); ++r)
      for (size_t c = 0; c < features_; ++c) {
        const double d = x(r, c) - mean(0, c);
        var(0, c) += d * d;
      }
    var *= 1.0 / static_cast<double>(x.rows());
    // Normalization uses the biased (/N) batch variance, but the
    // running statistic folds in the unbiased (/(N-1)) estimate so that
    // eval-mode inference is not systematically too sharp at small
    // batch sizes (matches PyTorch/TF BatchNorm semantics).
    const double unbias = static_cast<double>(x.rows()) /
                          (static_cast<double>(x.rows()) - 1.0);
    for (size_t c = 0; c < features_; ++c) {
      running_mean_(0, c) =
          (1.0 - momentum_) * running_mean_(0, c) + momentum_ * mean(0, c);
      running_var_(0, c) = (1.0 - momentum_) * running_var_(0, c) +
                           momentum_ * var(0, c) * unbias;
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  cached_inv_std_ = Matrix(1, features_);
  for (size_t c = 0; c < features_; ++c)
    cached_inv_std_(0, c) = 1.0 / std::sqrt(var(0, c) + eps_);

  cached_xhat_ = Matrix(x.rows(), features_);
  Matrix y(x.rows(), features_);
  for (size_t r = 0; r < x.rows(); ++r)
    for (size_t c = 0; c < features_; ++c) {
      cached_xhat_(r, c) = (x(r, c) - mean(0, c)) * cached_inv_std_(0, c);
      y(r, c) = gamma_.value(0, c) * cached_xhat_(r, c) + beta_.value(0, c);
    }
  return y;
}

Matrix BatchNorm1d::InferenceForward(const Matrix& x) const {
  DAISY_CHECK(x.cols() == features_);
  // Mirrors the eval branch of Forward expression-for-expression so the
  // two paths agree to the last bit.
  Matrix inv_std(1, features_);
  for (size_t c = 0; c < features_; ++c)
    inv_std(0, c) = 1.0 / std::sqrt(running_var_(0, c) + eps_);

  Matrix y(x.rows(), features_);
  for (size_t r = 0; r < x.rows(); ++r)
    for (size_t c = 0; c < features_; ++c) {
      const double xhat = (x(r, c) - running_mean_(0, c)) * inv_std(0, c);
      y(r, c) = gamma_.value(0, c) * xhat + beta_.value(0, c);
    }
  return y;
}

Matrix BatchNorm1d::Backward(const Matrix& grad_out) {
  DAISY_CHECK(grad_out.SameShape(cached_xhat_));
  const size_t n = grad_out.rows();
  const double inv_n = 1.0 / static_cast<double>(n);

  // Parameter gradients.
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < features_; ++c) {
      gamma_.grad(0, c) += grad_out(r, c) * cached_xhat_(r, c);
      beta_.grad(0, c) += grad_out(r, c);
    }

  // Input gradient using the standard batch-norm backward formula:
  // dx = (gamma * inv_std / N) * (N*g - sum(g) - xhat * sum(g*xhat)).
  Matrix sum_g(1, features_);
  Matrix sum_gx(1, features_);
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < features_; ++c) {
      sum_g(0, c) += grad_out(r, c);
      sum_gx(0, c) += grad_out(r, c) * cached_xhat_(r, c);
    }

  Matrix gx(n, features_);
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < features_; ++c) {
      const double term = static_cast<double>(n) * grad_out(r, c) -
                          sum_g(0, c) - cached_xhat_(r, c) * sum_gx(0, c);
      gx(r, c) = gamma_.value(0, c) * cached_inv_std_(0, c) * inv_n * term;
    }
  return gx;
}

}  // namespace daisy::nn
