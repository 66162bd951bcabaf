#include "eval/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "core/kernels/kernels.h"
#include "core/parallel.h"

namespace daisy::eval {

void LogisticRegression::Fit(const Matrix& x, const std::vector<size_t>& y,
                             size_t num_classes, Rng* /*rng*/) {
  DAISY_CHECK(x.rows() == y.size() && x.rows() > 0);
  num_classes_ = num_classes;
  num_features_ = x.cols();
  const size_t n = x.rows(), m = x.cols(), k = num_classes;

  mean_.assign(m, 0.0);
  inv_std_.assign(m, 1.0);
  for (size_t j = 0; j < m; ++j) {
    double mu = 0.0;
    for (size_t i = 0; i < n; ++i) mu += x(i, j);
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) var += (x(i, j) - mu) * (x(i, j) - mu);
    var /= static_cast<double>(n);
    mean_[j] = mu;
    inv_std_[j] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
  }

  Matrix xs(n, m);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < m; ++j)
      xs(i, j) = (x(i, j) - mean_[j]) * inv_std_[j];

  weights_ = Matrix(m, k);
  bias_.assign(k, 0.0);

  // Per epoch, the logits of each row start from the bias and add
  // xs(i, j) * W(j, c) in ascending j (gemm_nn: one mul then one add,
  // no FMA); the gradient gw = xsᵀ · (probs - onehot) sums each element
  // over ascending i from 0.0. Row chunks hold whole kTileRows tiles and
  // every row is finished inside its chunk, so the bits depend on
  // neither the thread count nor the ISA (DESIGN §5d).
  const kern::KernelTable& kt = kern::Active();
  Matrix probs(n, k);
  for (size_t epoch = 0; epoch < opts_.epochs; ++epoch) {
    // Forward: softmax(xs W + b).
    par::ParallelFor(0, n, par::RowGrain(2 * m * k, kern::kTileRows),
                     [&](size_t r0, size_t r1) {
      for (size_t i = r0; i < r1; ++i)
        std::copy(bias_.begin(), bias_.end(), probs.row(i));
      kt.gemm_nn(xs.row(r0), m, 1, weights_.data(), k, m, probs.row(r0), k,
                 r1 - r0, k);
      for (size_t i = r0; i < r1; ++i) {
        double* p = probs.row(i);
        double mx = -1e300;
        for (size_t c = 0; c < k; ++c) mx = std::max(mx, p[c]);
        double sum = 0.0;
        for (size_t c = 0; c < k; ++c) {
          // v is 0 only at the row maximum, and exp(0) is exactly 1.0.
          const double v = p[c] - mx;
          p[c] = v == 0.0 ? 1.0 : std::exp(v);
          sum += p[c];
        }
        for (size_t c = 0; c < k; ++c) p[c] /= sum;
      }
    });
    // Gradient step; probs becomes D = probs - onehot in place.
    const double scale = opts_.lr / static_cast<double>(n);
    std::vector<double> gb(k, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double* d = probs.row(i);
      for (size_t c = 0; c < k; ++c) {
        d[c] -= y[i] == c ? 1.0 : 0.0;
        gb[c] += d[c];
      }
    }
    const Matrix gw = xs.TransposeMatMul(probs);
    for (size_t j = 0; j < m; ++j)
      for (size_t c = 0; c < k; ++c)
        weights_(j, c) -=
            scale * (gw(j, c) + opts_.l2 * weights_(j, c) *
                                    static_cast<double>(n));
    for (size_t c = 0; c < k; ++c) bias_[c] -= scale * gb[c];
  }
}

std::vector<double> LogisticRegression::Standardize(const double* x) const {
  std::vector<double> xs(num_features_);
  for (size_t j = 0; j < num_features_; ++j)
    xs[j] = (x[j] - mean_[j]) * inv_std_[j];
  return xs;
}

std::vector<double> LogisticRegression::PredictProba(const double* x) const {
  const auto xs = Standardize(x);
  std::vector<double> probs(num_classes_);
  double mx = -1e300;
  for (size_t c = 0; c < num_classes_; ++c) {
    double s = bias_[c];
    for (size_t j = 0; j < num_features_; ++j) s += xs[j] * weights_(j, c);
    probs[c] = s;
    mx = std::max(mx, s);
  }
  double sum = 0.0;
  for (auto& p : probs) {
    p = std::exp(p - mx);
    sum += p;
  }
  for (auto& p : probs) p /= sum;
  return probs;
}

size_t LogisticRegression::Predict(const double* x) const {
  const auto probs = PredictProba(x);
  return static_cast<size_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

}  // namespace daisy::eval
