#include "eval/adaboost.h"

#include <algorithm>
#include <cmath>

namespace daisy::eval {

void AdaBoost::Fit(const Matrix& x, const std::vector<size_t>& y,
                   size_t num_classes, Rng* rng) {
  DAISY_CHECK(x.rows() == y.size() && x.rows() > 0);
  DAISY_CHECK(num_classes >= 2);
  num_classes_ = num_classes;
  estimators_.clear();
  alphas_.clear();

  const size_t n = x.rows();
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  const double k = static_cast<double>(num_classes);
  // Every round fits the same x under new weights: sort it once.
  const FeatureOrder order(x);

  for (size_t t = 0; t < opts_.num_estimators; ++t) {
    DecisionTreeOptions topts;
    topts.max_depth = opts_.base_depth;
    DecisionTree stump(topts);
    stump.FitWeighted(x, y, weights, order, num_classes, rng);

    double err = 0.0;
    std::vector<bool> wrong(n);
    for (size_t i = 0; i < n; ++i) {
      wrong[i] = stump.Predict(x.row(i)) != y[i];
      if (wrong[i]) err += weights[i];
    }
    // SAMME requires err < 1 - 1/K; stop if the learner is no better
    // than chance, and bail out early on a perfect learner.
    if (err <= 1e-12) {
      estimators_.push_back(std::move(stump));
      alphas_.push_back(10.0);  // effectively decides alone
      break;
    }
    if (err >= 1.0 - 1.0 / k) break;

    const double alpha = std::log((1.0 - err) / err) + std::log(k - 1.0);
    estimators_.push_back(std::move(stump));
    alphas_.push_back(alpha);

    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (wrong[i]) weights[i] *= std::exp(alpha);
      sum += weights[i];
    }
    for (auto& w : weights) w /= sum;
  }

  if (estimators_.empty()) {
    // Degenerate data: fall back to a single stump.
    DecisionTreeOptions topts;
    topts.max_depth = opts_.base_depth;
    estimators_.emplace_back(topts);
    estimators_.back().FitWeighted(x, y, std::vector<double>(n, 1.0), order,
                                   num_classes, rng);
    alphas_.push_back(1.0);
  }
}

std::vector<double> AdaBoost::PredictProba(const double* x) const {
  std::vector<double> votes(num_classes_, 0.0);
  for (size_t t = 0; t < estimators_.size(); ++t)
    votes[estimators_[t].Predict(x)] += alphas_[t];
  double sum = 0.0;
  for (double v : votes) sum += v;
  if (sum <= 0.0) {
    std::fill(votes.begin(), votes.end(),
              1.0 / static_cast<double>(num_classes_));
    return votes;
  }
  for (auto& v : votes) v /= sum;
  return votes;
}

size_t AdaBoost::Predict(const double* x) const {
  const auto probs = PredictProba(x);
  return static_cast<size_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

}  // namespace daisy::eval
