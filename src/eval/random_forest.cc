#include "eval/random_forest.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"

namespace daisy::eval {

void RandomForest::Fit(const Matrix& x, const std::vector<size_t>& y,
                       size_t num_classes, Rng* rng) {
  DAISY_CHECK(x.rows() == y.size() && x.rows() > 0);
  num_classes_ = num_classes;

  size_t max_features = opts_.max_features;
  if (max_features == 0) {
    max_features = std::max<size_t>(
        1, static_cast<size_t>(std::llround(
               std::sqrt(static_cast<double>(x.cols())))));
  }
  DecisionTreeOptions topts;
  topts.max_depth = opts_.max_depth;
  topts.max_features = max_features;
  trees_.assign(opts_.num_trees, DecisionTree(topts));

  // One independent deterministic stream per tree, split from the
  // caller's rng serially up front (the PATE-GAN teacher pattern): each
  // tree draws its bootstrap sample and split features from its own
  // stream and writes only its own slot, so the bagging fan-out is
  // bitwise identical for any thread count. The trees share one
  // read-only presort of x.
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(opts_.num_trees);
  for (size_t t = 0; t < opts_.num_trees; ++t)
    tree_rngs.push_back(rng->Split());
  const FeatureOrder order(x);

  par::ParallelFor(0, opts_.num_trees, 1, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      Rng& trng = tree_rngs[t];
      std::vector<double> counts(x.rows(), 0.0);
      for (size_t i = 0; i < x.rows(); ++i)
        counts[trng.UniformInt(x.rows())] += 1.0;
      trees_[t].FitBootstrap(x, y, counts, order, num_classes, &trng);
    }
  });
}

std::vector<double> RandomForest::PredictProba(const double* x) const {
  DAISY_CHECK(!trees_.empty());
  std::vector<double> probs(num_classes_, 0.0);
  for (const auto& tree : trees_) {
    const double* p = tree.LeafProba(x);
    for (size_t c = 0; c < num_classes_; ++c) probs[c] += p[c];
  }
  for (auto& p : probs) p /= static_cast<double>(trees_.size());
  return probs;
}

size_t RandomForest::Predict(const double* x) const {
  const auto probs = PredictProba(x);
  return static_cast<size_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

}  // namespace daisy::eval
