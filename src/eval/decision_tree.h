// CART decision tree (Gini impurity, axis-aligned threshold splits).
// Also the base learner for the random forest and, at depth 1, the
// AdaBoost stumps.
//
// The split search is presorted (DESIGN §5d): each feature is sorted
// once per fit into a FeatureOrder, and a split stable-partitions every
// feature's list, so each node scans its rows in (value, row) order
// without sorting them again. AdaBoost and the random forest sort once
// and share that order with every tree they grow.
#ifndef DAISY_EVAL_DECISION_TREE_H_
#define DAISY_EVAL_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "eval/classifier.h"

namespace daisy::eval {

struct DecisionTreeOptions {
  size_t max_depth = 10;
  size_t min_samples_split = 2;
  /// Features considered per split; 0 = all (random forests pass
  /// ~sqrt(m) for decorrelated trees).
  size_t max_features = 0;
};

/// Every feature's row ids in ascending (x(row, f), row) order: the
/// order a sort of the (value, row) pairs of any subset of rows gives
/// for that subset. Built once per fit, read-only afterwards.
class FeatureOrder {
 public:
  explicit FeatureOrder(const Matrix& x);

  size_t rows() const { return rows_; }
  /// Feature f's list, rows() ids long.
  const uint32_t* list(size_t f) const { return ids_.data() + f * rows_; }

 private:
  friend class DecisionTree;  // a tree partitions an order it sorted itself

  size_t rows_;
  std::vector<uint32_t> ids_;  // one list per feature, back to back
};

class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeOptions opts = {}) : opts_(opts) {}

  void Fit(const Matrix& x, const std::vector<size_t>& y, size_t num_classes,
           Rng* rng) override;
  /// Weighted fit (AdaBoost). Weights need not be normalized.
  void FitWeighted(const Matrix& x, const std::vector<size_t>& y,
                   const std::vector<double>& weights, size_t num_classes,
                   Rng* rng);
  /// FitWeighted over a FeatureOrder of x, shared across fits.
  void FitWeighted(const Matrix& x, const std::vector<size_t>& y,
                   const std::vector<double>& weights,
                   const FeatureOrder& order, size_t num_classes, Rng* rng);
  /// Fit on a bootstrap sample given as per-row multiplicities (whole
  /// numbers; 0 = out of bag). The same tree as a Fit on the gathered
  /// sample: every count is a sum of whole numbers, so merging a row's
  /// copies changes no partial sum.
  void FitBootstrap(const Matrix& x, const std::vector<size_t>& y,
                    const std::vector<double>& counts,
                    const FeatureOrder& order, size_t num_classes, Rng* rng);

  size_t Predict(const double* x) const override;
  std::vector<double> PredictProba(const double* x) const override;
  /// The class distribution of the leaf x falls in (num_classes values).
  const double* LeafProba(const double* x) const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    int left = -1;    // -1 marks a leaf
    int right = -1;
    size_t feature = 0;
    double threshold = 0.0;
  };
  struct Grower;

  void FitAllRows(Grower* g, Rng* rng);
  void Grow(Grower* g, Rng* rng);
  int Build(Grower* g, size_t begin, size_t end, size_t depth, Rng* rng);

  DecisionTreeOptions opts_;
  size_t num_classes_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> probs_;  // each node's class distribution, in order
};

}  // namespace daisy::eval

#endif  // DAISY_EVAL_DECISION_TREE_H_
