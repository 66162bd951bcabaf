#include "eval/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/parallel.h"

namespace daisy::eval {

namespace {

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / total;
    g -= p * p;
  }
  return g;
}

}  // namespace

FeatureOrder::FeatureOrder(const Matrix& x)
    : rows_(x.rows()), ids_(x.rows() * x.cols()) {
  DAISY_CHECK(x.rows() <= std::numeric_limits<uint32_t>::max());
  // Each feature's list is written by one chunk: the same lists for any
  // thread count.
  par::ParallelFor(0, x.cols(), 1, [&](size_t f0, size_t f1) {
    std::vector<double> col(rows_);
    for (size_t f = f0; f < f1; ++f) {
      for (size_t r = 0; r < rows_; ++r) col[r] = x(r, f);
      uint32_t* ids = ids_.data() + f * rows_;
      std::iota(ids, ids + rows_, 0u);
      std::sort(ids, ids + rows_, [&col](uint32_t a, uint32_t b) {
        return col[a] < col[b] || (!(col[b] < col[a]) && a < b);
      });
    }
  });
}

// One fit's working state. `indices` holds the rows of the node being
// built at [begin, end); every feature's list holds the same rows at the
// same positions, in (value, row) order.
struct DecisionTree::Grower {
  Grower(const Matrix& x, const std::vector<size_t>& y,
         const std::vector<double>& w, size_t num_classes)
      : x(x), y(y), w(w), num_classes(num_classes) {}

  const Matrix& x;
  const std::vector<size_t>& y;
  const std::vector<double>& w;
  size_t num_classes;
  // w holds bootstrap multiplicities: a node's record count (for
  // min_samples_split) is then its total weight, not its row count.
  bool w_counts = false;
  std::vector<uint32_t> indices;
  // Feature f's list starts at lists + f * stride.
  const uint32_t* lists = nullptr;
  size_t stride = 0;
  // Backing store of `lists` when splits partition them; empty when a
  // stump reads a shared FeatureOrder directly.
  std::vector<uint32_t> own;
  std::vector<uint8_t> goes_left;  // per row of x, set by each split
  std::vector<uint32_t> scratch;
};

void DecisionTree::Fit(const Matrix& x, const std::vector<size_t>& y,
                       size_t num_classes, Rng* rng) {
  FitWeighted(x, y, std::vector<double>(y.size(), 1.0), num_classes, rng);
}

void DecisionTree::FitWeighted(const Matrix& x, const std::vector<size_t>& y,
                               const std::vector<double>& weights,
                               size_t num_classes, Rng* rng) {
  // The order is this fit's alone, so splits partition it in place.
  FeatureOrder order(x);
  Grower g(x, y, weights, num_classes);
  g.own = std::move(order.ids_);
  FitAllRows(&g, rng);
}

void DecisionTree::FitWeighted(const Matrix& x, const std::vector<size_t>& y,
                               const std::vector<double>& weights,
                               const FeatureOrder& order, size_t num_classes,
                               Rng* rng) {
  DAISY_CHECK(order.rows() == x.rows());
  Grower g(x, y, weights, num_classes);
  g.lists = order.list(0);
  if (opts_.max_depth > 1)  // splits below the root partition the lists
    g.own.assign(g.lists, g.lists + x.cols() * x.rows());
  FitAllRows(&g, rng);
}

void DecisionTree::FitAllRows(Grower* g, Rng* rng) {
  DAISY_CHECK(g->x.rows() == g->y.size() && g->y.size() == g->w.size());
  DAISY_CHECK(g->x.rows() > 0 && g->num_classes >= 1);
  g->indices.resize(g->x.rows());
  std::iota(g->indices.begin(), g->indices.end(), 0u);
  g->stride = g->x.rows();
  if (!g->own.empty()) g->lists = g->own.data();
  Grow(g, rng);
}

void DecisionTree::FitBootstrap(const Matrix& x, const std::vector<size_t>& y,
                                const std::vector<double>& counts,
                                const FeatureOrder& order, size_t num_classes,
                                Rng* rng) {
  DAISY_CHECK(x.rows() == y.size() && y.size() == counts.size());
  DAISY_CHECK(num_classes >= 1 && order.rows() == x.rows());
  // Out-of-bag rows must not reach the scan: they would add thresholds
  // and break the constant-feature test.
  Grower g(x, y, counts, num_classes);
  g.w_counts = true;
  for (uint32_t row = 0; row < x.rows(); ++row)
    if (counts[row] > 0.0) g.indices.push_back(row);
  DAISY_CHECK(!g.indices.empty());
  g.stride = g.indices.size();
  g.own.resize(x.cols() * g.stride);
  uint32_t* out = g.own.data();
  for (size_t f = 0; f < x.cols(); ++f) {
    const uint32_t* in = order.list(f);
    for (size_t i = 0; i < x.rows(); ++i)
      if (counts[in[i]] > 0.0) *out++ = in[i];
  }
  g.lists = g.own.data();
  Grow(&g, rng);
}

void DecisionTree::Grow(Grower* g, Rng* rng) {
  num_classes_ = g->num_classes;
  nodes_.clear();
  probs_.clear();
  if (opts_.max_depth > 1) {  // buffers of the list partition
    g->goes_left.resize(g->x.rows());
    g->scratch.resize(g->stride);
  }
  Build(g, 0, g->indices.size(), 0, rng);
}

int DecisionTree::Build(Grower* g, size_t begin, size_t end, size_t depth,
                        Rng* rng) {
  const Matrix& x = g->x;
  const std::vector<size_t>& y = g->y;
  const std::vector<double>& w = g->w;
  const size_t num_classes = g->num_classes;
  std::vector<uint32_t>& indices = g->indices;

  std::vector<double> counts(num_classes, 0.0);
  double total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    counts[y[indices[i]]] += w[indices[i]];
    total += w[indices[i]];
  }

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  // Leaf distribution (kept even for internal nodes: costs little and
  // simplifies pruning experiments).
  for (size_t c = 0; c < num_classes; ++c)
    probs_.push_back(total > 0.0 ? counts[c] / total
                                 : 1.0 / static_cast<double>(num_classes));

  const double parent_gini = GiniFromCounts(counts, total);
  const size_t n =
      g->w_counts ? static_cast<size_t>(total) : end - begin;
  if (depth >= opts_.max_depth || n < opts_.min_samples_split ||
      parent_gini <= 1e-12) {
    return node_id;  // leaf
  }

  // Candidate features (all, or a random subset for forests).
  const size_t m = x.cols();
  std::vector<size_t> features(m);
  std::iota(features.begin(), features.end(), 0);
  size_t num_feats = m;
  if (opts_.max_features > 0 && opts_.max_features < m) {
    for (size_t i = 0; i < opts_.max_features; ++i) {
      const size_t j = i + rng->UniformInt(m - i);
      std::swap(features[i], features[j]);
    }
    num_feats = opts_.max_features;
  }

  double best_gain = 1e-12;
  size_t best_feature = 0;
  double best_threshold = 0.0;

  std::vector<double> left_counts(num_classes);
  for (size_t fi = 0; fi < num_feats; ++fi) {
    const size_t f = features[fi];
    const uint32_t* sorted = g->lists + f * g->stride;
    double value = x(sorted[begin], f);
    if (value == x(sorted[end - 1], f)) continue;

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_total = 0.0;
    for (size_t i = begin; i + 1 < end; ++i) {
      const uint32_t row = sorted[i];
      left_counts[y[row]] += w[row];
      left_total += w[row];
      const double lo = value;
      value = x(sorted[i + 1], f);
      if (lo == value) continue;
      const double right_total = total - left_total;
      if (left_total <= 0.0 || right_total <= 0.0) continue;
      double right_gini = 1.0, left_gini = 1.0;
      {
        double ls = 0.0, rs = 0.0;
        for (size_t c = 0; c < num_classes; ++c) {
          const double lp = left_counts[c] / left_total;
          const double rp = (counts[c] - left_counts[c]) / right_total;
          ls += lp * lp;
          rs += rp * rp;
        }
        left_gini = 1.0 - ls;
        right_gini = 1.0 - rs;
      }
      const double child_gini =
          (left_total * left_gini + right_total * right_gini) / total;
      const double gain = parent_gini - child_gini;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (lo + value);
      }
    }
  }

  if (best_gain <= 1e-12) return node_id;  // no useful split

  // Partition indices in place around the threshold. The children sum
  // their counts in this order, and with non-integer weights the order
  // sets the last bits.
  const auto mid_it = std::partition(
      indices.begin() + begin, indices.begin() + end,
      [&](uint32_t row) { return x(row, best_feature) <= best_threshold; });
  const size_t mid = static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate

  // Stable-partition every feature's list the same way, so each child's
  // rows stay in (value, row) order at the child's positions. Children
  // at max_depth never scan, so their lists are left alone.
  if (depth + 1 < opts_.max_depth) {
    for (size_t i = begin; i < end; ++i) g->goes_left[indices[i]] = i < mid;
    for (size_t f = 0; f < m; ++f) {
      uint32_t* seg = g->own.data() + f * g->stride + begin;
      size_t l = 0, r = 0;
      for (size_t i = 0; i < end - begin; ++i) {
        const uint32_t row = seg[i];
        if (g->goes_left[row]) {
          seg[l++] = row;
        } else {
          g->scratch[r++] = row;
        }
      }
      std::copy(g->scratch.begin(), g->scratch.begin() + r, seg + l);
    }
  }

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = Build(g, begin, mid, depth + 1, rng);
  const int right = Build(g, mid, end, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

const double* DecisionTree::LeafProba(const double* x) const {
  DAISY_CHECK(!nodes_.empty());
  int node = 0;
  while (nodes_[node].left >= 0) {
    node = x[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return probs_.data() + node * num_classes_;
}

size_t DecisionTree::Predict(const double* x) const {
  const double* probs = LeafProba(x);
  return static_cast<size_t>(
      std::max_element(probs, probs + num_classes_) - probs);
}

std::vector<double> DecisionTree::PredictProba(const double* x) const {
  const double* probs = LeafProba(x);
  return std::vector<double>(probs, probs + num_classes_);
}

}  // namespace daisy::eval
