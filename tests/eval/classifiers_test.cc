#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "eval/adaboost.h"
#include "eval/class_metrics.h"
#include "eval/classifier.h"
#include "eval/decision_tree.h"
#include "eval/logistic_regression.h"
#include "eval/random_forest.h"

namespace daisy::eval {
namespace {

// Two Gaussian blobs, linearly separable.
void MakeBlobs(size_t n, Rng* rng, Matrix* x, std::vector<size_t>* y) {
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    (*x)(i, 0) = rng->Gaussian(pos ? 2.0 : -2.0, 0.7);
    (*x)(i, 1) = rng->Gaussian(pos ? 2.0 : -2.0, 0.7);
    (*y)[i] = pos ? 1 : 0;
  }
}

// XOR-style blobs: not linearly separable.
void MakeXorBlobs(size_t n, Rng* rng, Matrix* x, std::vector<size_t>* y) {
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int quadrant = static_cast<int>(i % 4);
    const double sx = quadrant % 2 == 0 ? 1.0 : -1.0;
    const double sy = quadrant / 2 == 0 ? 1.0 : -1.0;
    (*x)(i, 0) = rng->Gaussian(2.0 * sx, 0.5);
    (*x)(i, 1) = rng->Gaussian(2.0 * sy, 0.5);
    (*y)[i] = (sx * sy > 0) ? 1 : 0;
  }
}

class EveryClassifier : public ::testing::TestWithParam<ClassifierKind> {};

TEST_P(EveryClassifier, SeparatesLinearBlobs) {
  Rng rng(1);
  Matrix x_train, x_test;
  std::vector<size_t> y_train, y_test;
  MakeBlobs(400, &rng, &x_train, &y_train);
  MakeBlobs(200, &rng, &x_test, &y_test);

  auto clf = MakeClassifier(GetParam());
  clf->Fit(x_train, y_train, 2, &rng);
  const auto preds = clf->PredictAll(x_test);
  EXPECT_GT(Accuracy(preds, y_test), 0.93)
      << ClassifierKindName(GetParam());
}

TEST_P(EveryClassifier, ProbabilitiesSumToOne) {
  Rng rng(2);
  Matrix x;
  std::vector<size_t> y;
  MakeBlobs(100, &rng, &x, &y);
  auto clf = MakeClassifier(GetParam());
  clf->Fit(x, y, 2, &rng);
  const auto probs = clf->PredictProba(x.row(0));
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-9);
  EXPECT_GE(probs[0], 0.0);
  EXPECT_GE(probs[1], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EveryClassifier,
    ::testing::ValuesIn(AllClassifierKinds()),
    [](const auto& info) { return ClassifierKindName(info.param); });

TEST(DecisionTreeTest, SolvesXorUnlikeLogReg) {
  Rng rng(3);
  Matrix x_train, x_test;
  std::vector<size_t> y_train, y_test;
  MakeXorBlobs(400, &rng, &x_train, &y_train);
  MakeXorBlobs(200, &rng, &x_test, &y_test);

  DecisionTree tree(DecisionTreeOptions{.max_depth = 10});
  tree.Fit(x_train, y_train, 2, &rng);
  EXPECT_GT(Accuracy(tree.PredictAll(x_test), y_test), 0.95);

  LogisticRegression lr;
  lr.Fit(x_train, y_train, 2, &rng);
  EXPECT_LT(Accuracy(lr.PredictAll(x_test), y_test), 0.75);
}

TEST(DecisionTreeTest, DepthZeroIsMajorityVote) {
  Rng rng(4);
  Matrix x = Matrix::FromRows({{0}, {1}, {2}, {3}});
  std::vector<size_t> y = {1, 1, 1, 0};
  DecisionTree tree(DecisionTreeOptions{.max_depth = 0});
  tree.Fit(x, y, 2, &rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(tree.Predict(x.row(i)), 1u);
}

TEST(DecisionTreeTest, DeeperTreesFitTighter) {
  Rng rng(5);
  Matrix x, xt;
  std::vector<size_t> y, yt;
  MakeXorBlobs(600, &rng, &x, &y);
  DecisionTree shallow(DecisionTreeOptions{.max_depth = 1});
  DecisionTree deep(DecisionTreeOptions{.max_depth = 10});
  shallow.Fit(x, y, 2, &rng);
  deep.Fit(x, y, 2, &rng);
  EXPECT_GT(Accuracy(deep.PredictAll(x), y),
            Accuracy(shallow.PredictAll(x), y));
}

TEST(DecisionTreeTest, WeightedFitPrioritizesHeavySamples) {
  Rng rng(6);
  // Two points with contradicting labels at the same x; weight decides.
  Matrix x = Matrix::FromRows({{0.0}, {0.0}, {1.0}});
  std::vector<size_t> y = {0, 1, 1};
  DecisionTree tree(DecisionTreeOptions{.max_depth = 2});
  tree.FitWeighted(x, y, {10.0, 1.0, 1.0}, 2, &rng);
  EXPECT_EQ(tree.Predict(x.row(0)), 0u);
}

TEST(DecisionTreeTest, MulticlassWorks) {
  Rng rng(7);
  Matrix x(300, 1);
  std::vector<size_t> y(300);
  for (size_t i = 0; i < 300; ++i) {
    y[i] = i % 3;
    x(i, 0) = rng.Gaussian(static_cast<double>(y[i]) * 5.0, 0.5);
  }
  DecisionTree tree(DecisionTreeOptions{.max_depth = 5});
  tree.Fit(x, y, 3, &rng);
  EXPECT_GT(Accuracy(tree.PredictAll(x), y), 0.95);
}

TEST(RandomForestTest, BeatsSingleStumpOnXor) {
  Rng rng(8);
  Matrix x, xt;
  std::vector<size_t> y, yt;
  MakeXorBlobs(400, &rng, &x, &y);
  MakeXorBlobs(200, &rng, &xt, &yt);
  RandomForest forest(RandomForestOptions{.num_trees = 15, .max_depth = 8});
  forest.Fit(x, y, 2, &rng);
  EXPECT_GT(Accuracy(forest.PredictAll(xt), yt), 0.9);
}

TEST(AdaBoostTest, BoostsStumpsAboveChanceOnXor) {
  Rng rng(9);
  Matrix x, xt;
  std::vector<size_t> y, yt;
  MakeXorBlobs(400, &rng, &x, &y);
  // Single stump is ~50% on XOR; boosting with depth-1 can't solve XOR
  // either, but on linearly separable data it must be near-perfect:
  MakeBlobs(400, &rng, &x, &y);
  MakeBlobs(200, &rng, &xt, &yt);
  AdaBoost ab;
  ab.Fit(x, y, 2, &rng);
  EXPECT_GT(Accuracy(ab.PredictAll(xt), yt), 0.93);
}

TEST(AdaBoostTest, MulticlassSamme) {
  Rng rng(10);
  Matrix x(300, 1);
  std::vector<size_t> y(300);
  for (size_t i = 0; i < 300; ++i) {
    y[i] = i % 3;
    x(i, 0) = rng.Gaussian(static_cast<double>(y[i]) * 4.0, 0.4);
  }
  AdaBoost ab(AdaBoostOptions{.num_estimators = 20, .base_depth = 2});
  ab.Fit(x, y, 3, &rng);
  EXPECT_GT(Accuracy(ab.PredictAll(x), y), 0.9);
}

TEST(LogisticRegressionTest, RecoversLinearBoundary) {
  Rng rng(11);
  Matrix x, xt;
  std::vector<size_t> y, yt;
  MakeBlobs(400, &rng, &x, &y);
  MakeBlobs(200, &rng, &xt, &yt);
  LogisticRegression lr;
  lr.Fit(x, y, 2, &rng);
  EXPECT_GT(Accuracy(lr.PredictAll(xt), yt), 0.95);
}

TEST(LogisticRegressionTest, HandlesConstantFeature) {
  Rng rng(12);
  Matrix x(100, 2);
  std::vector<size_t> y(100);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = 5.0;  // constant
    x(i, 1) = i < 50 ? -1.0 : 1.0;
    y[i] = i < 50 ? 0 : 1;
  }
  LogisticRegression lr;
  lr.Fit(x, y, 2, &rng);
  EXPECT_GT(Accuracy(lr.PredictAll(x), y), 0.95);
}

// The plain-loop softmax regression that LogisticRegression::Fit must
// reproduce bit for bit: logits summed from the bias in ascending j,
// gradient sums in ascending i from 0.0, then the weight step.
struct ReferenceLogReg {
  std::vector<double> mean, inv_std, bias;
  Matrix weights;

  void Fit(const Matrix& x, const std::vector<size_t>& y, size_t k,
           const LogisticRegressionOptions& opts) {
    const size_t n = x.rows(), m = x.cols();
    mean.assign(m, 0.0);
    inv_std.assign(m, 1.0);
    for (size_t j = 0; j < m; ++j) {
      double mu = 0.0;
      for (size_t i = 0; i < n; ++i) mu += x(i, j);
      mu /= static_cast<double>(n);
      double var = 0.0;
      for (size_t i = 0; i < n; ++i) var += (x(i, j) - mu) * (x(i, j) - mu);
      var /= static_cast<double>(n);
      mean[j] = mu;
      inv_std[j] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
    }
    Matrix xs(n, m);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < m; ++j)
        xs(i, j) = (x(i, j) - mean[j]) * inv_std[j];
    weights = Matrix(m, k);
    bias.assign(k, 0.0);
    Matrix probs(n, k);
    for (size_t epoch = 0; epoch < opts.epochs; ++epoch) {
      for (size_t i = 0; i < n; ++i) {
        double mx = -1e300;
        for (size_t c = 0; c < k; ++c) {
          double s = bias[c];
          for (size_t j = 0; j < m; ++j) s += xs(i, j) * weights(j, c);
          probs(i, c) = s;
          mx = std::max(mx, s);
        }
        double sum = 0.0;
        for (size_t c = 0; c < k; ++c) {
          probs(i, c) = std::exp(probs(i, c) - mx);
          sum += probs(i, c);
        }
        for (size_t c = 0; c < k; ++c) probs(i, c) /= sum;
      }
      const double scale = opts.lr / static_cast<double>(n);
      Matrix gw(m, k);
      std::vector<double> gb(k, 0.0);
      for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < k; ++c) {
          const double d = probs(i, c) - (y[i] == c ? 1.0 : 0.0);
          gb[c] += d;
          for (size_t j = 0; j < m; ++j) gw(j, c) += d * xs(i, j);
        }
      }
      for (size_t j = 0; j < m; ++j)
        for (size_t c = 0; c < k; ++c)
          weights(j, c) -=
              scale * (gw(j, c) + opts.l2 * weights(j, c) *
                                      static_cast<double>(n));
      for (size_t c = 0; c < k; ++c) bias[c] -= scale * gb[c];
    }
  }

  std::vector<double> PredictProba(const double* x) const {
    const size_t m = mean.size(), k = bias.size();
    std::vector<double> xs(m);
    for (size_t j = 0; j < m; ++j) xs[j] = (x[j] - mean[j]) * inv_std[j];
    std::vector<double> probs(k);
    double mx = -1e300;
    for (size_t c = 0; c < k; ++c) {
      double s = bias[c];
      for (size_t j = 0; j < m; ++j) s += xs[j] * weights(j, c);
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
};

// Shapes straddle the GEMM tile edges: 1027 rows is not a multiple of
// the 4-row tile, 70 features exceed one 64-deep p tile, 9 classes
// exceed one 8-column tile.
TEST(LogisticRegressionTest, FitMatchesReferenceBitwise) {
  const LogisticRegressionOptions opts{.epochs = 20};
  std::vector<kern::Isa> isas = {kern::Isa::kScalar};
  if (kern::IsaAvailable(kern::Isa::kAvx2)) isas.push_back(kern::Isa::kAvx2);
  for (size_t n : {1, 5, 1027}) {
    for (size_t m : {1, 3, 70}) {
      for (size_t k : {2, 3, 9}) {
        Rng rng(1000 * n + 10 * m + k);
        Matrix x(n, m);
        std::vector<size_t> y(n);
        for (size_t i = 0; i < n; ++i) {
          y[i] = rng.UniformInt(k);
          for (size_t j = 0; j < m; ++j)
            x(i, j) = j == 1 ? 4.0  // a constant column when m > 1
                             : rng.Gaussian(0.3 * static_cast<double>(y[i]),
                                            1.0 + static_cast<double>(j % 5));
        }
        // Probe every training row and 16 off-sample points, so even a
        // one-row fit is compared at more than one input.
        Matrix probes = Matrix::VCat(x, Matrix::Randn(16, m, &rng, 3.0));
        ReferenceLogReg ref;
        ref.Fit(x, y, k, opts);
        for (kern::Isa isa : isas) {
          kern::SetIsaForTesting(isa);
          for (size_t threads : {1, 3}) {
            par::SetNumThreads(threads);
            LogisticRegression lr(opts);
            lr.Fit(x, y, k, &rng);
            for (size_t i = 0; i < probes.rows(); ++i) {
              const auto got = lr.PredictProba(probes.row(i));
              const auto want = ref.PredictProba(probes.row(i));
              ASSERT_EQ(got.size(), k);
              ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                    k * sizeof(double)),
                        0)
                  << "n=" << n << " m=" << m << " k=" << k
                  << " isa=" << kern::IsaName(isa) << " threads=" << threads
                  << " row=" << i;
            }
          }
        }
      }
    }
  }
  kern::ResetIsaForTesting();
  par::SetNumThreads(0);
}

}  // namespace
}  // namespace daisy::eval
