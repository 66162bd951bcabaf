#include "nn/loss.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/activations.h"

namespace daisy::nn {
namespace {

TEST(LossTest, BceAtHalfIsLog2) {
  Matrix probs = Matrix::FromRows({{0.5}});
  Matrix target = Matrix::FromRows({{1.0}});
  Matrix grad;
  EXPECT_NEAR(BceLoss(probs, target, &grad), std::log(2.0), 1e-12);
}

TEST(LossTest, BceWithLogitsMatchesBce) {
  Rng rng(3);
  Matrix logits = Matrix::Randn(4, 2, &rng);
  Matrix probs(4, 2);
  for (size_t r = 0; r < 4; ++r)
    for (size_t c = 0; c < 2; ++c)
      probs(r, c) = 1.0 / (1.0 + std::exp(-logits(r, c)));
  Matrix targets(4, 2);
  for (size_t r = 0; r < 4; ++r) targets(r, r % 2) = 1.0;
  Matrix g1, g2;
  EXPECT_NEAR(BceWithLogitsLoss(logits, targets, &g1),
              BceLoss(probs, targets, &g2), 1e-9);
}

TEST(LossTest, BceWithLogitsGradMatchesFiniteDiff) {
  Rng rng(5);
  Matrix logits = Matrix::Randn(3, 2, &rng);
  Matrix targets(3, 2);
  targets(0, 0) = 1.0;
  targets(1, 1) = 1.0;
  targets(2, 0) = 1.0;
  Matrix grad;
  BceWithLogitsLoss(logits, targets, &grad);
  const double h = 1e-6;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      Matrix lp = logits, lm = logits;
      lp(r, c) += h;
      lm(r, c) -= h;
      Matrix dummy;
      const double numeric = (BceWithLogitsLoss(lp, targets, &dummy) -
                              BceWithLogitsLoss(lm, targets, &dummy)) /
                             (2 * h);
      EXPECT_NEAR(grad(r, c), numeric, 1e-6);
    }
  }
}

TEST(LossTest, BceWithLogitsStableAtExtremeLogits) {
  Matrix logits = Matrix::FromRows({{500.0, -500.0}});
  Matrix targets = Matrix::FromRows({{1.0, 0.0}});
  Matrix grad;
  const double loss = BceWithLogitsLoss(logits, targets, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

TEST(LossTest, BceWithLogitsGradStableAtExtremeLogits) {
  // The old gradient path computed p = 1/(1+exp(-x)), which for
  // x = -750 evaluates exp(750) = inf. The two-sided form saturates
  // p to exactly 0/1, so the gradient is exact at the extremes.
  Matrix logits = Matrix::FromRows({{750.0, -750.0, 750.0, -750.0}});
  Matrix targets = Matrix::FromRows({{1.0, 0.0, 0.0, 1.0}});
  Matrix grad;
  const double loss = BceWithLogitsLoss(logits, targets, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  const double n = 4.0;
  EXPECT_DOUBLE_EQ(grad(0, 0), 0.0);         // p=1, t=1
  EXPECT_DOUBLE_EQ(grad(0, 1), 0.0);         // p=0, t=0
  EXPECT_DOUBLE_EQ(grad(0, 2), 1.0 / n);     // p=1, t=0
  EXPECT_DOUBLE_EQ(grad(0, 3), -1.0 / n);    // p=0, t=1
}

TEST(LossTest, SigmoidMatSaturatesExactlyAtExtremeLogits) {
  Matrix logits = Matrix::FromRows({{750.0, -750.0, 0.0}});
  Matrix p = SigmoidMat(logits);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p(0, 2), 0.5);
}

TEST(LossTest, BceClampsoSaturatedProbabilities) {
  Matrix probs = Matrix::FromRows({{1.0, 0.0}});
  Matrix targets = Matrix::FromRows({{0.0, 1.0}});
  Matrix grad;
  const double loss = BceLoss(probs, targets, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 10.0);  // confidently wrong => large but finite
}

}  // namespace
}  // namespace daisy::nn
