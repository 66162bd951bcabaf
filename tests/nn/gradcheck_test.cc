// Finite-difference verification of every layer's Forward/Backward
// pair — the correctness backbone of the hand-written NN substrate.
#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/sequential.h"
#include "tests/nn/gradcheck.h"

namespace daisy::nn {
namespace {

using testing::CheckInputGradient;
using testing::CheckParamGradients;

Matrix AwayFromKinks(size_t rows, size_t cols, Rng* rng) {
  // Inputs with |x| >= 0.1 so ReLU/LeakyReLU finite differences never
  // straddle the kink.
  Matrix m = Matrix::Randn(rows, cols, rng);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) {
      const double s = m(r, c) >= 0.0 ? 1.0 : -1.0;
      m(r, c) = s * (0.1 + std::fabs(m(r, c)));
    }
  return m;
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Matrix x = Matrix::Randn(5, 4, &rng);
  CheckInputGradient(&layer, x);
  CheckParamGradients(&layer, x);
}

TEST(GradCheck, ReLU) {
  Rng rng(2);
  ReLU layer;
  Matrix x = AwayFromKinks(4, 6, &rng);
  CheckInputGradient(&layer, x);
}

TEST(GradCheck, LeakyReLU) {
  Rng rng(3);
  LeakyReLU layer(0.2);
  Matrix x = AwayFromKinks(4, 6, &rng);
  CheckInputGradient(&layer, x);
}

TEST(GradCheck, Tanh) {
  Rng rng(4);
  Tanh layer;
  Matrix x = Matrix::Randn(4, 6, &rng);
  CheckInputGradient(&layer, x);
}

TEST(GradCheck, Sigmoid) {
  Rng rng(5);
  Sigmoid layer;
  Matrix x = Matrix::Randn(4, 6, &rng);
  CheckInputGradient(&layer, x);
}

TEST(GradCheck, Softmax) {
  Rng rng(6);
  Softmax layer;
  Matrix x = Matrix::Randn(4, 5, &rng);
  CheckInputGradient(&layer, x);
}

TEST(GradCheck, BatchNorm1d) {
  Rng rng(7);
  BatchNorm1d layer(5);
  Matrix x = Matrix::Randn(8, 5, &rng);
  CheckInputGradient(&layer, x, 1e-5);
  CheckParamGradients(&layer, x, 1e-5);
}

TEST(GradCheck, Conv2d) {
  Rng rng(8);
  ImageShape in{2, 5, 5};
  Conv2d layer(in, 3, /*kernel=*/3, /*stride=*/1, /*padding=*/1, &rng);
  Matrix x = Matrix::Randn(2, in.Flat(), &rng);
  CheckInputGradient(&layer, x, 1e-5);
  CheckParamGradients(&layer, x, 1e-5);
}

TEST(GradCheck, Conv2dStrided) {
  Rng rng(9);
  ImageShape in{1, 6, 6};
  Conv2d layer(in, 2, /*kernel=*/2, /*stride=*/2, /*padding=*/0, &rng);
  Matrix x = Matrix::Randn(2, in.Flat(), &rng);
  CheckInputGradient(&layer, x, 1e-5);
  CheckParamGradients(&layer, x, 1e-5);
}

TEST(GradCheck, ConvTranspose2d) {
  Rng rng(10);
  ImageShape in{2, 3, 3};
  ConvTranspose2d layer(in, 2, /*kernel=*/2, /*stride=*/1, /*padding=*/0,
                        &rng);
  EXPECT_EQ(layer.out_shape().height, 4u);
  Matrix x = Matrix::Randn(2, in.Flat(), &rng);
  CheckInputGradient(&layer, x, 1e-5);
  CheckParamGradients(&layer, x, 1e-5);
}

TEST(GradCheck, SequentialComposition) {
  Rng rng(11);
  Sequential seq;
  seq.Emplace<Linear>(4, 8, &rng);
  seq.Emplace<Tanh>();
  seq.Emplace<Linear>(8, 3, &rng);
  Matrix x = Matrix::Randn(3, 4, &rng);
  CheckInputGradient(&seq, x);
  CheckParamGradients(&seq, x);
}

// The scalar losses report dL/dpred through an out-parameter; verify
// those against central differences too (they close the training loop,
// so a wrong factor here silently rescales every run).
TEST(GradCheck, BceLoss) {
  Rng rng(21);
  // Probabilities strictly inside (0,1), away from the clamp region.
  Matrix pred(4, 2);
  Matrix target(4, 2);
  for (size_t r = 0; r < pred.rows(); ++r) {
    for (size_t c = 0; c < pred.cols(); ++c) {
      pred(r, c) = 0.1 + 0.8 * rng.Uniform();
      target(r, c) = rng.Uniform() < 0.5 ? 0.0 : 1.0;
    }
  }
  testing::CheckLossGradient(
      [&](const Matrix& p, Matrix* g) { return BceLoss(p, target, g); },
      pred);
}

TEST(GradCheck, BceWithLogitsLoss) {
  Rng rng(22);
  Matrix logits = Matrix::Randn(5, 2, &rng);
  Matrix target(5, 2);
  for (size_t r = 0; r < target.rows(); ++r)
    for (size_t c = 0; c < target.cols(); ++c)
      target(r, c) = rng.Uniform() < 0.5 ? 0.0 : 1.0;
  testing::CheckLossGradient(
      [&](const Matrix& p, Matrix* g) {
        return BceWithLogitsLoss(p, target, g);
      },
      logits);
}

// LSTM is not a Module (stepwise interface); check it directly over a
// two-step unrolled loss.
TEST(GradCheck, LstmCellTwoSteps) {
  Rng rng(12);
  const size_t in_dim = 3, hid = 4, batch = 2;
  LstmCell cell(in_dim, hid, &rng);
  Matrix x1 = Matrix::Randn(batch, in_dim, &rng);
  Matrix x2 = Matrix::Randn(batch, in_dim, &rng);
  Matrix coeff = Matrix::Randn(batch, hid, &rng);

  auto loss = [&](const Matrix& a, const Matrix& b) {
    cell.ClearCache();
    LstmState s = cell.InitialState(batch);
    s = cell.StepForward(a, s);
    s = cell.StepForward(b, s);
    return s.h.CWiseMul(coeff).Sum();
  };

  // Analytic gradients.
  cell.ZeroGrad();
  cell.ClearCache();
  LstmState s = cell.InitialState(batch);
  s = cell.StepForward(x1, s);
  s = cell.StepForward(x2, s);
  Matrix zero_c(batch, hid);
  auto g2 = cell.StepBackward(coeff, zero_c);
  auto g1 = cell.StepBackward(g2.dh_prev, g2.dc_prev);

  const double h = 1e-5;
  // Input gradients for both steps.
  for (size_t r = 0; r < batch; ++r) {
    for (size_t c = 0; c < in_dim; ++c) {
      Matrix xp = x1, xm = x1;
      xp(r, c) += h;
      xm(r, c) -= h;
      const double numeric = (loss(xp, x2) - loss(xm, x2)) / (2 * h);
      EXPECT_NEAR(g1.dx(r, c), numeric, 1e-6);

      Matrix yp = x2, ym = x2;
      yp(r, c) += h;
      ym(r, c) -= h;
      const double numeric2 = (loss(x1, yp) - loss(x1, ym)) / (2 * h);
      EXPECT_NEAR(g2.dx(r, c), numeric2, 1e-6);
    }
  }
  // Parameter gradients (accumulated over both steps).
  for (Parameter* p : cell.Params()) {
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        const double orig = p->value(r, c);
        p->value(r, c) = orig + h;
        const double lp = loss(x1, x2);
        p->value(r, c) = orig - h;
        const double lm = loss(x1, x2);
        p->value(r, c) = orig;
        EXPECT_NEAR(p->grad(r, c), (lp - lm) / (2 * h), 1e-6)
            << p->name << " (" << r << "," << c << ")";
      }
    }
  }
}

}  // namespace
}  // namespace daisy::nn
