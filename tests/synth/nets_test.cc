// Shape, range, and gradient-flow tests for the three generator /
// discriminator families.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/durable.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "data/generators/realistic.h"
#include "synth/cnn_nets.h"
#include "synth/lstm_nets.h"
#include "synth/mlp_nets.h"
#include "transform/record_transformer.h"

namespace daisy::synth {
namespace {

// Frobenius norm.
double Norm(const Matrix& m) {
  double s = 0.0;
  for (size_t i = 0; i < m.size(); ++i) s += m.data()[i] * m.data()[i];
  return std::sqrt(s);
}

std::vector<transform::AttrSegment> FitSegments(bool gmm, bool onehot) {
  Rng rng(1);
  data::Table t = data::MakeAdultSim(300, &rng);
  transform::TransformOptions opts;
  opts.numerical = gmm ? transform::NumericalNormalization::kGmm
                       : transform::NumericalNormalization::kSimple;
  opts.categorical = onehot ? transform::CategoricalEncoding::kOneHot
                            : transform::CategoricalEncoding::kOrdinal;
  static std::vector<transform::RecordTransformer> keep;  // own the gmms
  keep.push_back(transform::RecordTransformer::Fit(t, opts, &rng));
  return keep.back().segments();
}

TEST(MlpGeneratorTest, OutputShapeAndRanges) {
  Rng rng(2);
  const auto segs = FitSegments(true, true);
  MlpGenerator g(16, 0, {32, 32}, segs, &rng);
  Matrix z = Matrix::Randn(8, 16, &rng);
  Matrix out = g.Forward(z, Matrix(), true);
  EXPECT_EQ(out.rows(), 8u);
  EXPECT_EQ(out.cols(), g.sample_dim());
  EXPECT_LE(out.MaxAbs(), 1.0 + 1e-9);
}

TEST(MlpGeneratorTest, BackwardAccumulatesParamGrads) {
  Rng rng(3);
  const auto segs = FitSegments(false, true);
  MlpGenerator g(8, 0, {16}, segs, &rng);
  Matrix z = Matrix::Randn(4, 8, &rng);
  Matrix out = g.Forward(z, Matrix(), true);
  g.ZeroGrad();
  g.Backward(Matrix(out.rows(), out.cols(), 1.0));
  double grad_norm = 0.0;
  for (auto* p : g.Params()) grad_norm += Norm(p->grad);
  EXPECT_GT(grad_norm, 1e-6);
}

TEST(MlpGeneratorTest, ConditionChangesOutput) {
  Rng rng(4);
  const auto segs = FitSegments(false, true);
  MlpGenerator g(8, 2, {16}, segs, &rng);
  Matrix z = Matrix::Randn(4, 8, &rng);
  Matrix c0(4, 2);
  Matrix c1(4, 2);
  for (size_t i = 0; i < 4; ++i) {
    c0(i, 0) = 1.0;
    c1(i, 1) = 1.0;
  }
  Matrix out0 = g.Forward(z, c0, false);
  Matrix out1 = g.Forward(z, c1, false);
  EXPECT_GT((out0 - out1).MaxAbs(), 1e-9);
}

TEST(MlpDiscriminatorTest, LogitShapeAndInputGrad) {
  Rng rng(5);
  MlpDiscriminator d(10, 0, {16, 16}, false, &rng);
  Matrix x = Matrix::Randn(6, 10, &rng);
  Matrix logits = d.Forward(x, Matrix(), true);
  EXPECT_EQ(logits.rows(), 6u);
  EXPECT_EQ(logits.cols(), 1u);
  Matrix gx = d.Backward(Matrix(6, 1, 1.0));
  EXPECT_EQ(gx.cols(), 10u);
  EXPECT_GT(Norm(gx), 0.0);
}

TEST(MlpDiscriminatorTest, SimplifiedHasFewerParameters) {
  Rng rng(6);
  MlpDiscriminator full(10, 0, {64, 64}, false, &rng);
  MlpDiscriminator simp(10, 0, {64, 64}, true, &rng);
  auto count = [](std::vector<nn::Parameter*> ps) {
    size_t n = 0;
    for (auto* p : ps) n += p->value.size();
    return n;
  };
  EXPECT_LT(count(simp.Params()), count(full.Params()) / 4);
}

TEST(MlpDiscriminatorTest, CondGradientStripped) {
  Rng rng(7);
  MlpDiscriminator d(10, 3, {16}, false, &rng);
  Matrix x = Matrix::Randn(4, 10, &rng);
  Matrix c(4, 3, 0.5);
  d.Forward(x, c, true);
  Matrix gx = d.Backward(Matrix(4, 1, 1.0));
  EXPECT_EQ(gx.cols(), 10u);
}

TEST(LstmGeneratorTest, TimestepsMatchHeadUnits) {
  Rng rng(8);
  const auto segs = FitSegments(true, true);
  LstmGenerator g(8, 0, 16, 8, segs, &rng);
  EXPECT_EQ(g.num_timesteps(), BuildHeadUnits(segs).size());
}

TEST(LstmGeneratorTest, ForwardBackwardShapes) {
  Rng rng(9);
  const auto segs = FitSegments(true, true);
  LstmGenerator g(8, 0, 16, 8, segs, &rng);
  Matrix z = Matrix::Randn(5, 8, &rng);
  Matrix out = g.Forward(z, Matrix(), true);
  EXPECT_EQ(out.cols(), g.sample_dim());
  g.ZeroGrad();
  g.Backward(Matrix(out.rows(), out.cols(), 0.5));
  double grad_norm = 0.0;
  for (auto* p : g.Params()) grad_norm += Norm(p->grad);
  EXPECT_GT(grad_norm, 1e-9);
}

TEST(LstmGeneratorTest, GradientCheckThroughTwoAttributes) {
  // Small exact check: finite differences on a couple of LSTM
  // generator parameters (full sweep is too slow; spot-check 10).
  Rng rng(10);
  const auto segs = FitSegments(false, false);  // simple/ordinal: thin net
  LstmGenerator g(4, 0, 6, 4, segs, &rng);
  Matrix z = Matrix::Randn(2, 4, &rng);
  Matrix out = g.Forward(z, Matrix(), true);
  Matrix coeff = Matrix::Randn(out.rows(), out.cols(), &rng);
  g.ZeroGrad();
  g.Forward(z, Matrix(), true);
  g.Backward(coeff);

  auto loss = [&]() {
    return g.Forward(z, Matrix(), true).CWiseMul(coeff).Sum();
  };
  const double h = 1e-5;
  auto params = g.Params();
  size_t checked = 0;
  for (auto* p : params) {
    if (p->value.size() == 0) continue;
    const size_t r = 0, c = p->value.cols() / 2;
    const double orig = p->value(r, c);
    p->value(r, c) = orig + h;
    const double lp = loss();
    p->value(r, c) = orig - h;
    const double lm = loss();
    p->value(r, c) = orig;
    EXPECT_NEAR(p->grad(r, c), (lp - lm) / (2 * h), 1e-5) << p->name;
    if (++checked >= 10) break;
  }
  EXPECT_GE(checked, 5u);
}

// Training and inference run the same LSTM step, so for any ISA and
// thread count both must give the same sample bits, and those bits are
// pinned. noise_dim 80 puts the 64-wide GEMM p-tile boundary inside
// the re-fed noise columns; batch 37 is not a multiple of the 4-wide
// kernel lanes.
TEST(LstmGeneratorTest, InferenceForwardMatchesForwardBitwise) {
  const auto segs = FitSegments(true, true);
  struct Case {
    size_t cond_dim;
    uint64_t digest;  // Fnv1a64 of the sample bytes, pinned before the
                      // step took the noise partial and kernel sigmoids
  };
  const Case cases[] = {{0, 0xfcee66b636f8ca77ULL}, {3, 0x0c8699ea415d042dULL}};
  std::vector<kern::Isa> isas = {kern::Isa::kScalar};
  if (kern::IsaAvailable(kern::Isa::kAvx2)) isas.push_back(kern::Isa::kAvx2);
  for (const Case& c : cases) {
    Rng rng(21 + c.cond_dim);
    LstmGenerator g(80, c.cond_dim, 24, 16, segs, &rng);
    const size_t batch = 37;
    const Matrix z = Matrix::Randn(batch, 80, &rng);
    Matrix cond(batch, c.cond_dim);
    for (size_t r = 0; r < batch && c.cond_dim > 0; ++r)
      cond(r, r % c.cond_dim) = 1.0;
    for (kern::Isa isa : isas) {
      kern::SetIsaForTesting(isa);
      for (size_t threads : {1u, 3u}) {
        par::SetNumThreads(threads);
        const Matrix trained = g.Forward(z, cond, true);
        const Matrix inferred = g.InferenceForward(z, cond);
        ASSERT_TRUE(trained.SameShape(inferred));
        EXPECT_EQ(std::memcmp(trained.data(), inferred.data(),
                              trained.size() * sizeof(double)),
                  0)
            << "cond_dim " << c.cond_dim << ", " << kern::IsaName(isa)
            << ", " << threads << " threads";
        EXPECT_EQ(Fnv1a64(reinterpret_cast<const char*>(inferred.data()),
                          inferred.size() * sizeof(double)),
                  c.digest)
            << "cond_dim " << c.cond_dim << ", " << kern::IsaName(isa)
            << ", " << threads << " threads";
      }
    }
  }
  kern::ResetIsaForTesting();
  par::SetNumThreads(0);
}

TEST(LstmDiscriminatorTest, SeqToOneShapes) {
  Rng rng(11);
  const auto segs = FitSegments(true, true);
  size_t dim = 0;
  for (const auto& s : segs) dim += s.width;
  LstmDiscriminator d(segs, 0, 16, &rng);
  EXPECT_EQ(d.sample_dim(), dim);
  Matrix x = Matrix::Randn(4, dim, &rng);
  Matrix logits = d.Forward(x, Matrix(), true);
  EXPECT_EQ(logits.cols(), 1u);
  Matrix gx = d.Backward(Matrix(4, 1, 1.0));
  EXPECT_EQ(gx.cols(), dim);
  EXPECT_GT(Norm(gx), 0.0);
}

TEST(CnnGeneratorTest, ProducesSquareInTanhRange) {
  for (size_t side : {2, 3, 4, 5, 7}) {
    Rng rng(12);
    CnnGenerator g(8, 0, side, &rng);
    Matrix z = Matrix::Randn(3, 8, &rng);
    Matrix out = g.Forward(z, Matrix(), true);
    EXPECT_EQ(out.cols(), side * side) << "side " << side;
    EXPECT_LE(out.MaxAbs(), 1.0 + 1e-9);
  }
}

TEST(CnnGeneratorTest, BackwardProducesParamGrads) {
  Rng rng(13);
  CnnGenerator g(8, 0, 4, &rng);
  Matrix z = Matrix::Randn(4, 8, &rng);
  Matrix out = g.Forward(z, Matrix(), true);
  g.ZeroGrad();
  g.Backward(Matrix(out.rows(), out.cols(), 1.0));
  double grad_norm = 0.0;
  for (auto* p : g.Params()) grad_norm += Norm(p->grad);
  EXPECT_GT(grad_norm, 1e-9);
}

TEST(CnnDiscriminatorTest, HandlesSmallSides) {
  for (size_t side : {2, 3, 5}) {
    Rng rng(14);
    CnnDiscriminator d(side, 0, &rng);
    Matrix x = Matrix::Randn(3, side * side, &rng);
    Matrix logits = d.Forward(x, Matrix(), true);
    EXPECT_EQ(logits.cols(), 1u);
    Matrix gx = d.Backward(Matrix(3, 1, 1.0));
    EXPECT_EQ(gx.cols(), side * side);
  }
}

}  // namespace
}  // namespace daisy::synth
