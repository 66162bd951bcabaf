// SIMD kernel layer tests: dispatcher selection/override, bitwise
// scalar<->AVX2 equivalence for every kernel in the table (DESIGN.md
// §5g contract), lane-math accuracy against libm, and Matrix-level
// bitwise determinism across DAISY_THREADS values and ISAs.
#include "core/kernels/kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/lane_ops.h"
#include "core/matrix.h"
#include "core/parallel.h"
#include "core/rng.h"

namespace daisy::kern {
namespace {

// Sizes covering the empty-ish edge, sub-vector-width rows, exact
// vector multiples, and every tail length of the 4-wide blocking.
const size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 31, 32, 33, 64, 100};

std::vector<double> RandomVec(size_t n, Rng* rng, double lo = -3.0,
                              double hi = 3.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(lo, hi);
  return v;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Each equivalence test runs the same inputs through both tables and
// demands bitwise-identical output. Skipped (visibly) when the AVX2
// table is unavailable on this machine/build.
#define DAISY_REQUIRE_AVX2()                                               \
  if (!IsaAvailable(Isa::kAvx2)) {                                         \
    GTEST_SKIP() << "AVX2 kernel table unavailable on this machine/build " \
                    "- cross-ISA equivalence not checked here";            \
  }

TEST(KernelDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ActiveTableMatchesActiveIsa) {
  const KernelTable& active = Active();
  EXPECT_EQ(&active, &Table(ActiveIsa()));
}

TEST(KernelDispatchTest, Avx2AvailabilityRequiresCpuSupport) {
  if (IsaAvailable(Isa::kAvx2)) {
    EXPECT_TRUE(CpuSupportsAvx2());
  }
}

TEST(KernelDispatchTest, SetIsaForTestingSwitchesActiveTable) {
  SetIsaForTesting(Isa::kScalar);
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_EQ(&Active(), &Table(Isa::kScalar));
  if (IsaAvailable(Isa::kAvx2)) {
    SetIsaForTesting(Isa::kAvx2);
    EXPECT_EQ(ActiveIsa(), Isa::kAvx2);
    EXPECT_EQ(&Active(), &Table(Isa::kAvx2));
  }
  ResetIsaForTesting();
  EXPECT_TRUE(IsaAvailable(ActiveIsa()));
}

TEST(KernelDispatchTest, AllTablePointersNonNull) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (!IsaAvailable(isa)) continue;
    const KernelTable& t = Table(isa);
    EXPECT_NE(t.gemm_nn, nullptr);
    EXPECT_NE(t.gemm_nt, nullptr);
    EXPECT_NE(t.dot, nullptr);
    EXPECT_NE(t.scale, nullptr);
    EXPECT_NE(t.add, nullptr);
    EXPECT_NE(t.sub, nullptr);
    EXPECT_NE(t.mul, nullptr);
    EXPECT_NE(t.tanh, nullptr);
    EXPECT_NE(t.sigmoid, nullptr);
    EXPECT_NE(t.relu, nullptr);
    EXPECT_NE(t.leaky_relu, nullptr);
    EXPECT_NE(t.tanh_bwd, nullptr);
    EXPECT_NE(t.sigmoid_bwd, nullptr);
    EXPECT_NE(t.relu_bwd, nullptr);
    EXPECT_NE(t.leaky_relu_bwd, nullptr);
    EXPECT_NE(t.softmax_row, nullptr);
    EXPECT_NE(t.softmax_row_bwd, nullptr);
    EXPECT_NE(t.argmax, nullptr);
  }
}

// --- bitwise scalar vs AVX2, kernel by kernel -----------------------

// --- GEMM tiles ------------------------------------------------------
// Both tables must equal the per-element reference loops the tiles
// replaced, bit for bit: for NN/TN the start value in o, then a*b added
// in ascending p (the old gemm_panel loop); for NT lane::DotStriped.

// Tile shapes: every row count of one NN tile (1-4) and of two (5-8),
// every column tail of the 8- and 4-wide blocks (1-17), inner lengths
// 0-9 (every stripe tail), and the wide shapes the nets run.
const size_t kTileRowCounts[] = {1, 2, 3, 4, 5, 6, 7, 8};
const size_t kTileCols[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                            11, 12, 13, 14, 15, 16, 17, 64, 96, 256};
const size_t kTileInner[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 96, 256};

// Uniform values with about a third of them signed zeros, so many
// outputs are sums of ±0.0 products whose sign shows the start value
// (0.0 + -0.0 is 0.0, -0.0 + -0.0 is -0.0) and the summation order.
std::vector<double> ZeroHeavyVec(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    const size_t pick = rng->UniformInt(6);
    x = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng->Uniform(-3.0, 3.0);
  }
  return v;
}

std::vector<double> NnReference(const std::vector<double>& a, size_t a_rs,
                                size_t a_ps, const std::vector<double>& b,
                                size_t ldb, size_t pn, std::vector<double> o,
                                size_t ldo, size_t rows, size_t jn) {
  for (size_t r = 0; r < rows; ++r)
    for (size_t p = 0; p < pn; ++p)
      for (size_t j = 0; j < jn; ++j)
        o[r * ldo + j] += a[r * a_rs + p * a_ps] * b[p * ldb + j];
  return o;
}

TEST(KernelEquivalenceTest, GemmNnTileMatchesReferenceBitwise) {
  std::vector<Isa> isas = {Isa::kScalar};
  if (IsaAvailable(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  Rng rng(101);
  for (size_t rows : kTileRowCounts) {
    for (size_t jn : kTileCols) {
      for (size_t pn : kTileInner) {
        for (bool transposed : {false, true}) {
          // Padded strides (!= the logical width) catch stride mix-ups.
          const size_t ldb = jn + 3, ldo = jn + 2;
          // NN: A is rows x pn (lda = pn + 1). TN: A is pn x rows, read
          // transposed (row stride 1, p stride lda = rows + 1).
          const size_t lda = transposed ? rows + 1 : pn + 1;
          const size_t a_rs = transposed ? 1 : lda;
          const size_t a_ps = transposed ? lda : 1;
          const auto a =
              ZeroHeavyVec((transposed ? pn : rows) * lda + 1, &rng);
          const auto b = ZeroHeavyVec(pn * ldb + 1, &rng);
          const auto o0 = ZeroHeavyVec(rows * ldo, &rng);
          const auto want =
              NnReference(a, a_rs, a_ps, b, ldb, pn, o0, ldo, rows, jn);
          for (Isa isa : isas) {
            auto got = o0;
            Table(isa).gemm_nn(a.data(), a_rs, a_ps, b.data(), ldb, pn,
                               got.data(), ldo, rows, jn);
            EXPECT_TRUE(BitwiseEqual(got, want))
                << IsaName(isa) << (transposed ? " TN" : " NN")
                << " rows=" << rows << " jn=" << jn << " pn=" << pn;
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, GemmNtTileMatchesStripedDotBitwise) {
  std::vector<Isa> isas = {Isa::kScalar};
  if (IsaAvailable(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  Rng rng(102);
  for (size_t rows : kTileRowCounts) {
    for (size_t jn : kTileCols) {
      for (size_t kn : kTileInner) {
        const size_t lda = kn + 1, ldb = kn + 3, ldo = jn + 2;
        const auto a = ZeroHeavyVec(rows * lda + 1, &rng);
        const auto b = ZeroHeavyVec(jn * ldb + 1, &rng);  // B by rows
        // Bᵀ in 4-column panels; lanes past jn hold garbage the kernel
        // must never store.
        auto panels = RandomVec((jn + 3) / 4 * 4 * kn, &rng);
        for (size_t j = 0; j < jn; ++j)
          for (size_t p = 0; p < kn; ++p)
            panels[j / 4 * 4 * kn + 4 * p + j % 4] = b[j * ldb + p];
        const auto o0 = ZeroHeavyVec(rows * ldo, &rng);
        auto want = o0;
        for (size_t r = 0; r < rows; ++r)
          for (size_t j = 0; j < jn; ++j)
            want[r * ldo + j] =
                lane::DotStriped(a.data() + r * lda, b.data() + j * ldb, kn);
        for (Isa isa : isas) {
          auto got = o0;
          Table(isa).gemm_nt(a.data(), lda, panels.data(), kn, got.data(),
                             ldo, rows, jn);
          EXPECT_TRUE(BitwiseEqual(got, want))
              << IsaName(isa) << " rows=" << rows << " jn=" << jn
              << " kn=" << kn;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, DotScaleAddSubMulBitwise) {
  DAISY_REQUIRE_AVX2();
  const KernelTable& s = Table(Isa::kScalar);
  const KernelTable& v = Table(Isa::kAvx2);
  Rng rng(102);
  for (size_t n : kSizes) {
    const auto x = RandomVec(n, &rng);
    const auto y0 = RandomVec(n, &rng);
    const double a = rng.Uniform(-2.0, 2.0);

    const double d1 = s.dot(x.data(), y0.data(), n);
    const double d2 = v.dot(x.data(), y0.data(), n);
    EXPECT_EQ(d1, d2) << "dot n=" << n;

    auto y1 = y0, y2 = y0;
    s.scale(a, y1.data(), n);
    v.scale(a, y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "scale n=" << n;

    y1 = y0, y2 = y0;
    s.add(x.data(), y1.data(), n);
    v.add(x.data(), y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "add n=" << n;

    y1 = y0, y2 = y0;
    s.sub(x.data(), y1.data(), n);
    v.sub(x.data(), y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "sub n=" << n;

    y1 = y0, y2 = y0;
    s.mul(x.data(), y1.data(), n);
    v.mul(x.data(), y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "mul n=" << n;
  }
}

TEST(KernelEquivalenceTest, ActivationsForwardBitwise) {
  DAISY_REQUIRE_AVX2();
  const KernelTable& s = Table(Isa::kScalar);
  const KernelTable& v = Table(Isa::kAvx2);
  Rng rng(103);
  for (size_t n : kSizes) {
    // Wide range: normal activations, deep saturation, exact zero.
    auto x = RandomVec(n, &rng, -40.0, 40.0);
    if (n > 2) x[n / 2] = 0.0;
    std::vector<double> y1(n), y2(n);

    s.tanh(x.data(), y1.data(), n);
    v.tanh(x.data(), y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "tanh n=" << n;

    s.sigmoid(x.data(), y1.data(), n);
    v.sigmoid(x.data(), y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "sigmoid n=" << n;

    s.relu(x.data(), y1.data(), n);
    v.relu(x.data(), y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "relu n=" << n;

    s.leaky_relu(0.2, x.data(), y1.data(), n);
    v.leaky_relu(0.2, x.data(), y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "leaky_relu n=" << n;
  }
}

TEST(KernelEquivalenceTest, ActivationsBackwardBitwise) {
  DAISY_REQUIRE_AVX2();
  const KernelTable& s = Table(Isa::kScalar);
  const KernelTable& v = Table(Isa::kAvx2);
  Rng rng(104);
  for (size_t n : kSizes) {
    auto ref = RandomVec(n, &rng, -1.0, 1.0);  // cached output/input
    if (n > 2) ref[n / 2] = 0.0;               // relu gate boundary
    const auto g0 = RandomVec(n, &rng);

    auto g1 = g0, g2 = g0;
    s.tanh_bwd(ref.data(), g1.data(), n);
    v.tanh_bwd(ref.data(), g2.data(), n);
    EXPECT_TRUE(BitwiseEqual(g1, g2)) << "tanh_bwd n=" << n;

    g1 = g0, g2 = g0;
    s.sigmoid_bwd(ref.data(), g1.data(), n);
    v.sigmoid_bwd(ref.data(), g2.data(), n);
    EXPECT_TRUE(BitwiseEqual(g1, g2)) << "sigmoid_bwd n=" << n;

    g1 = g0, g2 = g0;
    s.relu_bwd(ref.data(), g1.data(), n);
    v.relu_bwd(ref.data(), g2.data(), n);
    EXPECT_TRUE(BitwiseEqual(g1, g2)) << "relu_bwd n=" << n;

    g1 = g0, g2 = g0;
    s.leaky_relu_bwd(0.2, ref.data(), g1.data(), n);
    v.leaky_relu_bwd(0.2, ref.data(), g2.data(), n);
    EXPECT_TRUE(BitwiseEqual(g1, g2)) << "leaky_relu_bwd n=" << n;
  }
}

TEST(KernelEquivalenceTest, SoftmaxRowBitwise) {
  DAISY_REQUIRE_AVX2();
  const KernelTable& s = Table(Isa::kScalar);
  const KernelTable& v = Table(Isa::kAvx2);
  Rng rng(105);
  for (size_t n : kSizes) {
    auto x = RandomVec(n, &rng, -30.0, 30.0);
    std::vector<double> y1(n), y2(n);
    s.softmax_row(x.data(), y1.data(), n);
    v.softmax_row(x.data(), y2.data(), n);
    EXPECT_TRUE(BitwiseEqual(y1, y2)) << "softmax_row n=" << n;

    const auto g = RandomVec(n, &rng);
    std::vector<double> o1(n), o2(n);
    s.softmax_row_bwd(y1.data(), g.data(), o1.data(), n);
    v.softmax_row_bwd(y2.data(), g.data(), o2.data(), n);
    EXPECT_TRUE(BitwiseEqual(o1, o2)) << "softmax_row_bwd n=" << n;
  }
}

TEST(KernelEquivalenceTest, ArgMaxAgreesIncludingTies) {
  DAISY_REQUIRE_AVX2();
  const KernelTable& s = Table(Isa::kScalar);
  const KernelTable& v = Table(Isa::kAvx2);
  Rng rng(106);
  for (size_t n : kSizes) {
    for (int trial = 0; trial < 8; ++trial) {
      auto x = RandomVec(n, &rng);
      // Plant a duplicated maximum so the tie-break (first index wins)
      // is actually exercised.
      if (n >= 2 && trial % 2 == 0) {
        const size_t i = rng.UniformInt(n), j = rng.UniformInt(n);
        x[i] = x[j] = 10.0;
      }
      EXPECT_EQ(s.argmax(x.data(), n), v.argmax(x.data(), n))
          << "argmax n=" << n << " trial=" << trial;
    }
  }
}

TEST(KernelEquivalenceTest, ArgMaxFirstMaxWins) {
  const KernelTable& t = Active();
  const double x[] = {1.0, 5.0, 5.0, 2.0, 5.0};
  EXPECT_EQ(t.argmax(x, 5), 1u);
  const double all_same[] = {2.0, 2.0, 2.0};
  EXPECT_EQ(t.argmax(all_same, 3), 0u);
  const double one[] = {-7.0};
  EXPECT_EQ(t.argmax(one, 1), 0u);
}

// --- lane math vs libm ----------------------------------------------
// Policy (DESIGN.md §5g): the Cephes-based lane ops match libm to a
// relative error of a few ULP; we pin a conservative 1e-13 bound plus
// exact behavior at the saturation edges.

TEST(KernelAccuracyTest, ExpMatchesLibmWithinTolerance) {
  Rng rng(107);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(-700.0, 700.0);
    const double got = lane::Exp(x);
    const double want = std::exp(x);
    EXPECT_NEAR(got, want, std::fabs(want) * 1e-13) << "x=" << x;
  }
  EXPECT_EQ(lane::Exp(0.0), 1.0);
  EXPECT_EQ(lane::Exp(800.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(lane::Exp(-800.0), 0.0);
  EXPECT_TRUE(std::isnan(lane::Exp(std::nan(""))));
}

TEST(KernelAccuracyTest, TanhMatchesLibmWithinTolerance) {
  Rng rng(108);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(-25.0, 25.0);
    const double got = lane::Tanh(x);
    const double want = std::tanh(x);
    EXPECT_NEAR(got, want, 1e-14 + std::fabs(want) * 1e-13) << "x=" << x;
  }
  EXPECT_EQ(lane::Tanh(0.0), 0.0);
  EXPECT_EQ(lane::Tanh(750.0), 1.0);
  EXPECT_EQ(lane::Tanh(-750.0), -1.0);
}

TEST(KernelAccuracyTest, SigmoidStableAtExtremeLogits) {
  // The old 1/(1+exp(-v)) form computed exp(750)=inf for v=-750; the
  // two-sided form must hit the limits exactly, with no inf/NaN en
  // route, and stay accurate in the middle.
  EXPECT_EQ(lane::Sigmoid(750.0), 1.0);
  EXPECT_EQ(lane::Sigmoid(-750.0), 0.0);
  EXPECT_EQ(lane::Sigmoid(0.0), 0.5);
  Rng rng(109);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(-40.0, 40.0);
    const double want = 1.0 / (1.0 + std::exp(-x));  // safe in this range
    EXPECT_NEAR(lane::Sigmoid(x), want, 1e-14 + want * 1e-13) << "x=" << x;
  }
  // Symmetry of the two-sided form: s(x) + s(-x) == 1 exactly would be
  // too strong, but both branches share 1+e so it holds to 1 ULP.
  for (double x : {0.5, 1.0, 3.0, 17.0, 100.0}) {
    EXPECT_NEAR(lane::Sigmoid(x) + lane::Sigmoid(-x), 1.0, 1e-15);
  }
}

// --- Matrix-level determinism ---------------------------------------
// The full Matrix ops built on the kernels must be bit-identical for
// any DAISY_THREADS value, and (given the §5g contract) for scalar vs
// AVX2 too. 65x47 * 47x33 exercises tile boundaries and ragged tails;
// the head shapes run narrow outputs at odd row counts.

struct MatrixCase {
  Matrix mm, tmm, mmt, act, soft, rsn;
  // Output-head products (n x 96 · 96 x w, its TN and NT backward
  // forms) at odd row counts, one per (n, w).
  std::vector<Matrix> heads;
};

MatrixCase RunMatrixOps() {
  Rng rng(110);
  Matrix a = Matrix::Randn(65, 47, &rng);
  Matrix b = Matrix::Randn(47, 33, &rng);
  Matrix c = Matrix::Randn(65, 33, &rng);
  MatrixCase out;
  out.mm = a.MatMul(b);
  out.tmm = a.TransposeMatMul(c);
  out.mmt = a.MatMulTranspose(Matrix::Randn(21, 47, &rng));
  out.act = a;  // exercised via the kernel-backed elementwise ops
  out.act += a;
  out.act = out.act.CWiseMul(a);
  out.act *= 0.37;
  out.soft = c;
  out.soft.ScaleRows(c.RowSquaredNorms());
  out.rsn = Matrix::RowDots(a, a);
  for (size_t n : {37u, 63u}) {
    const Matrix x = Matrix::Randn(n, 96, &rng);
    for (size_t w : {1u, 2u, 5u}) {
      const Matrix wt = Matrix::Randn(96, w, &rng);
      const Matrix g = Matrix::Randn(n, w, &rng);
      out.heads.push_back(x.MatMul(wt));
      out.heads.push_back(x.TransposeMatMul(g));
      out.heads.push_back(g.MatMulTranspose(wt));
    }
  }
  return out;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitwiseEqual(const MatrixCase& a, const MatrixCase& b) {
  if (a.heads.size() != b.heads.size()) return false;
  for (size_t i = 0; i < a.heads.size(); ++i)
    if (!BitwiseEqual(a.heads[i], b.heads[i])) return false;
  return BitwiseEqual(a.mm, b.mm) && BitwiseEqual(a.tmm, b.tmm) &&
         BitwiseEqual(a.mmt, b.mmt) && BitwiseEqual(a.act, b.act) &&
         BitwiseEqual(a.soft, b.soft) && BitwiseEqual(a.rsn, b.rsn);
}

TEST(KernelDeterminismTest, MatrixOpsBitwiseAcrossThreadCounts) {
  const size_t restore = par::NumThreads();
  par::SetNumThreads(1);
  const MatrixCase base = RunMatrixOps();
  for (size_t threads : {2u, 7u}) {
    par::SetNumThreads(threads);
    EXPECT_TRUE(BitwiseEqual(base, RunMatrixOps()))
        << "threads=" << threads << " diverged from threads=1";
  }
  par::SetNumThreads(restore);
}

TEST(KernelDeterminismTest, MatrixOpsBitwiseAcrossIsas) {
  DAISY_REQUIRE_AVX2();
  SetIsaForTesting(Isa::kScalar);
  const MatrixCase scalar = RunMatrixOps();
  SetIsaForTesting(Isa::kAvx2);
  const MatrixCase avx2 = RunMatrixOps();
  ResetIsaForTesting();
  EXPECT_TRUE(BitwiseEqual(scalar, avx2));
}

TEST(KernelDeterminismTest, MatrixOpsBitwiseAcrossIsaAndThreadGrid) {
  DAISY_REQUIRE_AVX2();
  const size_t restore = par::NumThreads();
  SetIsaForTesting(Isa::kScalar);
  par::SetNumThreads(1);
  const MatrixCase base = RunMatrixOps();
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    SetIsaForTesting(isa);
    for (size_t threads : {1u, 2u, 7u}) {
      par::SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(base, RunMatrixOps()))
          << "isa=" << IsaName(isa) << " threads=" << threads;
    }
  }
  ResetIsaForTesting();
  par::SetNumThreads(restore);
}

}  // namespace
}  // namespace daisy::kern
