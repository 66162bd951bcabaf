// Scalar kernel table: the portable fallback and the reference the
// AVX2 specialization must match bitwise. Per-lane math comes from
// lane_ops.h (shared with the AVX2 TU); reductions use the striped
// order documented there. Built with -ffp-contract=off so the compiler
// cannot fuse the mul+add sequences the contract fixes.
#include "core/kernels/kernels.h"
#include "core/kernels/lane_ops.h"
#include "core/kernels/tables.h"

namespace daisy::kern {
namespace {

void GemmNnScalar(const double* a, size_t a_rs, size_t a_ps, const double* b,
                  size_t b_stride, size_t pn, double* o, size_t o_stride,
                  size_t rows, size_t jn) {
  for (size_t r = 0; r < rows; ++r) {
    double* orow = o + r * o_stride;
    for (size_t p = 0; p < pn; ++p) {
      const double ap = a[r * a_rs + p * a_ps];
      const double* br = b + p * b_stride;
      for (size_t j = 0; j < jn; ++j) orow[j] += ap * br[j];
    }
  }
}

void GemmNtScalar(const double* a, size_t a_stride, const double* bp,
                  size_t kn, double* o, size_t o_stride, size_t rows,
                  size_t jn) {
  for (size_t r = 0; r < rows; ++r) {
    const double* arow = a + r * a_stride;
    for (size_t j = 0; j < jn; ++j) {
      const double* bcol = bp + (j / 4) * 4 * kn + j % 4;
      double s[4] = {0.0, 0.0, 0.0, 0.0};
      for (size_t p = 0; p < kn; ++p) s[p & 3] += arow[p] * bcol[4 * p];
      o[r * o_stride + j] = lane::CombineStripes(s);
    }
  }
}

double DotScalar(const double* a, const double* b, size_t n) {
  return lane::DotStriped(a, b, n);
}

void ScaleScalar(double s, double* d, size_t n) {
  for (size_t i = 0; i < n; ++i) d[i] *= s;
}

void AddScalar(const double* s, double* d, size_t n) {
  for (size_t i = 0; i < n; ++i) d[i] += s[i];
}

void SubScalar(const double* s, double* d, size_t n) {
  for (size_t i = 0; i < n; ++i) d[i] -= s[i];
}

void MulScalar(const double* s, double* d, size_t n) {
  for (size_t i = 0; i < n; ++i) d[i] *= s[i];
}

void TanhScalar(const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = lane::Tanh(x[i]);
}

void SigmoidScalar(const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = lane::Sigmoid(x[i]);
}

void ReluScalar(const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void LeakyReluScalar(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : alpha * x[i];
}

void TanhBwdScalar(const double* y, double* g, size_t n) {
  for (size_t i = 0; i < n; ++i) g[i] = g[i] * (1.0 - y[i] * y[i]);
}

void SigmoidBwdScalar(const double* y, double* g, size_t n) {
  for (size_t i = 0; i < n; ++i) g[i] = g[i] * (y[i] * (1.0 - y[i]));
}

void ReluBwdScalar(const double* x, double* g, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!(x[i] > 0.0)) g[i] = 0.0;
  }
}

void LeakyReluBwdScalar(double alpha, const double* x, double* g, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!(x[i] > 0.0)) g[i] = alpha * g[i];
  }
}

void SoftmaxRowScalar(const double* x, double* y, size_t n) {
  double mx = x[0];
  for (size_t i = 1; i < n; ++i) mx = lane::Max2(mx, x[i]);
  for (size_t i = 0; i < n; ++i) y[i] = lane::Exp(x[i] - mx);
  const double inv = 1.0 / lane::SumStriped(y, n);
  for (size_t i = 0; i < n; ++i) y[i] = y[i] * inv;
}

void SoftmaxRowBwdScalar(const double* y, const double* g, double* out,
                         size_t n) {
  const double dot = lane::DotStriped(g, y, n);
  for (size_t i = 0; i < n; ++i) out[i] = y[i] * (g[i] - dot);
}

size_t ArgMaxScalar(const double* x, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i)
    if (x[i] > x[best]) best = i;
  return best;
}

}  // namespace

const KernelTable kScalarTable = {
    .gemm_nn = GemmNnScalar,
    .gemm_nt = GemmNtScalar,
    .dot = DotScalar,
    .scale = ScaleScalar,
    .add = AddScalar,
    .sub = SubScalar,
    .mul = MulScalar,
    .tanh = TanhScalar,
    .sigmoid = SigmoidScalar,
    .relu = ReluScalar,
    .leaky_relu = LeakyReluScalar,
    .tanh_bwd = TanhBwdScalar,
    .sigmoid_bwd = SigmoidBwdScalar,
    .relu_bwd = ReluBwdScalar,
    .leaky_relu_bwd = LeakyReluBwdScalar,
    .softmax_row = SoftmaxRowScalar,
    .softmax_row_bwd = SoftmaxRowBwdScalar,
    .argmax = ArgMaxScalar,
};

}  // namespace daisy::kern
