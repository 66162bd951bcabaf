#include "nn/activations.h"

#include "core/kernels/kernels.h"
#include "core/parallel.h"

namespace daisy::nn {

namespace {

// Chunk grain for elementwise kernel fan-out: one indirect kernel call
// per chunk (not per element), so the grain mirrors the raw-arithmetic
// loops in matrix.cc. Chunk boundaries cannot change elementwise
// results, so any partition is bit-identical.
constexpr size_t kElemGrain = 1 << 14;

// Row-chunk grain for the softmax kernels (exp-heavy, so fewer
// elements per chunk than the cheap arithmetic ops). Depends only on
// the column count, never the thread count — deterministic partition.
size_t SoftmaxRowGrain(size_t cols) {
  return std::max<size_t>(1, (size_t{1} << 12) / std::max<size_t>(1, cols));
}

using ElemKernel = void (*)(const double*, double*, size_t);

Matrix ApplyElemKernel(ElemKernel k, const Matrix& x) {
  Matrix y(x.rows(), x.cols());
  const double* src = x.data();
  double* dst = y.data();
  par::ParallelFor(0, x.size(), kElemGrain, [&](size_t b, size_t e) {
    k(src + b, dst + b, e - b);
  });
  return y;
}

// In-place gradient scaling: g <- g ⊙ f'(ref), where ref is the cached
// forward input (relu family) or output (tanh/sigmoid).
void ScaleGradInPlace(ElemKernel k, const Matrix& ref, Matrix* g) {
  const double* rd = ref.data();
  double* gd = g->data();
  par::ParallelFor(0, g->size(), kElemGrain, [&](size_t b, size_t e) {
    k(rd + b, gd + b, e - b);
  });
}

}  // namespace

Matrix ReLU::Forward(const Matrix& x, bool /*training*/) {
  cached_input_ = x;
  return InferenceForward(x);
}

Matrix ReLU::InferenceForward(const Matrix& x) const { return ReluMat(x); }

Matrix ReLU::Backward(const Matrix& grad_out) {
  DAISY_CHECK(grad_out.SameShape(cached_input_));
  Matrix g = grad_out;
  ScaleGradInPlace(kern::Active().relu_bwd, cached_input_, &g);
  return g;
}

Matrix LeakyReLU::Forward(const Matrix& x, bool /*training*/) {
  cached_input_ = x;
  return InferenceForward(x);
}

Matrix LeakyReLU::InferenceForward(const Matrix& x) const {
  return LeakyReluMat(x, alpha_);
}

Matrix LeakyReLU::Backward(const Matrix& grad_out) {
  DAISY_CHECK(grad_out.SameShape(cached_input_));
  const kern::KernelTable& kt = kern::Active();
  const double alpha = alpha_;
  Matrix g = grad_out;
  const double* xd = cached_input_.data();
  double* gd = g.data();
  par::ParallelFor(0, g.size(), kElemGrain, [&](size_t b, size_t e) {
    kt.leaky_relu_bwd(alpha, xd + b, gd + b, e - b);
  });
  return g;
}

Matrix Tanh::Forward(const Matrix& x, bool /*training*/) {
  cached_output_ = InferenceForward(x);
  return cached_output_;
}

Matrix Tanh::InferenceForward(const Matrix& x) const { return TanhMat(x); }

Matrix Tanh::Backward(const Matrix& grad_out) {
  return TanhBackwardFromOutput(cached_output_, grad_out);
}

Matrix Sigmoid::Forward(const Matrix& x, bool /*training*/) {
  cached_output_ = InferenceForward(x);
  return cached_output_;
}

Matrix Sigmoid::InferenceForward(const Matrix& x) const {
  return SigmoidMat(x);
}

Matrix Sigmoid::Backward(const Matrix& grad_out) {
  return SigmoidBackwardFromOutput(cached_output_, grad_out);
}

Matrix Softmax::Forward(const Matrix& x, bool /*training*/) {
  cached_output_ = InferenceForward(x);
  return cached_output_;
}

Matrix Softmax::InferenceForward(const Matrix& x) const {
  return SoftmaxRows(x);
}

Matrix Softmax::Backward(const Matrix& grad_out) {
  return SoftmaxRowsBackward(cached_output_, grad_out);
}

Matrix SoftmaxRows(const Matrix& x) {
  // A zero-column input has no row maximum to read; the only honest
  // softmax over an empty support is the empty matrix. Degenerate GMM
  // heads are rejected upstream (synth/heads.cc), but guard here too so
  // no caller can reach the kernel's x[0] load.
  if (x.cols() == 0) return Matrix(x.rows(), 0);
  Matrix y(x.rows(), x.cols());
  const kern::KernelTable& kt = kern::Active();
  // One chunk owner per row; the kernel's striped max/sum order is
  // index-fixed, so any row partition is bit-identical.
  par::ParallelFor(0, x.rows(), SoftmaxRowGrain(x.cols()),
                   [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r)
      kt.softmax_row(x.row(r), y.row(r), x.cols());
  });
  return y;
}

Matrix SigmoidMat(const Matrix& x) {
  return ApplyElemKernel(kern::Active().sigmoid, x);
}

Matrix TanhMat(const Matrix& x) {
  return ApplyElemKernel(kern::Active().tanh, x);
}

Matrix ReluMat(const Matrix& x) {
  return ApplyElemKernel(kern::Active().relu, x);
}

Matrix LeakyReluMat(const Matrix& x, double alpha) {
  Matrix y(x.rows(), x.cols());
  const kern::KernelTable& kt = kern::Active();
  const double* src = x.data();
  double* dst = y.data();
  par::ParallelFor(0, x.size(), kElemGrain, [&](size_t b, size_t e) {
    kt.leaky_relu(alpha, src + b, dst + b, e - b);
  });
  return y;
}

Matrix TanhBackwardFromOutput(const Matrix& y, const Matrix& grad_out) {
  DAISY_CHECK(grad_out.SameShape(y));
  Matrix g = grad_out;
  ScaleGradInPlace(kern::Active().tanh_bwd, y, &g);
  return g;
}

Matrix SigmoidBackwardFromOutput(const Matrix& y, const Matrix& grad_out) {
  DAISY_CHECK(grad_out.SameShape(y));
  Matrix g = grad_out;
  ScaleGradInPlace(kern::Active().sigmoid_bwd, y, &g);
  return g;
}

Matrix SoftmaxRowsBackward(const Matrix& y, const Matrix& grad_out) {
  DAISY_CHECK(grad_out.SameShape(y));
  Matrix g(grad_out.rows(), grad_out.cols());
  if (g.cols() == 0) return g;
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, y.rows(), SoftmaxRowGrain(y.cols()),
                   [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r)
      kt.softmax_row_bwd(y.row(r), grad_out.row(r), g.row(r), y.cols());
  });
  return g;
}

}  // namespace daisy::nn
