#include "nn/linear.h"

#include <cmath>

namespace daisy::nn {

Linear::Linear(size_t in, size_t out, Rng* rng) : in_(in), out_(out) {
  const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
  weight_ = Parameter("linear.weight",
                      Matrix::RandUniform(in, out, rng, -bound, bound));
  bias_ = Parameter("linear.bias", Matrix(1, out));
}

Matrix Linear::Forward(const Matrix& x, bool /*training*/) {
  cached_input_ = x;
  return InferenceForward(x);
}

Matrix Linear::InferenceForward(const Matrix& x) const {
  DAISY_CHECK(x.cols() == in_);
  Matrix y = x.MatMul(weight_.value);
  y.AddRowBroadcast(bias_.value);
  return y;
}

Matrix Linear::Backward(const Matrix& grad_out) {
  DAISY_CHECK(grad_out.cols() == out_);
  DAISY_CHECK(grad_out.rows() == cached_input_.rows());
  weight_.grad += cached_input_.TransposeMatMul(grad_out);
  bias_.grad += grad_out.ColSum();
  return grad_out.MatMulTranspose(weight_.value);
}

Matrix Linear::PropagateDelta(const Matrix& grad_out) const {
  DAISY_CHECK(grad_out.cols() == out_);
  return grad_out.MatMulTranspose(weight_.value);
}

}  // namespace daisy::nn
