// Elementwise activations plus row-wise Softmax. All forward and
// backward passes run on the runtime-dispatched SIMD kernels
// (core/kernels/), parallelized in index-stable chunks — results are
// bit-identical for any DAISY_THREADS value and for scalar vs AVX2.
#ifndef DAISY_NN_ACTIVATIONS_H_
#define DAISY_NN_ACTIVATIONS_H_

#include "nn/module.h"

namespace daisy::nn {

/// max(0, x).
class ReLU : public Module {
 public:
  Matrix Forward(const Matrix& x, bool training) override;
  Matrix InferenceForward(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;

 private:
  Matrix cached_input_;
};

/// x if x > 0 else alpha * x.
class LeakyReLU : public Module {
 public:
  explicit LeakyReLU(double alpha = 0.2) : alpha_(alpha) {}
  Matrix Forward(const Matrix& x, bool training) override;
  Matrix InferenceForward(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;

 private:
  double alpha_;
  Matrix cached_input_;
};

/// Hyperbolic tangent.
class Tanh : public Module {
 public:
  Matrix Forward(const Matrix& x, bool training) override;
  Matrix InferenceForward(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;

 private:
  Matrix cached_output_;
};

/// Logistic sigmoid.
class Sigmoid : public Module {
 public:
  Matrix Forward(const Matrix& x, bool training) override;
  Matrix InferenceForward(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;

 private:
  Matrix cached_output_;
};

/// Row-wise softmax with the usual max-subtraction for stability.
class Softmax : public Module {
 public:
  Matrix Forward(const Matrix& x, bool training) override;
  Matrix InferenceForward(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;

 private:
  Matrix cached_output_;
};

/// Free-function forms used where a Module instance is overkill.
/// SoftmaxRows of a zero-column matrix is the empty rows x 0 matrix
/// (a degenerate head must not read x(r, 0)).
Matrix SoftmaxRows(const Matrix& x);
/// Branch-stable sigmoid: exp only ever sees non-positive arguments,
/// so extreme logits (e.g. ±750) saturate to exactly 0/1 instead of
/// overflowing exp.
Matrix SigmoidMat(const Matrix& x);
Matrix TanhMat(const Matrix& x);
Matrix ReluMat(const Matrix& x);
Matrix LeakyReluMat(const Matrix& x, double alpha);

/// Backward helpers shared by the Modules above and the generator
/// output heads (synth/heads.cc). Each returns dLoss/dPreactivation
/// given the cached forward *output* y (tanh/sigmoid/softmax) and the
/// incoming gradient.
Matrix TanhBackwardFromOutput(const Matrix& y, const Matrix& grad_out);
Matrix SigmoidBackwardFromOutput(const Matrix& y, const Matrix& grad_out);
Matrix SoftmaxRowsBackward(const Matrix& y, const Matrix& grad_out);

}  // namespace daisy::nn

#endif  // DAISY_NN_ACTIVATIONS_H_
