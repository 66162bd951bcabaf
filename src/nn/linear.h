// Fully-connected layer: y = x W + b.
#ifndef DAISY_NN_LINEAR_H_
#define DAISY_NN_LINEAR_H_

#include "core/rng.h"
#include "nn/module.h"

namespace daisy::nn {

/// Affine layer with Xavier/Glorot-uniform initialized weights.
class Linear : public Module {
 public:
  /// Creates an (in -> out) layer. `rng` drives initialization.
  Linear(size_t in, size_t out, Rng* rng);

  Matrix Forward(const Matrix& x, bool training) override;
  Matrix InferenceForward(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }

  size_t in_features() const { return in_; }
  size_t out_features() const { return out_; }

  /// The batch cached by the last Forward (valid until the next one).
  /// The per-sample DP fast path reads it to form per-sample gradients
  /// without re-running the forward pass.
  const Matrix& cached_input() const { return cached_input_; }

  /// dLoss/dOutput -> dLoss/dInput WITHOUT accumulating parameter
  /// gradients — the delta-propagation half of Backward, used when the
  /// caller forms the weight gradient itself (per-sample clipping).
  Matrix PropagateDelta(const Matrix& grad_out) const;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  size_t in_;
  size_t out_;
  Parameter weight_;  // in x out
  Parameter bias_;    // 1 x out
  Matrix cached_input_;
};

}  // namespace daisy::nn

#endif  // DAISY_NN_LINEAR_H_
