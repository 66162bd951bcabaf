// 1-D batch normalization (Ioffe & Szegedy), used by the MLP/CNN
// generators per the paper's architecture equations.
#ifndef DAISY_NN_BATCHNORM_H_
#define DAISY_NN_BATCHNORM_H_

#include "nn/module.h"

namespace daisy::nn {

/// Normalizes each feature over the batch; learnable scale (gamma) and
/// shift (beta). Running statistics are kept for inference mode.
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(size_t features, double momentum = 0.1,
                       double eps = 1e-5);

  Matrix Forward(const Matrix& x, bool training) override;
  Matrix InferenceForward(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  std::vector<Parameter*> Params() override { return {&gamma_, &beta_}; }
  std::vector<Matrix*> Buffers() override {
    return {&running_mean_, &running_var_};
  }

 private:
  size_t features_;
  double momentum_;
  double eps_;
  Parameter gamma_;  // 1 x features
  Parameter beta_;   // 1 x features
  Matrix running_mean_;
  Matrix running_var_;
  // Backward caches.
  Matrix cached_xhat_;
  Matrix cached_inv_std_;  // 1 x features
};

}  // namespace daisy::nn

#endif  // DAISY_NN_BATCHNORM_H_
