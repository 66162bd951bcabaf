// Discriminator interface. Outputs raw logits (batch x 1): VTrain-style
// losses apply a sigmoid via BCE-with-logits; Wasserstein training uses
// the score directly (the paper's "remove the sigmoid of D").
#ifndef DAISY_SYNTH_DISCRIMINATOR_H_
#define DAISY_SYNTH_DISCRIMINATOR_H_

#include <vector>

#include "core/matrix.h"
#include "nn/module.h"
#include "nn/sequential.h"

namespace daisy::synth {

/// D(t | c): scores how "real" each sample looks.
class Discriminator {
 public:
  virtual ~Discriminator() = default;

  virtual size_t sample_dim() const = 0;
  virtual size_t cond_dim() const = 0;

  virtual Matrix Forward(const Matrix& x, const Matrix& cond,
                         bool training) = 0;

  /// dLoss/dLogit -> dLoss/dSample (the path that trains the
  /// generator); parameter gradients accumulate as a side effect.
  virtual Matrix Backward(const Matrix& grad_logit) = 0;

  virtual std::vector<nn::Parameter*> Params() = 0;

  /// Persistent non-parameter state (batch-norm running statistics),
  /// mirroring Generator::Buffers; checkpoints capture these so a
  /// resumed discriminator scores exactly like the original.
  virtual std::vector<Matrix*> Buffers() { return {}; }

  /// The plain Sequential stack computing logit = body([x | cond]) when
  /// the whole discriminator is such a stack, else nullptr. When the
  /// stack also passes nn::SupportsPerSampleTape, the vectorized DP
  /// engine can form per-sample gradients from one batched pass.
  virtual nn::Sequential* FastPathBody() { return nullptr; }

  void ZeroGrad() {
    for (nn::Parameter* p : Params()) p->ZeroGrad();
  }
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_DISCRIMINATOR_H_
