// Module abstraction for the neural-network substrate. Each module
// implements an explicit Forward/Backward pair (manual backprop with
// cached activations) instead of a tape-based autograd — small enough
// to verify exhaustively with finite-difference gradient checks.
#ifndef DAISY_NN_MODULE_H_
#define DAISY_NN_MODULE_H_

#include <string>
#include <vector>

#include "core/matrix.h"

namespace daisy::nn {

/// A learnable tensor: value plus accumulated gradient of the loss.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;

  Parameter() = default;
  Parameter(std::string n, Matrix v)
      : name(std::move(n)), value(std::move(v)),
        grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Fill(0.0); }
};

/// Base class for all layers. Forward caches whatever Backward needs;
/// Backward consumes dLoss/dOutput, accumulates parameter gradients and
/// returns dLoss/dInput. A module must see Backward only after the
/// matching Forward.
class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output for a batch (rows = samples).
  /// `training` toggles behaviours such as batch-norm statistics.
  virtual Matrix Forward(const Matrix& x, bool training) = 0;

  /// Inference-only forward: the exact arithmetic of
  /// Forward(x, /*training=*/false) — bit-for-bit, including BatchNorm
  /// running statistics — but const and cache-free. It writes no
  /// backward caches, allocates no gradient or optimizer state, and is
  /// therefore safe to call concurrently from many threads on one
  /// shared instance (the serving path relies on this to run a single
  /// loaded model on a whole worker pool without cloning). Backward
  /// must never follow an InferenceForward: there is no cache to
  /// consume.
  virtual Matrix InferenceForward(const Matrix& x) const = 0;

  /// Backpropagates. `grad_out` is dLoss/dOutput of the last Forward.
  virtual Matrix Backward(const Matrix& grad_out) = 0;

  /// All learnable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Params() { return {}; }

  /// Non-learnable persistent state (e.g. batch-norm running
  /// statistics) that model persistence must round-trip.
  virtual std::vector<Matrix*> Buffers() { return {}; }

  void ZeroGrad() {
    for (Parameter* p : Params()) p->ZeroGrad();
  }
};

}  // namespace daisy::nn

#endif  // DAISY_NN_MODULE_H_
