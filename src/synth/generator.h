// Generator interface plus parameter state-dict helpers used for
// snapshot-based model selection (paper §6.2 keeps the best of 10
// training epochs on the validation set).
#ifndef DAISY_SYNTH_GENERATOR_H_
#define DAISY_SYNTH_GENERATOR_H_

#include <cmath>
#include <vector>

#include "core/matrix.h"
#include "nn/module.h"

namespace daisy::synth {

/// G(z | c): maps noise (and an optional condition vector) to a
/// transformed sample t' in R^d.
class Generator {
 public:
  virtual ~Generator() = default;

  virtual size_t noise_dim() const = 0;
  virtual size_t cond_dim() const = 0;  // 0 when unconditional
  virtual size_t sample_dim() const = 0;

  /// `cond` must be batch x cond_dim (pass an empty Matrix when
  /// cond_dim() == 0).
  virtual Matrix Forward(const Matrix& z, const Matrix& cond,
                         bool training) = 0;

  /// Inference-only forward: the exact arithmetic of
  /// Forward(z, cond, /*training=*/false) — bit-for-bit — but const and
  /// cache-free, so many threads can drive one shared generator
  /// concurrently (the serving path relies on this). Backward must
  /// never follow an InferenceForward.
  virtual Matrix InferenceForward(const Matrix& z,
                                  const Matrix& cond) const = 0;

  /// Backpropagates dLoss/dSample of the last Forward into parameter
  /// gradients (the gradient w.r.t. the noise is discarded).
  virtual void Backward(const Matrix& grad_sample) = 0;

  virtual std::vector<nn::Parameter*> Params() = 0;

  /// Persistent non-parameter state (batch-norm running statistics).
  virtual std::vector<Matrix*> Buffers() { return {}; }

  void ZeroGrad() {
    for (nn::Parameter* p : Params()) p->ZeroGrad();
  }
};

/// Snapshot of parameter values.
using StateDict = std::vector<Matrix>;

inline StateDict GetState(const std::vector<nn::Parameter*>& params) {
  StateDict s;
  s.reserve(params.size());
  for (const nn::Parameter* p : params) s.push_back(p->value);
  return s;
}

inline void SetState(const std::vector<nn::Parameter*>& params,
                     const StateDict& state) {
  DAISY_CHECK(params.size() == state.size());
  for (size_t i = 0; i < params.size(); ++i) {
    DAISY_CHECK(params[i]->value.SameShape(state[i]));
    params[i]->value = state[i];
  }
}

/// Snapshot of buffer values (batch-norm running statistics). Needed
/// alongside GetState/SetState when rolling a network back to a known
/// state: inference-mode Forward reads the running stats, which drift
/// on every training-mode Forward even if parameters are restored.
inline StateDict GetBufferState(const std::vector<Matrix*>& buffers) {
  StateDict s;
  s.reserve(buffers.size());
  for (const Matrix* b : buffers) s.push_back(*b);
  return s;
}

inline void SetBufferState(const std::vector<Matrix*>& buffers,
                           const StateDict& state) {
  DAISY_CHECK(buffers.size() == state.size());
  for (size_t i = 0; i < buffers.size(); ++i) {
    DAISY_CHECK(buffers[i]->SameShape(state[i]));
    *buffers[i] = state[i];
  }
}

/// True when every entry of every matrix is finite (a usable rollback
/// baseline).
inline bool AllFinite(const StateDict& state) {
  for (const Matrix& m : state)
    for (size_t r = 0; r < m.rows(); ++r)
      for (size_t c = 0; c < m.cols(); ++c)
        if (!std::isfinite(m(r, c))) return false;
  return true;
}

/// Shapes of `state` match the live parameter list exactly — the check
/// before SetState on state read from disk.
inline bool ShapesMatch(const std::vector<nn::Parameter*>& params,
                        const StateDict& state) {
  if (params.size() != state.size()) return false;
  for (size_t i = 0; i < params.size(); ++i)
    if (!params[i]->value.SameShape(state[i])) return false;
  return true;
}

inline bool BufferShapesMatch(const std::vector<Matrix*>& buffers,
                              const StateDict& state) {
  if (buffers.size() != state.size()) return false;
  for (size_t i = 0; i < buffers.size(); ++i)
    if (!buffers[i]->SameShape(state[i])) return false;
  return true;
}

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_GENERATOR_H_
