// LSTM cell with explicit stepwise forward/backward so callers can run
// backpropagation-through-time over an arbitrary number of timesteps —
// the LSTM generator (paper Appendix A.1.3) re-feeds the noise z at
// every step and uses a variable number of steps per attribute.
#ifndef DAISY_NN_LSTM_H_
#define DAISY_NN_LSTM_H_

#include <vector>

#include "core/rng.h"
#include "nn/module.h"

namespace daisy::nn {

/// Output of one LSTM step.
struct LstmState {
  Matrix h;  // batch x hidden
  Matrix c;  // batch x hidden
};

/// A single LSTM cell (gate order i, f, g, o) shared across timesteps.
/// Call StepForward once per timestep, then StepBackward the same
/// number of times in reverse order; caches are kept on an internal
/// stack. ClearCache() resets between sequences.
class LstmCell {
 public:
  LstmCell(size_t input_size, size_t hidden_size, Rng* rng);

  size_t input_size() const { return input_size_; }
  size_t hidden_size() const { return hidden_size_; }

  /// Gate pre-activation partial of leading input columns that hold
  /// the same values at every step (the LSTM generator's re-fed noise
  /// z): lead · W[0, lead.cols()), computed once per sequence. A step
  /// given it starts each output element's p-sum from the partial and
  /// carries on over the remaining columns in ascending order — the
  /// same additions, from the same 0.0, as the full product, so the
  /// bits do not change.
  struct LeadPartial {
    size_t cols = 0;
    Matrix pre;  // batch x 4*hidden
  };
  LeadPartial PartialOverLead(const Matrix& lead) const;

  /// One timestep. Pushes the step's cache onto the BPTT stack. When
  /// `lead` is given, x's first lead->cols columns must be the ones it
  /// was computed from.
  LstmState StepForward(const Matrix& x, const LstmState& prev,
                        const LeadPartial* lead = nullptr);

  /// Inference-only timestep: the same gate body as StepForward but
  /// const and cache-free — nothing is pushed onto the BPTT stack, so
  /// it is safe to call concurrently from many threads on one shared
  /// cell. StepBackward must never follow a StepInference.
  LstmState StepInference(const Matrix& x, const LstmState& prev,
                          const LeadPartial* lead = nullptr) const;

  /// Reverse of the most recent un-popped StepForward. `grad_h` /
  /// `grad_c` are dLoss/dh_t and dLoss/dc_t; outputs are dLoss/dx plus
  /// the gradients to pass to the previous step.
  struct StepGrads {
    Matrix dx;
    Matrix dh_prev;
    Matrix dc_prev;
  };
  StepGrads StepBackward(const Matrix& grad_h, const Matrix& grad_c);

  void ClearCache() { cache_.clear(); }
  size_t cache_depth() const { return cache_.size(); }

  std::vector<Parameter*> Params() { return {&weight_, &bias_}; }
  void ZeroGrad() {
    weight_.ZeroGrad();
    bias_.ZeroGrad();
  }

  /// Zero-initialized state for a batch.
  LstmState InitialState(size_t batch) const {
    return {Matrix(batch, hidden_size_), Matrix(batch, hidden_size_)};
  }

 private:
  struct StepCache {
    Matrix xh;      // batch x (input+hidden): concatenated input
    Matrix gates;   // batch x 4*hidden: post-activation i,f,g,o
    Matrix c_prev;  // batch x hidden
    Matrix c;       // batch x hidden
  };

  /// The step both public variants run: the gate GEMM (from `lead`
  /// when given), the bias, then the gates, row by row. Fills `cache`
  /// when non-null.
  LstmState Step(const Matrix& x, const LstmState& prev,
                 const LeadPartial* lead, StepCache* cache) const;

  size_t input_size_;
  size_t hidden_size_;
  Parameter weight_;  // (input+hidden) x 4*hidden
  Parameter bias_;    // 1 x 4*hidden
  std::vector<StepCache> cache_;
};

}  // namespace daisy::nn

#endif  // DAISY_NN_LSTM_H_
