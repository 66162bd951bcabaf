// Minibatch SGD family: plain SGD, Adam (VTrain/CTrain) and RMSProp
// (WTrain/DPTrain), matching Table 1 of the paper.
#ifndef DAISY_NN_OPTIMIZER_H_
#define DAISY_NN_OPTIMIZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/serial.h"
#include "nn/module.h"

namespace daisy::nn {

/// Base optimizer: owns nothing; steps a fixed set of parameters.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params, double lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  /// Applies one update using each parameter's accumulated gradient.
  virtual void Step() = 0;

  /// Serializes mutable optimizer state (moment estimates, step count)
  /// plus a kind tag and the hyperparameters, so a checkpointed run can
  /// restore the exact update rule. Stateless optimizers write only the
  /// kind tag.
  virtual void Save(Serializer* ser) const = 0;

  /// Restores state written by Save. Kind or shape mismatches latch a
  /// failure on `des` and leave this optimizer untouched; the caller
  /// checks des->ok() once at the end of loading.
  virtual void Load(Deserializer* des) = 0;

  void ZeroGrad() {
    for (Parameter* p : params_) p->ZeroGrad();
  }

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }

 protected:
  std::vector<Parameter*> params_;
  double lr_;
};

/// Vanilla gradient descent (used by tests and the VAE warm start).
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, double lr)
      : Optimizer(std::move(params), lr) {}
  void Step() override;
  void Save(Serializer* ser) const override;
  void Load(Deserializer* des) override;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);
  void Step() override;
  void Save(Serializer* ser) const override;
  void Load(Deserializer* des) override;

 private:
  double beta1_, beta2_, eps_;
  long long t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

/// RMSProp as used by WGAN.
class RmsProp : public Optimizer {
 public:
  RmsProp(std::vector<Parameter*> params, double lr, double decay = 0.9,
          double eps = 1e-8);
  void Step() override;
  void Save(Serializer* ser) const override;
  void Load(Deserializer* des) override;

 private:
  double decay_, eps_;
  std::vector<Matrix> sq_;
};

/// Optimizer state as the opaque blob a checkpoint stores, and back.
/// LoadOptimizerBlob names the optimizer (`which`) in its error.
std::string OptimizerBlob(const Optimizer& opt);
Status LoadOptimizerBlob(Optimizer* opt, const std::string& blob,
                         const char* which);

/// Clamps every parameter value into [-c, c] (WGAN weight clipping).
void ClipParams(const std::vector<Parameter*>& params, double c);

/// Rescales the accumulated gradients so their global L2 norm is at
/// most max_norm (RCC-GAN-style critic regularization; no-op when the
/// norm is already within the bound). Returns the pre-clip norm.
double ClipGradNorm(const std::vector<Parameter*>& params, double max_norm);

/// Per-sample DP-SGD gradient aggregation (Abadi et al.). Usage, per
/// minibatch: run the backward pass for ONE sample at a time, call
/// AccumulateSample after each (clips that sample's gradient to
/// max_norm in global L2 and adds it to a running sum), then call
/// Finalize, which overwrites the params' grads with
/// (sum + N(0, (noise_scale * max_norm)^2 I)) / batch_size.
///
/// Clipping before the sum bounds every record's contribution to the
/// noised SUM by max_norm, so the per-record L2 sensitivity is exactly
/// max_norm — the assumption synth/dp_accountant.h relies on. (Clipping
/// only the batch-averaged gradient would NOT give this bound: one
/// outlier can still swing the clipped average by ~2*max_norm, making
/// noise divided by the batch size ~B times too small.)
class DpSgdAggregator {
 public:
  DpSgdAggregator(const std::vector<Parameter*>& params, double max_norm);

  /// Clips the gradient currently held by `params` (one sample's
  /// backward pass) to `max_norm` and adds it to the running sum. The
  /// caller zero-grads between samples. Returns the sample's pre-clip
  /// global gradient norm (telemetry / fast-path cross-checks).
  double AccumulateSample(const std::vector<Parameter*>& params);

  /// Adds an ALREADY-CLIPPED sum of `samples` per-sample gradients
  /// (shapes matching the params this aggregator was built from). Used
  /// by the vectorized DP engine, which forms the clipped sum with
  /// batched matrix products.
  void AccumulateClippedSum(const std::vector<Matrix>& grads,
                            size_t samples);

  /// Clears the running sum and sample count for reuse across steps
  /// (avoids reallocating the shadow matrices every minibatch).
  void Reset();

  /// Writes (sum + noise) / batch_size into the params' grads.
  void Finalize(const std::vector<Parameter*>& params, double noise_scale,
                size_t batch_size, Rng* rng);

  /// Global L2 norm of the clipped sum so far (pre-noise telemetry).
  double SumNorm() const;

  size_t samples() const { return samples_; }

 private:
  double max_norm_;
  size_t samples_ = 0;
  std::vector<Matrix> sum_;
};

/// Global L2 norm across all parameter gradients.
double GlobalGradNorm(const std::vector<Parameter*>& params);

/// Global L2 norm across all parameter values (run telemetry).
double GlobalParamNorm(const std::vector<Parameter*>& params);

}  // namespace daisy::nn

#endif  // DAISY_NN_OPTIMIZER_H_
