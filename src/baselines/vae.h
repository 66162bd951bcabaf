// Variational autoencoder baseline (paper §6.3): encoder/decoder MLPs
// over the same reversible record transformation as the GAN, trained
// on reconstruction loss (BCE for categorical blocks, MSE for numeric
// scalars) plus the KL term of the Gaussian posterior.
#ifndef DAISY_BASELINES_VAE_H_
#define DAISY_BASELINES_VAE_H_

#include <memory>

#include "data/table.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "obs/metrics.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "synth/heads.h"
#include "transform/record_transformer.h"

namespace daisy::baselines {

/// The loop knobs (LoopOptions) count epochs.
struct VaeOptions : synth::LoopOptions {
  size_t latent_dim = 16;
  std::vector<size_t> hidden = {96};
  size_t epochs = 30;
  size_t batch_size = 64;
  double lr = 1e-3;
  /// Weight on the KL term (beta-VAE style; 1.0 = standard ELBO).
  double kl_weight = 1.0;

  uint64_t seed = 23;
};

/// Fit/Generate interface mirroring TableSynthesizer.
class VaeSynthesizer {
 public:
  explicit VaeSynthesizer(const VaeOptions& options,
                          const transform::TransformOptions& transform_opts);

  /// Trains the VAE. A non-null `sink` receives one record per
  /// log_every epochs (loss in g_loss, grad/param norms, timings).
  /// Returns OK, or why the divergence sentinel stopped training — in
  /// which case the parameters are rolled back to the last healthy
  /// epoch, so Generate() still samples from sane weights. A
  /// checkpoint that does not fit the run (with resume set) is refused
  /// before training and leaves the VAE unfitted.
  Status Fit(const data::Table& train, obs::MetricSink* sink = nullptr);
  data::Table Generate(size_t n, Rng* rng);

  /// Final average training loss (reconstruction + KL), for tests.
  double final_loss() const { return final_loss_; }

  /// True once Fit trained (even if it stopped early).
  bool fitted() const { return fitted_; }

  /// Every parameter's current value (for tests).
  synth::StateDict ParamState() const { return synth::GetState(params_); }

  /// True when the last Fit stopped early on max_iters_per_run.
  bool paused() const { return paused_; }

 private:
  double TrainBatch(const Matrix& batch, Rng* rng);

  VaeOptions opts_;
  transform::TransformOptions topts_;
  Rng rng_;

  std::unique_ptr<transform::RecordTransformer> transformer_;
  std::unique_ptr<nn::Sequential> encoder_body_;
  std::unique_ptr<nn::Linear> mu_head_;
  std::unique_ptr<nn::Linear> logvar_head_;
  std::unique_ptr<nn::Sequential> decoder_body_;
  std::unique_ptr<synth::AttributeHeads> decoder_heads_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::vector<nn::Parameter*> params_;  // everything the optimizer steps

  double final_loss_ = 0.0;
  bool fitted_ = false;
  bool paused_ = false;
};

}  // namespace daisy::baselines

#endif  // DAISY_BASELINES_VAE_H_
