// medGAN-style synthesizer (Choi et al. [18]): an autoencoder is
// pretrained on the transformed records, then a GAN is trained in the
// autoencoder's latent space — the generator emits latent codes, the
// (fine-tuned) decoder turns them into samples, and the discriminator
// judges decoded samples against real ones. The decoder bridges the
// discrete/continuous gap that plain GANs handle with attribute-aware
// heads.
#ifndef DAISY_BASELINES_MEDGAN_H_
#define DAISY_BASELINES_MEDGAN_H_

#include <memory>
#include <vector>

#include "data/table.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "obs/metrics.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "synth/heads.h"
#include "synth/mlp_nets.h"
#include "transform/record_transformer.h"

namespace daisy::baselines {

/// The loop knobs (LoopOptions) count pretraining epochs (telemetry tag
/// "medgan.pretrain", checkpoint phase 0) and adversarial iterations
/// (tag "medgan", phase 1); max_iters_per_run counts both together.
struct MedGanOptions : synth::LoopOptions {
  size_t latent_dim = 24;
  std::vector<size_t> hidden = {64};
  /// Autoencoder pretraining epochs.
  size_t ae_epochs = 20;
  /// Adversarial iterations after pretraining.
  size_t gan_iterations = 300;
  size_t batch_size = 64;
  double lr = 1e-3;
  /// Weight of the per-attribute KL/moment warm-up (paper Eq. 2)
  /// applied to the generator step, exactly as in VTrain; medGAN is
  /// just as prone to marginal collapse without it at this scale.
  double kl_weight = 1.0;

  uint64_t seed = 31;
};

class MedGanSynthesizer {
 public:
  MedGanSynthesizer(const MedGanOptions& options,
                    const transform::TransformOptions& transform_opts);

  /// Trains autoencoder then GAN. A non-null `sink` receives records
  /// from both phases. Returns OK, or why the sentinel stopped the
  /// run — in which case the generation-path parameters are rolled
  /// back to the last healthy epoch/iteration of the failing phase, so
  /// Generate() still samples from sane weights. A checkpoint that does
  /// not fit the run (with resume set) is refused before training and
  /// leaves medGAN unfitted.
  Status Fit(const data::Table& train, obs::MetricSink* sink = nullptr);
  data::Table Generate(size_t n, Rng* rng);

  /// Autoencoder reconstruction loss after pretraining (for tests).
  double pretrain_loss() const { return pretrain_loss_; }

  /// True once Fit trained (even if it stopped early).
  bool fitted() const { return fitted_; }

  /// Every parameter's current value, autoencoder first (for tests).
  synth::StateDict ParamState();

  /// True when the last Fit stopped early on max_iters_per_run.
  bool paused() const { return paused_; }

 private:
  Matrix Decode(const Matrix& latent, bool training);

  MedGanOptions opts_;
  transform::TransformOptions topts_;
  Rng rng_;

  std::unique_ptr<transform::RecordTransformer> transformer_;
  std::unique_ptr<nn::Sequential> encoder_;       // sample -> latent
  std::unique_ptr<nn::Sequential> decoder_body_;  // latent -> features
  std::unique_ptr<synth::AttributeHeads> decoder_heads_;
  std::unique_ptr<nn::Sequential> latent_generator_;  // noise -> latent
  std::unique_ptr<synth::MlpDiscriminator> discriminator_;

  double pretrain_loss_ = 0.0;
  bool fitted_ = false;
  bool paused_ = false;
};

}  // namespace daisy::baselines

#endif  // DAISY_BASELINES_MEDGAN_H_
