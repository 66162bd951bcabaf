// LSTM generator and sequence-to-one LSTM discriminator (paper
// Appendix A.1.3). The generator emits the record attribute-by-
// attribute: the noise z is re-fed at every timestep together with the
// previous step's feature output f, and GMM-normalized attributes take
// two timesteps (value, then mixture component).
#ifndef DAISY_SYNTH_LSTM_NETS_H_
#define DAISY_SYNTH_LSTM_NETS_H_

#include <vector>

#include "nn/linear.h"
#include "nn/lstm.h"
#include "synth/discriminator.h"
#include "synth/generator.h"
#include "synth/heads.h"

namespace daisy::synth {

class LstmGenerator : public Generator {
 public:
  LstmGenerator(size_t noise_dim, size_t cond_dim, size_t hidden_size,
                size_t feature_size,
                const std::vector<transform::AttrSegment>& segments,
                Rng* rng);

  size_t noise_dim() const override { return noise_dim_; }
  size_t cond_dim() const override { return cond_dim_; }
  size_t sample_dim() const override { return sample_dim_; }
  size_t num_timesteps() const { return heads_.size(); }

  Matrix Forward(const Matrix& z, const Matrix& cond, bool training) override;
  Matrix InferenceForward(const Matrix& z, const Matrix& cond) const override;
  void Backward(const Matrix& grad_sample) override;
  std::vector<nn::Parameter*> Params() override;

 private:
  size_t noise_dim_;
  size_t cond_dim_;
  size_t hidden_size_;
  size_t feature_size_;
  size_t sample_dim_;

  nn::LstmCell cell_;
  nn::Parameter fproj_w_;  // hidden -> feature projection (shared)
  nn::Parameter fproj_b_;
  std::vector<HeadProjection> heads_;  // one per timestep

  // Per-step caches for the shared f-projection.
  std::vector<Matrix> step_h_;
  std::vector<Matrix> step_f_;
};

/// Seq-to-one discriminator: the sample is consumed one attribute
/// segment per timestep (each slice zero-padded to the widest segment),
/// and the final hidden state is projected to a logit.
class LstmDiscriminator : public Discriminator {
 public:
  LstmDiscriminator(const std::vector<transform::AttrSegment>& segments,
                    size_t cond_dim, size_t hidden_size, Rng* rng);

  size_t sample_dim() const override { return sample_dim_; }
  size_t cond_dim() const override { return cond_dim_; }

  Matrix Forward(const Matrix& x, const Matrix& cond, bool training) override;
  Matrix Backward(const Matrix& grad_logit) override;
  std::vector<nn::Parameter*> Params() override;

 private:
  std::vector<transform::AttrSegment> segments_;
  size_t sample_dim_;
  size_t cond_dim_;
  size_t slot_width_;  // widest segment
  nn::LstmCell cell_;
  nn::Linear out_;  // hidden -> 1 logit
  size_t cached_batch_ = 0;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_LSTM_NETS_H_
