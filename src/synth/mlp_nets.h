// MLP generator and discriminator (paper Appendix A.1.2).
#ifndef DAISY_SYNTH_MLP_NETS_H_
#define DAISY_SYNTH_MLP_NETS_H_

#include <vector>

#include "nn/sequential.h"
#include "synth/discriminator.h"
#include "synth/generator.h"
#include "synth/heads.h"

namespace daisy::synth {

/// Generator: [z | c] -> L x (FC -> BatchNorm -> ReLU) -> attribute-
/// aware output heads.
class MlpGenerator : public Generator {
 public:
  MlpGenerator(size_t noise_dim, size_t cond_dim,
               const std::vector<size_t>& hidden,
               const std::vector<transform::AttrSegment>& segments, Rng* rng);

  size_t noise_dim() const override { return noise_dim_; }
  size_t cond_dim() const override { return cond_dim_; }
  size_t sample_dim() const override { return heads_.sample_dim(); }

  Matrix Forward(const Matrix& z, const Matrix& cond, bool training) override;
  Matrix InferenceForward(const Matrix& z, const Matrix& cond) const override;
  void Backward(const Matrix& grad_sample) override;
  std::vector<nn::Parameter*> Params() override;
  std::vector<Matrix*> Buffers() override { return body_.Buffers(); }

 private:
  size_t noise_dim_;
  size_t cond_dim_;
  nn::Sequential body_;
  AttributeHeads heads_;
};

/// Discriminator: [t | c] -> L x (FC -> LeakyReLU) -> FC -> logit.
/// `simplified` collapses the body to one narrow layer (the §5.2
/// mode-collapse mitigation).
class MlpDiscriminator : public Discriminator {
 public:
  MlpDiscriminator(size_t sample_dim, size_t cond_dim,
                   const std::vector<size_t>& hidden, bool simplified,
                   Rng* rng);

  size_t sample_dim() const override { return sample_dim_; }
  size_t cond_dim() const override { return cond_dim_; }

  Matrix Forward(const Matrix& x, const Matrix& cond, bool training) override;
  Matrix Backward(const Matrix& grad_logit) override;
  std::vector<nn::Parameter*> Params() override;
  std::vector<Matrix*> Buffers() override { return body_.Buffers(); }
  nn::Sequential* FastPathBody() override { return &body_; }

 private:
  size_t sample_dim_;
  size_t cond_dim_;
  nn::Sequential body_;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_MLP_NETS_H_
