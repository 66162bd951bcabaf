#include "synth/mlp_nets.h"

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/linear.h"

namespace daisy::synth {

MlpGenerator::MlpGenerator(
    size_t noise_dim, size_t cond_dim, const std::vector<size_t>& hidden,
    const std::vector<transform::AttrSegment>& segments, Rng* rng)
    : noise_dim_(noise_dim), cond_dim_(cond_dim),
      heads_(hidden.empty() ? noise_dim + cond_dim : hidden.back(), segments,
             rng) {
  size_t in = noise_dim + cond_dim;
  for (size_t width : hidden) {
    body_.Emplace<nn::Linear>(in, width, rng);
    // Batch normalization erases the condition signal under label-aware
    // sampling: a CTrain minibatch is homogeneous in the label, so the
    // condition's contribution is a per-batch constant that BN's
    // mean-subtraction removes. Conditional generators therefore skip
    // BN (unconditional ones keep it, per the paper's architecture).
    if (cond_dim == 0) body_.Emplace<nn::BatchNorm1d>(width);
    body_.Emplace<nn::ReLU>();
    in = width;
  }
}

Matrix MlpGenerator::Forward(const Matrix& z, const Matrix& cond,
                             bool training) {
  DAISY_CHECK(z.cols() == noise_dim_);
  Matrix input = cond_dim_ > 0 ? Matrix::HCat(z, cond) : z;
  Matrix features = body_.Forward(input, training);
  return heads_.Forward(features);
}

Matrix MlpGenerator::InferenceForward(const Matrix& z,
                                      const Matrix& cond) const {
  DAISY_CHECK(z.cols() == noise_dim_);
  Matrix input = cond_dim_ > 0 ? Matrix::HCat(z, cond) : z;
  Matrix features = body_.InferenceForward(input);
  return heads_.InferenceForward(features);
}

void MlpGenerator::Backward(const Matrix& grad_sample) {
  Matrix grad_features = heads_.Backward(grad_sample);
  body_.Backward(grad_features);
}

std::vector<nn::Parameter*> MlpGenerator::Params() {
  auto out = body_.Params();
  auto hp = heads_.Params();
  out.insert(out.end(), hp.begin(), hp.end());
  return out;
}

MlpDiscriminator::MlpDiscriminator(size_t sample_dim, size_t cond_dim,
                                   const std::vector<size_t>& hidden,
                                   bool simplified, Rng* rng)
    : sample_dim_(sample_dim), cond_dim_(cond_dim) {
  std::vector<size_t> layers = hidden;
  if (simplified) {
    // One deliberately narrow layer so D never trains "too well"
    // (avoids generator gradient vanishing, paper Finding 3).
    const size_t narrow =
        std::max<size_t>(8, hidden.empty() ? 16 : hidden.front() / 4);
    layers = {narrow};
  }
  size_t in = sample_dim + cond_dim;
  for (size_t width : layers) {
    body_.Emplace<nn::Linear>(in, width, rng);
    body_.Emplace<nn::LeakyReLU>(0.2);
    in = width;
  }
  body_.Emplace<nn::Linear>(in, 1, rng);
}

Matrix MlpDiscriminator::Forward(const Matrix& x, const Matrix& cond,
                                 bool training) {
  DAISY_CHECK(x.cols() == sample_dim_);
  Matrix input = cond_dim_ > 0 ? Matrix::HCat(x, cond) : x;
  return body_.Forward(input, training);
}

Matrix MlpDiscriminator::Backward(const Matrix& grad_logit) {
  Matrix grad_input = body_.Backward(grad_logit);
  // Strip the condition columns: only the sample slice flows to G.
  return cond_dim_ > 0 ? grad_input.ColRange(0, sample_dim_) : grad_input;
}

std::vector<nn::Parameter*> MlpDiscriminator::Params() {
  return body_.Params();
}

}  // namespace daisy::synth
