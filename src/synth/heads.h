// Attribute-aware generator output heads (paper §5.1 / Appendix A.1.2
// cases C1-C4). Each transformed-attribute segment maps to one or two
// "head units": a Linear projection plus the activation matching its
// transformation scheme.
#ifndef DAISY_SYNTH_HEADS_H_
#define DAISY_SYNTH_HEADS_H_

#include <vector>

#include "nn/linear.h"
#include "transform/record_transformer.h"

namespace daisy::synth {

/// One slice of the sample an output head produces.
struct HeadUnit {
  enum class Act { kTanh, kSoftmax, kSigmoid };
  size_t offset = 0;  // first column in the sample
  size_t width = 0;
  Act act = Act::kTanh;
};

/// Expands attribute segments into head units: simple numeric -> tanh;
/// GMM numeric -> tanh (value) + softmax (component); one-hot ->
/// softmax; ordinal -> sigmoid. A degenerate single-component GMM
/// segment (width 1) yields only the tanh unit — never a width-0
/// softmax head.
std::vector<HeadUnit> BuildHeadUnits(
    const std::vector<transform::AttrSegment>& segments);

/// Linear + activation producing one head unit from a feature vector.
class HeadProjection {
 public:
  HeadProjection(size_t in_features, const HeadUnit& unit, Rng* rng);

  const HeadUnit& unit() const { return unit_; }

  /// batch x in -> batch x unit.width.
  Matrix Forward(const Matrix& features);
  /// Same arithmetic as Forward but const and cache-free (no Backward
  /// possible afterwards); safe for concurrent use on a shared head.
  Matrix InferenceForward(const Matrix& features) const;
  /// dLoss/dUnitOutput -> dLoss/dFeatures (accumulates param grads).
  Matrix Backward(const Matrix& grad_out);

  std::vector<nn::Parameter*> Params() { return linear_.Params(); }

 private:
  HeadUnit unit_;
  nn::Linear linear_;
  Matrix cached_out_;
};

/// All heads applied to one shared feature vector (MLP generator); the
/// LSTM generator instead owns one HeadProjection per timestep.
class AttributeHeads {
 public:
  AttributeHeads(size_t in_features,
                 const std::vector<transform::AttrSegment>& segments,
                 Rng* rng);

  size_t sample_dim() const { return sample_dim_; }

  /// batch x in -> batch x sample_dim (assembled full sample).
  Matrix Forward(const Matrix& features);
  /// Const, cache-free Forward (no Backward possible afterwards).
  Matrix InferenceForward(const Matrix& features) const;
  /// dLoss/dSample -> dLoss/dFeatures.
  Matrix Backward(const Matrix& grad_sample);

  std::vector<nn::Parameter*> Params();

 private:
  size_t sample_dim_;
  std::vector<HeadProjection> projections_;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_HEADS_H_
