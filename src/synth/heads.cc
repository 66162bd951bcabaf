#include "synth/heads.h"

#include "nn/activations.h"

namespace daisy::synth {

std::vector<HeadUnit> BuildHeadUnits(
    const std::vector<transform::AttrSegment>& segments) {
  using Kind = transform::AttrSegment::Kind;
  std::vector<HeadUnit> units;
  for (const auto& seg : segments) {
    switch (seg.kind) {
      case Kind::kSimpleNumeric:
        units.push_back({seg.offset, 1, HeadUnit::Act::kTanh});
        break;
      case Kind::kGmmNumeric:
        units.push_back({seg.offset, 1, HeadUnit::Act::kTanh});
        // A single-component GMM has width 1: just the normalized
        // value, no component-selector columns. Emitting a width-0
        // softmax unit here used to build a head whose SoftmaxRows
        // read x(r, 0) of a rows x 0 matrix.
        if (seg.width > 1) {
          units.push_back({seg.offset + 1, seg.width - 1,
                           HeadUnit::Act::kSoftmax});
        }
        break;
      case Kind::kOneHotCat:
        units.push_back({seg.offset, seg.width, HeadUnit::Act::kSoftmax});
        break;
      case Kind::kOrdinalCat:
        units.push_back({seg.offset, 1, HeadUnit::Act::kSigmoid});
        break;
    }
  }
  return units;
}

HeadProjection::HeadProjection(size_t in_features, const HeadUnit& unit,
                               Rng* rng)
    : unit_(unit), linear_(in_features, unit.width, rng) {
  // A width-0 unit would project onto an empty slice and feed
  // zero-column matrices into the activation kernels; BuildHeadUnits
  // never emits one, and ad-hoc callers must not either.
  DAISY_CHECK(unit.width > 0);
}

Matrix HeadProjection::Forward(const Matrix& features) {
  Matrix pre = linear_.Forward(features, /*training=*/true);
  switch (unit_.act) {
    case HeadUnit::Act::kTanh:
      cached_out_ = nn::TanhMat(pre);
      break;
    case HeadUnit::Act::kSoftmax:
      cached_out_ = nn::SoftmaxRows(pre);
      break;
    case HeadUnit::Act::kSigmoid:
      cached_out_ = nn::SigmoidMat(pre);
      break;
  }
  return cached_out_;
}

Matrix HeadProjection::InferenceForward(const Matrix& features) const {
  Matrix pre = linear_.InferenceForward(features);
  switch (unit_.act) {
    case HeadUnit::Act::kTanh:
      return nn::TanhMat(pre);
    case HeadUnit::Act::kSoftmax:
      return nn::SoftmaxRows(pre);
    case HeadUnit::Act::kSigmoid:
      return nn::SigmoidMat(pre);
  }
  DAISY_CHECK(false);
  return Matrix();
}

Matrix HeadProjection::Backward(const Matrix& grad_out) {
  DAISY_CHECK(grad_out.SameShape(cached_out_));
  Matrix grad_pre;
  switch (unit_.act) {
    case HeadUnit::Act::kTanh:
      grad_pre = nn::TanhBackwardFromOutput(cached_out_, grad_out);
      break;
    case HeadUnit::Act::kSigmoid:
      grad_pre = nn::SigmoidBackwardFromOutput(cached_out_, grad_out);
      break;
    case HeadUnit::Act::kSoftmax:
      grad_pre = nn::SoftmaxRowsBackward(cached_out_, grad_out);
      break;
  }
  return linear_.Backward(grad_pre);
}

AttributeHeads::AttributeHeads(
    size_t in_features, const std::vector<transform::AttrSegment>& segments,
    Rng* rng) {
  sample_dim_ = 0;
  for (const auto& seg : segments) sample_dim_ += seg.width;
  for (const HeadUnit& unit : BuildHeadUnits(segments))
    projections_.emplace_back(in_features, unit, rng);
}

Matrix AttributeHeads::Forward(const Matrix& features) {
  Matrix sample(features.rows(), sample_dim_);
  for (auto& proj : projections_) {
    const Matrix out = proj.Forward(features);
    const HeadUnit& u = proj.unit();
    for (size_t r = 0; r < out.rows(); ++r)
      for (size_t c = 0; c < u.width; ++c)
        sample(r, u.offset + c) = out(r, c);
  }
  return sample;
}

Matrix AttributeHeads::InferenceForward(const Matrix& features) const {
  Matrix sample(features.rows(), sample_dim_);
  for (const auto& proj : projections_) {
    const Matrix out = proj.InferenceForward(features);
    const HeadUnit& u = proj.unit();
    for (size_t r = 0; r < out.rows(); ++r)
      for (size_t c = 0; c < u.width; ++c)
        sample(r, u.offset + c) = out(r, c);
  }
  return sample;
}

Matrix AttributeHeads::Backward(const Matrix& grad_sample) {
  DAISY_CHECK(grad_sample.cols() == sample_dim_);
  Matrix grad_features;
  for (auto& proj : projections_) {
    const HeadUnit& u = proj.unit();
    Matrix g(grad_sample.rows(), u.width);
    for (size_t r = 0; r < g.rows(); ++r)
      for (size_t c = 0; c < u.width; ++c)
        g(r, c) = grad_sample(r, u.offset + c);
    Matrix gf = proj.Backward(g);
    if (grad_features.empty()) {
      grad_features = std::move(gf);
    } else {
      grad_features += gf;
    }
  }
  return grad_features;
}

std::vector<nn::Parameter*> AttributeHeads::Params() {
  std::vector<nn::Parameter*> out;
  for (auto& proj : projections_) {
    auto ps = proj.Params();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

}  // namespace daisy::synth
