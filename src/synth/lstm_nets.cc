#include "synth/lstm_nets.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"

namespace daisy::synth {

LstmGenerator::LstmGenerator(
    size_t noise_dim, size_t cond_dim, size_t hidden_size,
    size_t feature_size, const std::vector<transform::AttrSegment>& segments,
    Rng* rng)
    : noise_dim_(noise_dim), cond_dim_(cond_dim), hidden_size_(hidden_size),
      feature_size_(feature_size),
      cell_(noise_dim + feature_size + cond_dim, hidden_size, rng) {
  sample_dim_ = 0;
  for (const auto& seg : segments) sample_dim_ += seg.width;
  const double bound =
      std::sqrt(6.0 / static_cast<double>(hidden_size + feature_size));
  fproj_w_ = nn::Parameter(
      "lstm_g.fproj_w",
      Matrix::RandUniform(hidden_size, feature_size, rng, -bound, bound));
  fproj_b_ = nn::Parameter("lstm_g.fproj_b", Matrix(1, feature_size));
  for (const HeadUnit& unit : BuildHeadUnits(segments))
    heads_.emplace_back(feature_size, unit, rng);
}

namespace {

// The first step's input [z | f_prev = 0 | cond]. Later steps only
// overwrite the f_prev columns (SetFeedback).
Matrix FirstStepInput(const Matrix& z, size_t feature_size,
                      const Matrix& cond, size_t cond_dim) {
  Matrix x = Matrix::HCat(z, Matrix(z.rows(), feature_size));
  return cond_dim > 0 ? Matrix::HCat(x, cond) : x;
}

void SetFeedback(const Matrix& f, size_t offset, Matrix* x) {
  for (size_t r = 0; r < f.rows(); ++r)
    std::copy_n(f.row(r), f.cols(), x->row(r) + offset);
}

void ScatterHead(const Matrix& out, const HeadUnit& u, Matrix* sample) {
  for (size_t r = 0; r < out.rows(); ++r)
    std::copy_n(out.row(r), u.width, sample->row(r) + u.offset);
}

}  // namespace

Matrix LstmGenerator::Forward(const Matrix& z, const Matrix& cond,
                              bool /*training*/) {
  DAISY_CHECK(z.cols() == noise_dim_);
  const size_t batch = z.rows();
  cell_.ClearCache();
  step_h_.clear();
  step_f_.clear();

  // z is re-fed at every step, so its gate partial is taken once.
  const nn::LstmCell::LeadPartial lead = cell_.PartialOverLead(z);
  nn::LstmState state = cell_.InitialState(batch);
  Matrix x = FirstStepInput(z, feature_size_, cond, cond_dim_);
  Matrix sample(batch, sample_dim_);

  for (auto& head : heads_) {
    state = cell_.StepForward(x, state, &lead);

    Matrix pre_f = state.h.MatMul(fproj_w_.value);
    pre_f.AddRowBroadcast(fproj_b_.value);
    Matrix f = nn::TanhMat(pre_f);
    step_h_.push_back(state.h);

    ScatterHead(head.Forward(f), head.unit(), &sample);
    SetFeedback(f, noise_dim_, &x);
    step_f_.push_back(std::move(f));
  }
  return sample;
}

Matrix LstmGenerator::InferenceForward(const Matrix& z,
                                       const Matrix& cond) const {
  DAISY_CHECK(z.cols() == noise_dim_);
  const size_t batch = z.rows();

  // Mirrors Forward step-for-step (StepInference runs StepForward's
  // gate body) so the two paths agree to the last bit.
  const nn::LstmCell::LeadPartial lead = cell_.PartialOverLead(z);
  nn::LstmState state = cell_.InitialState(batch);
  Matrix x = FirstStepInput(z, feature_size_, cond, cond_dim_);
  Matrix sample(batch, sample_dim_);

  for (const auto& head : heads_) {
    state = cell_.StepInference(x, state, &lead);

    Matrix pre_f = state.h.MatMul(fproj_w_.value);
    pre_f.AddRowBroadcast(fproj_b_.value);
    const Matrix f = nn::TanhMat(pre_f);

    ScatterHead(head.InferenceForward(f), head.unit(), &sample);
    SetFeedback(f, noise_dim_, &x);
  }
  return sample;
}

void LstmGenerator::Backward(const Matrix& grad_sample) {
  DAISY_CHECK(grad_sample.cols() == sample_dim_);
  const size_t batch = grad_sample.rows();
  const size_t steps = heads_.size();
  DAISY_CHECK(cell_.cache_depth() == steps);

  Matrix grad_h_next(batch, hidden_size_);
  Matrix grad_c_next(batch, hidden_size_);
  Matrix grad_f_next(batch, feature_size_);  // dLoss/df_j via step j+1 input

  for (size_t j = steps; j-- > 0;) {
    HeadProjection& head = heads_[j];
    const HeadUnit& u = head.unit();
    Matrix g_unit(batch, u.width);
    for (size_t r = 0; r < batch; ++r)
      for (size_t c = 0; c < u.width; ++c)
        g_unit(r, c) = grad_sample(r, u.offset + c);

    Matrix grad_f = head.Backward(g_unit);
    grad_f += grad_f_next;

    // Through f = tanh(h W + b).
    Matrix grad_pre(batch, feature_size_);
    for (size_t r = 0; r < batch; ++r)
      for (size_t c = 0; c < feature_size_; ++c) {
        const double y = step_f_[j](r, c);
        grad_pre(r, c) = grad_f(r, c) * (1.0 - y * y);
      }
    fproj_w_.grad += step_h_[j].TransposeMatMul(grad_pre);
    fproj_b_.grad += grad_pre.ColSum();
    Matrix grad_h = grad_pre.MatMulTranspose(fproj_w_.value);
    grad_h += grad_h_next;

    auto sg = cell_.StepBackward(grad_h, grad_c_next);
    grad_h_next = std::move(sg.dh_prev);
    grad_c_next = std::move(sg.dc_prev);
    // sg.dx layout: [z | f_prev | cond]; route the f_prev slice to the
    // previous step (z and cond gradients are discarded).
    grad_f_next =
        sg.dx.ColRange(noise_dim_, noise_dim_ + feature_size_);
  }
}

std::vector<nn::Parameter*> LstmGenerator::Params() {
  std::vector<nn::Parameter*> out = cell_.Params();
  out.push_back(&fproj_w_);
  out.push_back(&fproj_b_);
  for (auto& head : heads_) {
    auto hp = head.Params();
    out.insert(out.end(), hp.begin(), hp.end());
  }
  return out;
}

namespace {

size_t MaxSegmentWidth(const std::vector<transform::AttrSegment>& segments) {
  size_t w = 1;
  for (const auto& seg : segments) w = std::max(w, seg.width);
  return w;
}

size_t TotalWidth(const std::vector<transform::AttrSegment>& segments) {
  size_t w = 0;
  for (const auto& seg : segments) w += seg.width;
  return w;
}

}  // namespace

LstmDiscriminator::LstmDiscriminator(
    const std::vector<transform::AttrSegment>& segments, size_t cond_dim,
    size_t hidden_size, Rng* rng)
    : segments_(segments), sample_dim_(TotalWidth(segments)),
      cond_dim_(cond_dim), slot_width_(MaxSegmentWidth(segments)),
      cell_(slot_width_ + cond_dim, hidden_size, rng),
      out_(hidden_size, 1, rng) {}

Matrix LstmDiscriminator::Forward(const Matrix& x, const Matrix& cond,
                                  bool training) {
  DAISY_CHECK(x.cols() == sample_dim_);
  const size_t batch = x.rows();
  cached_batch_ = batch;
  cell_.ClearCache();
  nn::LstmState state = cell_.InitialState(batch);
  for (const auto& seg : segments_) {
    Matrix step_in(batch, slot_width_ + cond_dim_);
    for (size_t r = 0; r < batch; ++r) {
      for (size_t c = 0; c < seg.width; ++c)
        step_in(r, c) = x(r, seg.offset + c);
      for (size_t c = 0; c < cond_dim_; ++c)
        step_in(r, slot_width_ + c) = cond(r, c);
    }
    state = cell_.StepForward(step_in, state);
  }
  return out_.Forward(state.h, training);
}

Matrix LstmDiscriminator::Backward(const Matrix& grad_logit) {
  Matrix grad_h = out_.Backward(grad_logit);
  Matrix grad_c(cached_batch_, cell_.hidden_size());
  Matrix grad_x(cached_batch_, sample_dim_);
  for (size_t j = segments_.size(); j-- > 0;) {
    auto sg = cell_.StepBackward(grad_h, grad_c);
    const auto& seg = segments_[j];
    for (size_t r = 0; r < cached_batch_; ++r)
      for (size_t c = 0; c < seg.width; ++c)
        grad_x(r, seg.offset + c) = sg.dx(r, c);
    grad_h = std::move(sg.dh_prev);
    grad_c = std::move(sg.dc_prev);
  }
  return grad_x;
}

std::vector<nn::Parameter*> LstmDiscriminator::Params() {
  std::vector<nn::Parameter*> out = cell_.Params();
  auto op = out_.Params();
  out.insert(out.end(), op.begin(), op.end());
  return out;
}

}  // namespace daisy::synth
