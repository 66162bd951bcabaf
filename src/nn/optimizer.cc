#include "nn/optimizer.h"

#include <cmath>
#include <sstream>

#include "core/rng.h"

namespace daisy::nn {

void Sgd::Step() {
  for (Parameter* p : params_) {
    for (size_t r = 0; r < p->value.rows(); ++r)
      for (size_t c = 0; c < p->value.cols(); ++c)
        p->value(r, c) -= lr_ * p->grad(r, c);
  }
}

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params), lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        const double g = p->grad(r, c);
        m_[i](r, c) = beta1_ * m_[i](r, c) + (1.0 - beta1_) * g;
        v_[i](r, c) = beta2_ * v_[i](r, c) + (1.0 - beta2_) * g * g;
        const double mhat = m_[i](r, c) / bc1;
        const double vhat = v_[i](r, c) / bc2;
        p->value(r, c) -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      }
    }
  }
}

RmsProp::RmsProp(std::vector<Parameter*> params, double lr, double decay,
                 double eps)
    : Optimizer(std::move(params), lr), decay_(decay), eps_(eps) {
  for (Parameter* p : params_)
    sq_.emplace_back(p->value.rows(), p->value.cols());
}

void RmsProp::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        const double g = p->grad(r, c);
        sq_[i](r, c) = decay_ * sq_[i](r, c) + (1.0 - decay_) * g * g;
        p->value(r, c) -= lr_ * g / (std::sqrt(sq_[i](r, c)) + eps_);
      }
    }
  }
}

namespace {

// Reads `count` matrices and verifies each matches the shape of the
// corresponding slot in `shaped`; a mismatch latches on `des`. Returns
// the matrices so the caller can commit them only after the whole
// optimizer blob parsed cleanly (failed loads leave state untouched).
std::vector<Matrix> ReadMoments(Deserializer* des, const char* what,
                                const std::vector<Matrix>& shaped) {
  std::vector<Matrix> out;
  out.reserve(shaped.size());
  for (size_t i = 0; i < shaped.size(); ++i) {
    Matrix m = des->ReadMatrix();
    if (!des->ok()) return {};
    if (m.rows() != shaped[i].rows() || m.cols() != shaped[i].cols()) {
      des->Fail(std::string(what) + " moment " + std::to_string(i) +
                " shape mismatch");
      return {};
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

void Sgd::Save(Serializer* ser) const { ser->WriteTag("opt.sgd"); }

void Sgd::Load(Deserializer* des) { des->ExpectTag("opt.sgd"); }

void Adam::Save(Serializer* ser) const {
  ser->WriteTag("opt.adam");
  ser->WriteDouble(beta1_);
  ser->WriteDouble(beta2_);
  ser->WriteDouble(eps_);
  ser->WriteU64(static_cast<uint64_t>(t_));
  ser->WriteU64(m_.size());
  for (const Matrix& m : m_) ser->WriteMatrix(m);
  for (const Matrix& v : v_) ser->WriteMatrix(v);
}

void Adam::Load(Deserializer* des) {
  des->ExpectTag("opt.adam");
  const double beta1 = des->ReadDouble();
  const double beta2 = des->ReadDouble();
  const double eps = des->ReadDouble();
  const uint64_t t = des->ReadU64();
  const uint64_t n = des->ReadU64();
  if (!des->ok()) return;
  if (n != m_.size()) {
    des->Fail("adam moment count mismatch");
    return;
  }
  std::vector<Matrix> m = ReadMoments(des, "adam.m", m_);
  std::vector<Matrix> v = ReadMoments(des, "adam.v", v_);
  if (!des->ok()) return;
  beta1_ = beta1;
  beta2_ = beta2;
  eps_ = eps;
  t_ = static_cast<long long>(t);
  m_ = std::move(m);
  v_ = std::move(v);
}

void RmsProp::Save(Serializer* ser) const {
  ser->WriteTag("opt.rmsprop");
  ser->WriteDouble(decay_);
  ser->WriteDouble(eps_);
  ser->WriteU64(sq_.size());
  for (const Matrix& s : sq_) ser->WriteMatrix(s);
}

void RmsProp::Load(Deserializer* des) {
  des->ExpectTag("opt.rmsprop");
  const double decay = des->ReadDouble();
  const double eps = des->ReadDouble();
  const uint64_t n = des->ReadU64();
  if (!des->ok()) return;
  if (n != sq_.size()) {
    des->Fail("rmsprop moment count mismatch");
    return;
  }
  std::vector<Matrix> sq = ReadMoments(des, "rmsprop.sq", sq_);
  if (!des->ok()) return;
  decay_ = decay;
  eps_ = eps;
  sq_ = std::move(sq);
}

void ClipParams(const std::vector<Parameter*>& params, double c) {
  DAISY_CHECK(c > 0.0);
  for (Parameter* p : params) p->value.Clip(-c, c);
}

double ClipGradNorm(const std::vector<Parameter*>& params, double max_norm) {
  DAISY_CHECK(max_norm > 0.0);
  const double norm = GlobalGradNorm(params);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (Parameter* p : params) p->grad *= scale;
  }
  return norm;
}

double GlobalGradNorm(const std::vector<Parameter*>& params) {
  double sq = 0.0;
  for (const Parameter* p : params)
    for (size_t r = 0; r < p->grad.rows(); ++r)
      for (size_t c = 0; c < p->grad.cols(); ++c)
        sq += p->grad(r, c) * p->grad(r, c);
  return std::sqrt(sq);
}

double GlobalParamNorm(const std::vector<Parameter*>& params) {
  double sq = 0.0;
  for (const Parameter* p : params)
    for (size_t r = 0; r < p->value.rows(); ++r)
      for (size_t c = 0; c < p->value.cols(); ++c)
        sq += p->value(r, c) * p->value(r, c);
  return std::sqrt(sq);
}

DpSgdAggregator::DpSgdAggregator(const std::vector<Parameter*>& params,
                                 double max_norm)
    : max_norm_(max_norm) {
  DAISY_CHECK(max_norm > 0.0);
  for (const Parameter* p : params)
    sum_.emplace_back(p->grad.rows(), p->grad.cols());
}

double DpSgdAggregator::AccumulateSample(
    const std::vector<Parameter*>& params) {
  DAISY_CHECK(params.size() == sum_.size());
  const double norm = GlobalGradNorm(params);
  const double scale = norm > max_norm_ ? max_norm_ / norm : 1.0;
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& g = params[i]->grad;
    for (size_t r = 0; r < g.rows(); ++r)
      for (size_t c = 0; c < g.cols(); ++c)
        sum_[i](r, c) += g(r, c) * scale;
  }
  ++samples_;
  return norm;
}

void DpSgdAggregator::AccumulateClippedSum(const std::vector<Matrix>& grads,
                                           size_t samples) {
  DAISY_CHECK(grads.size() == sum_.size());
  for (size_t i = 0; i < grads.size(); ++i) {
    DAISY_CHECK(grads[i].SameShape(sum_[i]));
    sum_[i] += grads[i];
  }
  samples_ += samples;
}

void DpSgdAggregator::MergeFrom(const DpSgdAggregator& other) {
  DAISY_CHECK(other.sum_.size() == sum_.size());
  for (size_t i = 0; i < sum_.size(); ++i) {
    DAISY_CHECK(other.sum_[i].SameShape(sum_[i]));
    sum_[i] += other.sum_[i];
  }
  samples_ += other.samples_;
}

void DpSgdAggregator::Reset() {
  for (Matrix& m : sum_) m.Fill(0.0);
  samples_ = 0;
}

void DpSgdAggregator::Finalize(const std::vector<Parameter*>& params,
                               double noise_scale, size_t batch_size,
                               Rng* rng) {
  DAISY_CHECK(params.size() == sum_.size());
  DAISY_CHECK(batch_size > 0);
  // Sensitivity of the clipped sum is max_norm, so the canonical
  // mechanism adds N(0, (sigma_n c_g)^2) to the SUM; dividing sum and
  // noise by B yields the batch-averaged gradient the optimizers
  // expect, with effective per-coordinate noise sigma_n c_g / B.
  const double sigma = noise_scale * max_norm_;
  const double inv_b = 1.0 / static_cast<double>(batch_size);
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& g = params[i]->grad;
    for (size_t r = 0; r < g.rows(); ++r)
      for (size_t c = 0; c < g.cols(); ++c)
        g(r, c) = (sum_[i](r, c) + rng->Gaussian(0.0, sigma)) * inv_b;
  }
}

double DpSgdAggregator::SumNorm() const {
  double sq = 0.0;
  for (const Matrix& m : sum_)
    for (size_t r = 0; r < m.rows(); ++r)
      for (size_t c = 0; c < m.cols(); ++c) sq += m(r, c) * m(r, c);
  return std::sqrt(sq);
}

std::string OptimizerBlob(const Optimizer& opt) {
  std::ostringstream os;
  Serializer ser(&os);
  opt.Save(&ser);
  return os.str();
}

Status LoadOptimizerBlob(Optimizer* opt, const std::string& blob,
                         const char* which) {
  std::istringstream is(blob);
  Deserializer des(&is);
  opt->Load(&des);
  if (!des.ok())
    return Status::InvalidArgument(std::string("checkpoint ") + which +
                                   " optimizer state: " + des.error());
  return Status::OK();
}

}  // namespace daisy::nn
