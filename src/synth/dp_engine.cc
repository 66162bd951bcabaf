#include "synth/dp_engine.h"

#include <cmath>
#include <utility>

#include "nn/per_sample.h"

namespace daisy::synth {

namespace {

const Matrix kNoCond;

/// The vectorized engine needs (a) a Sequential computing the logit,
/// (b) only Linear layers holding parameters (nn/per_sample.h), and
/// (c) that stack owning ALL the discriminator's parameters, in the
/// same order — otherwise the tape would miss gradients.
bool VectorizedSupported(Discriminator* d) {
  nn::Sequential* body = d->FastPathBody();
  if (body == nullptr) return false;
  if (!nn::SupportsPerSampleTape(*body)) return false;
  return body->Params() == d->Params();
}

/// Loss term and dLoss/dLogit for one record half. Matches the batched
/// losses exactly: Wasserstein uses the raw critic score (real: -x,
/// fake: +x), BCE uses the stable log1p form of nn::BceWithLogitsLoss
/// evaluated on a single logit.
double HalfTerm(double logit, bool real_half, bool wasserstein,
                double* delta) {
  if (wasserstein) {
    *delta = real_half ? -1.0 : 1.0;
    return real_half ? -logit : logit;
  }
  const double t = real_half ? 1.0 : 0.0;
  *delta = 1.0 / (1.0 + std::exp(-logit)) - t;
  return std::log1p(std::exp(-std::fabs(logit))) + std::max(logit, 0.0) -
         logit * t;
}

/// One record half through `net`: copy row i into the caller's scratch,
/// forward, backpropagate dLoss/dLogit. Returns the UNSCALED loss term.
double RecordHalf(Discriminator* net, const Matrix& x, const Matrix& cond,
                  size_t i, bool real_half, bool wasserstein, Matrix* x_row,
                  Matrix* c_row, Matrix* grad) {
  x_row->CopyRowFrom(x, i);
  const bool has_cond = !cond.empty();
  if (has_cond) c_row->CopyRowFrom(cond, i);
  Matrix logits =
      net->Forward(*x_row, has_cond ? *c_row : kNoCond, /*training=*/true);
  double delta = 0.0;
  const double term = HalfTerm(logits(0, 0), real_half, wasserstein, &delta);
  (*grad)(0, 0) = delta;
  net->Backward(*grad);
  return term;
}

}  // namespace

Result<DpEngineKind> ResolveDpEngine(Discriminator* d,
                                     DpEngineKind requested) {
  switch (requested) {
    case DpEngineKind::kAuto:
      return VectorizedSupported(d) ? DpEngineKind::kVectorized
                                    : DpEngineKind::kPerSample;
    case DpEngineKind::kVectorized:
      if (!VectorizedSupported(d))
        return Status::InvalidArgument(
            "the vectorized DP engine needs a discriminator that is one "
            "Linear/activation stack (the MLP); use the per-sample or auto "
            "engine");
      return requested;
    case DpEngineKind::kPerSample:
      return requested;
  }
  return Status::InvalidArgument("unknown DP engine kind");
}

DpSgdEngine::DpSgdEngine(Discriminator* d, double max_norm,
                         double noise_scale, DpEngineKind requested)
    : d_(d), max_norm_(max_norm), noise_scale_(noise_scale),
      agg_(d->Params(), max_norm) {
  const Result<DpEngineKind> kind = ResolveDpEngine(d_, requested);
  DAISY_CHECK(kind.ok());
  kind_ = kind.value();
}

double DpSgdEngine::Step(const Matrix& real, const Matrix& real_cond,
                         const Matrix& fake, const Matrix& fake_cond,
                         bool wasserstein, Rng* rng) {
  DAISY_CHECK(real.rows() == fake.rows());
  const size_t m = real.rows();
  DAISY_CHECK(m > 0);
  agg_.Reset();
  last_sample_norms_.assign(m, 0.0);

  double loss = 0.0;
  switch (kind_) {
    case DpEngineKind::kPerSample:
      loss = StepPerSample(real, real_cond, fake, fake_cond, wasserstein);
      break;
    case DpEngineKind::kVectorized:
      loss = StepVectorized(real, real_cond, fake, fake_cond, wasserstein);
      break;
    case DpEngineKind::kAuto:
      DAISY_CHECK(false);  // resolved in the constructor
  }

  // Noise is drawn only here, so the rng stream is engine-independent.
  last_sum_norm_ = agg_.SumNorm();
  agg_.Finalize(d_->Params(), noise_scale_, m, rng);
  return loss;
}

double DpSgdEngine::StepPerSample(const Matrix& real, const Matrix& real_cond,
                                  const Matrix& fake, const Matrix& fake_cond,
                                  bool wasserstein) {
  const size_t m = real.rows();
  const double inv_m = 1.0 / static_cast<double>(m);
  const std::vector<nn::Parameter*> params = d_->Params();
  Matrix grad(1, 1);
  double loss = 0.0;
  for (size_t i = 0; i < m; ++i) {
    // Per-record unit: the i-th real record's loss plus the i-th fake
    // sample's, so one real record influences exactly one clipped unit.
    d_->ZeroGrad();
    loss += RecordHalf(d_, real, real_cond, i, /*real_half=*/true,
                       wasserstein, &x_row_, &c_row_, &grad) *
            inv_m;
    loss += RecordHalf(d_, fake, fake_cond, i, /*real_half=*/false,
                       wasserstein, &x_row_, &c_row_, &grad) *
            inv_m;
    last_sample_norms_[i] = agg_.AccumulateSample(params);
  }
  return loss;
}

double DpSgdEngine::StepVectorized(const Matrix& real,
                                   const Matrix& real_cond,
                                   const Matrix& fake,
                                   const Matrix& fake_cond,
                                   bool wasserstein) {
  nn::Sequential* body = d_->FastPathBody();
  const size_t m = real.rows();
  const double inv_m = 1.0 / static_cast<double>(m);

  // One batched forward per half. Linear rows and elementwise
  // activations are computed identically batched or one row at a time,
  // so the logits — and the captured tapes — agree with the per-sample
  // reference. The real tape must be captured before the fake forward
  // overwrites the layer caches.
  std::vector<double> term_r(m), term_f(m);
  Matrix delta_r(m, 1), delta_f(m, 1);

  Matrix logits_r = d_->Forward(real, real_cond, /*training=*/true);
  for (size_t i = 0; i < m; ++i) {
    double dlt = 0.0;
    term_r[i] = HalfTerm(logits_r(i, 0), /*real_half=*/true, wasserstein,
                         &dlt);
    delta_r(i, 0) = dlt;
  }
  nn::PerSampleTape tape_r = nn::CapturePerSampleTape(*body, delta_r);

  Matrix logits_f = d_->Forward(fake, fake_cond, /*training=*/true);
  for (size_t i = 0; i < m; ++i) {
    double dlt = 0.0;
    term_f[i] = HalfTerm(logits_f(i, 0), /*real_half=*/false, wasserstein,
                         &dlt);
    delta_f(i, 0) = dlt;
  }
  nn::PerSampleTape tape_f = nn::CapturePerSampleTape(*body, delta_f);

  double loss = 0.0;
  for (size_t i = 0; i < m; ++i) {
    loss += term_r[i] * inv_m;
    loss += term_f[i] * inv_m;
  }

  // Per-record squared gradient norms without materializing any
  // per-record gradient. Record i's weight gradient at layer l is
  // x_r^T d_r + x_f^T d_f (rank <= 2), and <a u^T, b v^T>_F =
  // (a.b)(u.v), so its squared Frobenius norm needs only row norms and
  // row dots; the bias gradient is d_r + d_f.
  const size_t num_layers = tape_r.inputs.size();
  DAISY_CHECK(tape_f.inputs.size() == num_layers);
  Matrix sq(m, 1);
  for (size_t l = 0; l < num_layers; ++l) {
    const Matrix xr2 = tape_r.inputs[l].RowSquaredNorms();
    const Matrix dr2 = tape_r.deltas[l].RowSquaredNorms();
    const Matrix xf2 = tape_f.inputs[l].RowSquaredNorms();
    const Matrix df2 = tape_f.deltas[l].RowSquaredNorms();
    const Matrix xrf = Matrix::RowDots(tape_r.inputs[l], tape_f.inputs[l]);
    const Matrix drf = Matrix::RowDots(tape_r.deltas[l], tape_f.deltas[l]);
    for (size_t i = 0; i < m; ++i) {
      const double weight_part = xr2(i, 0) * dr2(i, 0) +
                                 2.0 * xrf(i, 0) * drf(i, 0) +
                                 xf2(i, 0) * df2(i, 0);
      const double bias_part = dr2(i, 0) + 2.0 * drf(i, 0) + df2(i, 0);
      sq(i, 0) += weight_part + bias_part;
    }
  }

  Matrix scales(m, 1);
  for (size_t i = 0; i < m; ++i) {
    const double norm = std::sqrt(sq(i, 0));
    last_sample_norms_[i] = norm;
    scales(i, 0) = norm > max_norm_ ? max_norm_ / norm : 1.0;
  }

  // Clipped SUM via one scale-rows + GEMM pair per layer:
  //   sum_i s_i (x_i^T d_i) = X^T (S D),   S = diag(s).
  // Gradient order mirrors d_->Params(): per Linear layer, weight then
  // bias, in forward order (checked by VectorizedSupported).
  std::vector<Matrix> grads;
  grads.reserve(2 * num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    Matrix sdr = tape_r.deltas[l];
    sdr.ScaleRows(scales);
    Matrix sdf = tape_f.deltas[l];
    sdf.ScaleRows(scales);
    Matrix gw = tape_r.inputs[l].TransposeMatMul(sdr);
    gw += tape_f.inputs[l].TransposeMatMul(sdf);
    Matrix gb = sdr.ColSum();
    gb += sdf.ColSum();
    grads.push_back(std::move(gw));
    grads.push_back(std::move(gb));
  }
  agg_.AccumulateClippedSum(grads, m);
  return loss;
}

}  // namespace daisy::synth
