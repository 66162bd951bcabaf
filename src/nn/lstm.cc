#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "core/kernels/kernels.h"
#include "core/parallel.h"

namespace daisy::nn {

LstmCell::LstmCell(size_t input_size, size_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  const size_t in = input_size + hidden_size;
  const double bound = std::sqrt(6.0 / static_cast<double>(in + 4 * hidden_size));
  weight_ = Parameter("lstm.weight",
                      Matrix::RandUniform(in, 4 * hidden_size, rng, -bound,
                                          bound));
  bias_ = Parameter("lstm.bias", Matrix(1, 4 * hidden_size));
  // Forget-gate bias of 1.0: standard trick for gradient flow early in
  // training.
  for (size_t c = 0; c < hidden_size; ++c) bias_.value(0, hidden_size + c) = 1.0;
}

LstmCell::LeadPartial LstmCell::PartialOverLead(const Matrix& lead) const {
  DAISY_CHECK(lead.cols() <= input_size_);
  return {lead.cols(), lead.MatMul(weight_.value.RowRange(0, lead.cols()))};
}

LstmState LstmCell::StepForward(const Matrix& x, const LstmState& prev,
                                const LeadPartial* lead) {
  StepCache cache;
  LstmState next = Step(x, prev, lead, &cache);
  cache_.push_back(std::move(cache));
  return next;
}

LstmState LstmCell::StepInference(const Matrix& x, const LstmState& prev,
                                  const LeadPartial* lead) const {
  return Step(x, prev, lead, nullptr);
}

LstmState LstmCell::Step(const Matrix& x, const LstmState& prev,
                         const LeadPartial* lead, StepCache* cache) const {
  DAISY_CHECK(x.cols() == input_size_);
  DAISY_CHECK(prev.h.cols() == hidden_size_ && prev.c.cols() == hidden_size_);
  DAISY_CHECK(x.rows() == prev.h.rows());
  const size_t n = x.rows(), in = input_size_, hs = hidden_size_;
  const size_t g4 = 4 * hs;
  const size_t p0 = lead != nullptr ? lead->cols : 0;
  if (lead != nullptr)
    DAISY_CHECK(p0 <= in && lead->pre.rows() == n && lead->pre.cols() == g4);

  if (cache != nullptr) {
    cache->xh = Matrix::HCat(x, prev.h);
    cache->c_prev = prev.c;
    cache->gates = Matrix(n, g4);
  }
  LstmState next{Matrix(n, hs), Matrix(n, hs)};
  const Matrix& w = weight_.value;
  const kern::KernelTable& kt = kern::Active();
  // Chunks hold whole kTileRows-row tiles and each row is computed
  // whole inside one chunk, so every partition gives the same bits.
  par::ParallelFor(
      0, n, par::RowGrain(2 * (in + hs - p0) * g4, kern::kTileRows),
      [&](size_t r0, size_t r1) {
    std::vector<double> scratch(cache != nullptr ? 0 : kern::kTileRows * g4);
    for (size_t t0 = r0; t0 < r1; t0 += kern::kTileRows) {
      const size_t rows = std::min(kern::kTileRows, r1 - t0);
      // Pre-activations of the tile's rows: the p-sum over [x | h] · W
      // in ascending p (from the lead partial when given), then the
      // bias — the operations xh.MatMul(W) + bias performs per element.
      double* pre0 =
          cache != nullptr ? cache->gates.row(t0) : scratch.data();
      if (lead != nullptr)
        std::copy_n(lead->pre.row(t0), rows * g4, pre0);
      else
        std::fill_n(pre0, rows * g4, 0.0);
      kt.gemm_nn(x.row(t0) + p0, in, 1, w.row(p0), g4, in - p0, pre0, g4,
                 rows, g4);
      kt.gemm_nn(prev.h.row(t0), hs, 1, w.row(in), g4, hs, pre0, g4, rows,
                 g4);
      for (size_t t = 0; t < rows; ++t) {
        const size_t r = t0 + t;
        double* pre = pre0 + t * g4;
        kt.add(bias_.value.data(), pre, g4);

        // Gates i, f, o through the kernel table's sigmoid (bitwise
        // equal to lane::Sigmoid on every ISA: exp only sees -|v|, so a
        // -750 pre-activation saturates to 0 instead of overflowing). g
        // and tanh(c) stay libm. `pre` ends holding the post-activation
        // i, f, g, o that StepBackward reads back.
        kt.sigmoid(pre, pre, 2 * hs);
        kt.sigmoid(pre + 3 * hs, pre + 3 * hs, hs);
        const double* c_prev = prev.c.row(r);
        double* c = next.c.row(r);
        double* h = next.h.row(r);
        for (size_t j = 0; j < hs; ++j) {
          const double g = std::tanh(pre[2 * hs + j]);
          pre[2 * hs + j] = g;
          c[j] = pre[hs + j] * c_prev[j] + pre[j] * g;
          h[j] = pre[3 * hs + j] * std::tanh(c[j]);
        }
      }
    }
  });
  if (cache != nullptr) cache->c = next.c;
  return next;
}

LstmCell::StepGrads LstmCell::StepBackward(const Matrix& grad_h,
                                           const Matrix& grad_c) {
  DAISY_CHECK(!cache_.empty());
  StepCache cache = std::move(cache_.back());
  cache_.pop_back();

  const size_t n = grad_h.rows(), hs = hidden_size_;
  DAISY_CHECK(grad_h.cols() == hs && grad_c.SameShape(grad_h));

  Matrix dpre(n, 4 * hs);
  Matrix dc_prev(n, hs);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < hs; ++j) {
      const double i = cache.gates(r, j);
      const double f = cache.gates(r, hs + j);
      const double g = cache.gates(r, 2 * hs + j);
      const double o = cache.gates(r, 3 * hs + j);
      const double tc = std::tanh(cache.c(r, j));
      const double dh = grad_h(r, j);
      double dc = grad_c(r, j) + dh * o * (1.0 - tc * tc);
      const double do_ = dh * tc;
      const double di = dc * g;
      const double df = dc * cache.c_prev(r, j);
      const double dg = dc * i;
      dc_prev(r, j) = dc * f;
      dpre(r, j) = di * i * (1.0 - i);
      dpre(r, hs + j) = df * f * (1.0 - f);
      dpre(r, 2 * hs + j) = dg * (1.0 - g * g);
      dpre(r, 3 * hs + j) = do_ * o * (1.0 - o);
    }
  }

  weight_.grad += cache.xh.TransposeMatMul(dpre);
  bias_.grad += dpre.ColSum();
  Matrix dxh = dpre.MatMulTranspose(weight_.value);

  StepGrads grads;
  grads.dx = dxh.ColRange(0, input_size_);
  grads.dh_prev = dxh.ColRange(input_size_, input_size_ + hidden_size_);
  grads.dc_prev = std::move(dc_prev);
  return grads;
}

}  // namespace daisy::nn
