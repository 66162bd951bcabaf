#include "core/matrix.h"

#include <algorithm>
#include <cmath>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"

namespace daisy {

namespace {

// Kernel tiling parameters. The j (output-column) tile keeps the
// streamed slice of B resident in L1; the p (inner-dimension) tile
// bounds the working set of A-panel x B-panel per pass. Accumulation
// order over p for any fixed output element is ascending regardless of
// tiling or threading, so results are bit-identical to the naive loop.
constexpr size_t kTileJ = 256;  // whole 4-column NT panels
static_assert(kTileJ % 4 == 0);
constexpr size_t kTileP = 64;

using par::RowGrain;

// Elementwise ops only fan out when the array is big enough to amortize
// the pool handoff; each element is touched by exactly one chunk.
constexpr size_t kElemGrain = 1 << 14;

}  // namespace

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    DAISY_CHECK(rows[r].size() == m.cols_);
    for (size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Randn(size_t rows, size_t cols, Rng* rng, double stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng->Gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::RandUniform(size_t rows, size_t cols, Rng* rng, double lo,
                           double hi) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng->Uniform(lo, hi);
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  DAISY_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  const size_t k = cols_, m = other.cols_;
  // Row blocks own disjoint output rows; within a block the j/p tiles
  // keep the active B panel hot while the register tile streams A and
  // B forward. Per output element the p-sum runs 0..k ascending for
  // every ISA, so results are bit-identical for any thread count and
  // for scalar vs AVX2.
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, rows_, RowGrain(2 * k * m, kern::kTileRows),
                   [&](size_t r0, size_t r1) {
    for (size_t j0 = 0; j0 < m; j0 += kTileJ) {
      const size_t j1 = std::min(m, j0 + kTileJ);
      for (size_t p0 = 0; p0 < k; p0 += kTileP) {
        const size_t p1 = std::min(k, p0 + kTileP);
        kt.gemm_nn(row(r0) + p0, k, 1, other.row(p0) + j0, m, p1 - p0,
                   out.row(r0) + j0, m, r1 - r0, j1 - j0);
      }
    }
  });
  return out;
}

Matrix Matrix::TransposeMatMul(const Matrix& other) const {
  // (this^T)(other): this is (n x k), other is (n x m) -> (k x m).
  DAISY_CHECK(rows_ == other.rows_);
  Matrix out(cols_, other.cols_);
  const size_t n = rows_, k = cols_, m = other.cols_;
  // The NN tile reading this^T (row stride 1, p stride k): chunks own
  // output rows (the p axis), and every element sums over the input
  // rows 0..n ascending from 0.0, whatever the partition.
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, k, RowGrain(2 * n * m, kern::kTileRows),
                   [&](size_t p0, size_t p1) {
    for (size_t j0 = 0; j0 < m; j0 += kTileJ) {
      const size_t j1 = std::min(m, j0 + kTileJ);
      for (size_t i0 = 0; i0 < n; i0 += kTileP) {
        const size_t i1 = std::min(n, i0 + kTileP);
        kt.gemm_nn(row(i0) + p0, 1, k, other.row(i0) + j0, m, i1 - i0,
                   out.row(p0) + j0, m, p1 - p0, j1 - j0);
      }
    }
  });
  return out;
}

Matrix Matrix::MatMulTranspose(const Matrix& other) const {
  // this (n x k) * other^T where other is (m x k) -> (n x m).
  DAISY_CHECK(cols_ == other.cols_);
  Matrix out(rows_, other.rows_);
  const size_t k = cols_, m = other.rows_;
  // The NT tile reads other^T in 4-column panels (kernels.h), so its
  // lanes run along output columns over contiguous memory; each element
  // is still reduced in dot's fixed striped order, a pure function of
  // the element index — identical for any thread count or ISA. Rows
  // past m in the last panel stay 0.0 and are never stored.
  std::vector<double> panels((m + 3) / 4 * 4 * k, 0.0);
  for (size_t j = 0; j < m; ++j) {
    double* lane = panels.data() + j / 4 * 4 * k + j % 4;
    for (size_t p = 0; p < k; ++p) lane[4 * p] = other(j, p);
  }
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, rows_, RowGrain(2 * k * m, kern::kTileRows),
                   [&](size_t r0, size_t r1) {
    for (size_t j0 = 0; j0 < m; j0 += kTileJ) {
      const size_t j1 = std::min(m, j0 + kTileJ);
      kt.gemm_nt(row(r0), k, panels.data() + j0 * k, k, out.row(r0) + j0, m,
                 r1 - r0, j1 - j0);
    }
  });
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DAISY_CHECK(SameShape(other));
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, data_.size(), kElemGrain, [&](size_t b, size_t e) {
    kt.add(other.data_.data() + b, data_.data() + b, e - b);
  });
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  DAISY_CHECK(SameShape(other));
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, data_.size(), kElemGrain, [&](size_t b, size_t e) {
    kt.sub(other.data_.data() + b, data_.data() + b, e - b);
  });
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  kern::Active().scale(s, data_.data(), data_.size());
  return *this;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

Matrix Matrix::CWiseMul(const Matrix& other) const {
  DAISY_CHECK(SameShape(other));
  Matrix out = *this;
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, data_.size(), kElemGrain, [&](size_t b, size_t e) {
    kt.mul(other.data_.data() + b, out.data_.data() + b, e - b);
  });
  return out;
}

Matrix& Matrix::AddRowBroadcast(const Matrix& row_vec) {
  DAISY_CHECK(row_vec.rows_ == 1 && row_vec.cols_ == cols_);
  const kern::KernelTable& kt = kern::Active();
  for (size_t r = 0; r < rows_; ++r)
    kt.add(row_vec.data_.data(), row(r), cols_);
  return *this;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

Matrix Matrix::ColSum() const {
  Matrix out(1, cols_);
  // Partition by column so every column is summed over rows 0..N in
  // ascending order by exactly one thread — bit-identical for any
  // thread count (a row partition would need a reduction whose
  // grouping changes the floating-point result).
  par::ParallelFor(0, cols_, RowGrain(2 * rows_), [&](size_t c0, size_t c1) {
    for (size_t r = 0; r < rows_; ++r) {
      const double* d = row(r);
      for (size_t c = c0; c < c1; ++c) out.data_[c] += d[c];
    }
  });
  return out;
}

Matrix Matrix::ColMean() const {
  DAISY_CHECK(rows_ > 0);
  Matrix out = ColSum();
  out *= 1.0 / static_cast<double>(rows_);
  return out;
}

double Matrix::Mean() const {
  DAISY_CHECK(!data_.empty());
  return Sum() / static_cast<double>(data_.size());
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Matrix Matrix::RowRange(size_t begin, size_t end) const {
  DAISY_CHECK(begin <= end && end <= rows_);
  Matrix out(end - begin, cols_);
  for (size_t r = begin; r < end; ++r)
    for (size_t c = 0; c < cols_; ++c) out(r - begin, c) = (*this)(r, c);
  return out;
}

Matrix Matrix::ColRange(size_t begin, size_t end) const {
  DAISY_CHECK(begin <= end && end <= cols_);
  Matrix out(rows_, end - begin);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = begin; c < end; ++c) out(r, c - begin) = (*this)(r, c);
  return out;
}

Matrix Matrix::GatherRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    DAISY_CHECK(indices[i] < rows_);
    const double* src = row(indices[i]);
    double* dst = out.row(i);
    for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  return out;
}

void Matrix::CopyRowFrom(const Matrix& src, size_t src_row) {
  DAISY_CHECK(src_row < src.rows_);
  if (rows_ != 1 || cols_ != src.cols_) {
    rows_ = 1;
    cols_ = src.cols_;
    data_.resize(cols_);
  }
  const double* s = src.row(src_row);
  for (size_t c = 0; c < cols_; ++c) data_[c] = s[c];
}

Matrix Matrix::RowSquaredNorms() const {
  Matrix out(rows_, 1);
  // Each row is reduced by exactly one chunk owner in the kernel's
  // fixed striped order — bit-identical for any thread count.
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, rows_, RowGrain(2 * cols_), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const double* d = row(r);
      out.data_[r] = kt.dot(d, d, cols_);
    }
  });
  return out;
}

Matrix Matrix::RowDots(const Matrix& a, const Matrix& b) {
  DAISY_CHECK(a.SameShape(b));
  Matrix out(a.rows_, 1);
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, a.rows_, RowGrain(2 * a.cols_),
                   [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r)
      out.data_[r] = kt.dot(a.row(r), b.row(r), a.cols_);
  });
  return out;
}

Matrix& Matrix::ScaleRows(const Matrix& scales) {
  DAISY_CHECK(scales.rows_ == rows_ && scales.cols_ == 1);
  const kern::KernelTable& kt = kern::Active();
  par::ParallelFor(0, rows_, RowGrain(cols_), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) kt.scale(scales.data_[r], row(r), cols_);
  });
  return *this;
}

Matrix Matrix::HCat(const Matrix& a, const Matrix& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  DAISY_CHECK(a.rows_ == b.rows_);
  Matrix out(a.rows_, a.cols_ + b.cols_);
  for (size_t r = 0; r < a.rows_; ++r) {
    for (size_t c = 0; c < a.cols_; ++c) out(r, c) = a(r, c);
    for (size_t c = 0; c < b.cols_; ++c) out(r, a.cols_ + c) = b(r, c);
  }
  return out;
}

Matrix Matrix::VCat(const Matrix& a, const Matrix& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  DAISY_CHECK(a.cols_ == b.cols_);
  Matrix out(a.rows_ + b.rows_, a.cols_);
  for (size_t r = 0; r < a.rows_; ++r)
    for (size_t c = 0; c < a.cols_; ++c) out(r, c) = a(r, c);
  for (size_t r = 0; r < b.rows_; ++r)
    for (size_t c = 0; c < a.cols_; ++c) out(a.rows_ + r, c) = b(r, c);
  return out;
}

size_t Matrix::ArgMaxRow(size_t r) const {
  DAISY_CHECK(r < rows_ && cols_ > 0);
  return kern::Active().argmax(row(r), cols_);
}

void Matrix::AppendRow(const double* vals, size_t n) {
  if (rows_ == 0 && cols_ == 0) cols_ = n;
  DAISY_CHECK(n == cols_ && n > 0);
  data_.insert(data_.end(), vals, vals + n);
  ++rows_;
}

void Matrix::Fill(double v) {
  for (auto& x : data_) x = v;
}

void Matrix::Clip(double lo, double hi) {
  for (auto& x : data_) x = std::min(hi, std::max(lo, x));
}

}  // namespace daisy
