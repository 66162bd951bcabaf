// Dense row-major matrix of doubles: the numeric workhorse underneath
// the neural-network and statistics substrates. Deliberately small —
// only the operations the library needs, all bounds-checked via
// DAISY_CHECK on shape mismatches.
#ifndef DAISY_CORE_MATRIX_H_
#define DAISY_CORE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "core/status.h"

namespace daisy {

class Rng;

/// Row-major dense matrix. A batch of N samples with F features is an
/// N x F matrix; a single vector is 1 x F.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer data (test convenience).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// rows x cols with i.i.d. N(0, stddev^2) entries.
  static Matrix Randn(size_t rows, size_t cols, Rng* rng, double stddev = 1.0);

  /// rows x cols with i.i.d. Uniform(lo, hi) entries.
  static Matrix RandUniform(size_t rows, size_t cols, Rng* rng, double lo,
                            double hi);

  /// Identity matrix n x n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    DAISY_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    DAISY_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(size_t r) { return data_.data() + r * cols_; }
  const double* row(size_t r) const { return data_.data() + r * cols_; }

  /// Matrix product: (n x k) * (k x m) -> (n x m).
  Matrix MatMul(const Matrix& other) const;
  /// this^T * other: (k x n)^T treated as...; computes Transpose().MatMul
  /// without materializing the transpose.
  Matrix TransposeMatMul(const Matrix& other) const;
  /// this * other^T without materializing the transpose.
  Matrix MatMulTranspose(const Matrix& other) const;

  // Elementwise arithmetic (shapes must match exactly).
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double s) const;

  /// Hadamard (elementwise) product.
  Matrix CWiseMul(const Matrix& other) const;

  /// Adds a 1 x cols row vector to every row (broadcast).
  Matrix& AddRowBroadcast(const Matrix& row_vec);

  /// rows x 1 vector of per-row squared L2 norms.
  Matrix RowSquaredNorms() const;
  /// rows x 1 vector of per-row dot products a_i . b_i (same shape).
  static Matrix RowDots(const Matrix& a, const Matrix& b);
  /// Scales row i by scales(i, 0) in place (`scales` is rows x 1).
  Matrix& ScaleRows(const Matrix& scales);

  /// Sum over all elements.
  double Sum() const;
  /// 1 x cols vector of column sums.
  Matrix ColSum() const;
  /// 1 x cols vector of column means.
  Matrix ColMean() const;
  /// Mean of all elements.
  double Mean() const;
  /// Max absolute element.
  double MaxAbs() const;

  /// Extracts rows [begin, end) as a new matrix.
  Matrix RowRange(size_t begin, size_t end) const;
  /// Extracts columns [begin, end) as a new matrix.
  Matrix ColRange(size_t begin, size_t end) const;
  /// Gathers the given rows into a new matrix.
  Matrix GatherRows(const std::vector<size_t>& indices) const;
  /// Overwrites this matrix with row `src_row` of `src`, reshaping to
  /// 1 x src.cols() only when needed — a reusable scratch row that
  /// avoids the per-call allocation of GatherRows({r}).
  void CopyRowFrom(const Matrix& src, size_t src_row);
  /// Horizontally concatenates (same row count).
  static Matrix HCat(const Matrix& a, const Matrix& b);
  /// Vertically concatenates (same column count).
  static Matrix VCat(const Matrix& a, const Matrix& b);

  /// Index of the max element in row r.
  size_t ArgMaxRow(size_t r) const;

  /// Appends one row. An empty matrix adopts the row's width;
  /// otherwise `n` must equal cols(). Amortized O(n).
  void AppendRow(const double* vals, size_t n);
  void AppendRow(const std::vector<double>& vals) {
    AppendRow(vals.data(), vals.size());
  }
  /// Reserves backing storage for the given number of rows. An empty
  /// matrix has no width yet, so callers reserving ahead of the first
  /// AppendRow must pass the expected column count via `cols`; on a
  /// matrix that already has a width the hint is optional but must
  /// agree with cols() when given.
  void ReserveRows(size_t rows, size_t cols = 0) {
    if (cols == 0) {
      DAISY_CHECK(cols_ > 0 || rows == 0);
      data_.reserve(rows * cols_);
    } else {
      DAISY_CHECK(cols_ == 0 || cols == cols_);
      data_.reserve(rows * cols);
    }
  }

  /// Fill every element with v.
  void Fill(double v);
  /// Clamp every element into [lo, hi].
  void Clip(double lo, double hi);

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace daisy

#endif  // DAISY_CORE_MATRIX_H_
