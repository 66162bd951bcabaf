#include "core/matrix.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace daisy {
namespace {

Matrix Transpose(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r)
    for (size_t c = 0; c < m.cols(); ++c) out(c, r) = m(r, c);
  return out;
}

TEST(MatrixTest, ConstructAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, MatMulHandComputed) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeMatMulMatchesExplicitTranspose) {
  Rng rng(1);
  Matrix a = Matrix::Randn(4, 3, &rng);
  Matrix b = Matrix::Randn(4, 5, &rng);
  Matrix expected = Transpose(a).MatMul(b);
  Matrix got = a.TransposeMatMul(b);
  ASSERT_TRUE(got.SameShape(expected));
  for (size_t r = 0; r < got.rows(); ++r)
    for (size_t c = 0; c < got.cols(); ++c)
      EXPECT_NEAR(got(r, c), expected(r, c), 1e-12);
}

TEST(MatrixTest, MatMulTransposeMatchesExplicitTranspose) {
  Rng rng(2);
  Matrix a = Matrix::Randn(4, 3, &rng);
  Matrix b = Matrix::Randn(5, 3, &rng);
  Matrix expected = a.MatMul(Transpose(b));
  Matrix got = a.MatMulTranspose(b);
  ASSERT_TRUE(got.SameShape(expected));
  for (size_t r = 0; r < got.rows(); ++r)
    for (size_t c = 0; c < got.cols(); ++c)
      EXPECT_NEAR(got(r, c), expected(r, c), 1e-12);
}

TEST(MatrixTest, IdentityIsMatMulNeutral) {
  Rng rng(3);
  Matrix a = Matrix::Randn(3, 3, &rng);
  Matrix got = a.MatMul(Matrix::Identity(3));
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(got(r, c), a(r, c));
}

TEST(MatrixTest, ElementwiseArithmetic) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
  Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  Matrix had = a.CWiseMul(b);
  EXPECT_DOUBLE_EQ(had(0, 1), 40.0);
}

TEST(MatrixTest, AddRowBroadcast) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix row = Matrix::FromRows({{10, 20}});
  m.AddRowBroadcast(row);
  EXPECT_DOUBLE_EQ(m(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 24.0);
}

TEST(MatrixTest, Reductions) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(m.Mean(), 2.5);
  Matrix cs = m.ColSum();
  EXPECT_DOUBLE_EQ(cs(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(cs(0, 1), 6.0);
  Matrix cm = m.ColMean();
  EXPECT_DOUBLE_EQ(cm(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
}

TEST(MatrixTest, RowAndColRanges) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  Matrix rows = m.RowRange(1, 3);
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_DOUBLE_EQ(rows(0, 0), 4.0);
  Matrix cols = m.ColRange(1, 2);
  EXPECT_EQ(cols.cols(), 1u);
  EXPECT_DOUBLE_EQ(cols(2, 0), 8.0);
}

TEST(MatrixTest, GatherRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = m.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_DOUBLE_EQ(g(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(2, 1), 6.0);
}

TEST(MatrixTest, HCatAndVCat) {
  Matrix a = Matrix::FromRows({{1}, {2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix h = Matrix::HCat(a, b);
  EXPECT_EQ(h.cols(), 3u);
  EXPECT_DOUBLE_EQ(h(1, 2), 6.0);
  Matrix v = Matrix::VCat(b, b);
  EXPECT_EQ(v.rows(), 4u);
  EXPECT_DOUBLE_EQ(v(3, 1), 6.0);
}

TEST(MatrixTest, HCatWithEmptyReturnsOther) {
  Matrix a;
  Matrix b = Matrix::FromRows({{1, 2}});
  Matrix h = Matrix::HCat(a, b);
  EXPECT_EQ(h.cols(), 2u);
}

TEST(MatrixTest, ArgMaxRow) {
  Matrix m = Matrix::FromRows({{1, 9, 3}, {7, 2, 5}});
  EXPECT_EQ(m.ArgMaxRow(0), 1u);
  EXPECT_EQ(m.ArgMaxRow(1), 0u);
}

TEST(MatrixTest, Clip) {
  Matrix m = Matrix::FromRows({{-5, 0.5, 5}});
  m.Clip(-1.0, 1.0);
  EXPECT_DOUBLE_EQ(m(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m(0, 2), 1.0);
}

TEST(MatrixTest, AppendRowGrowsMatrix) {
  Matrix m;
  m.AppendRow({1.0, 2.0});
  m.AppendRow({3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, ReserveRowsWithColsHintPreventsReallocation) {
  Matrix m;
  m.ReserveRows(64, 3);  // width hint: matrix is still empty
  m.AppendRow({0.0, 0.0, 0.0});
  const double* p = m.data();
  for (int i = 1; i < 64; ++i)
    m.AppendRow({1.0 * i, 2.0 * i, 3.0 * i});
  // All 64 rows fit in the reserved block — no reallocation.
  EXPECT_EQ(m.data(), p);
  EXPECT_EQ(m.rows(), 64u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(63, 2), 3.0 * 63);
}

TEST(MatrixTest, ReserveRowsOnSizedMatrixNeedsNoHint) {
  Matrix m(0, 5);
  m.ReserveRows(16);
  m.AppendRow({1, 2, 3, 4, 5});
  EXPECT_EQ(m.rows(), 1u);
}

TEST(MatrixDeathTest, ReserveRowsWithoutWidthAborts) {
  Matrix m;
  // An empty matrix has no width: reserving rows without a cols hint
  // was a silent no-op before; now it is an error.
  EXPECT_DEATH(m.ReserveRows(10), "DAISY_CHECK");
}

TEST(MatrixDeathTest, ReserveRowsConflictingHintAborts) {
  Matrix m(0, 4);
  EXPECT_DEATH(m.ReserveRows(10, 5), "DAISY_CHECK");
}

TEST(MatrixDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 2), b(3, 2);
  EXPECT_DEATH(a += b, "DAISY_CHECK");
}

TEST(MatrixDeathTest, OutOfBoundsAborts) {
  Matrix a(2, 2);
  EXPECT_DEATH(a(2, 0), "DAISY_CHECK");
}

}  // namespace
}  // namespace daisy
