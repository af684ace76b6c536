// Unit tests for the shared dense-matrix type.
#include <gtest/gtest.h>

#include "common/matrix.hpp"
#include "common/require.hpp"

namespace {

using namespace pdac;

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, ConstructionFromData) {
  Matrix m(2, 2, std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, ConstructionRejectsSizeMismatch) {
  EXPECT_THROW(Matrix(2, 2, std::vector<double>{1, 2, 3}), PreconditionError);
}

// The sized constructor fills every element; resize adds elements
// without writing them, and with the column count unchanged keeps every
// existing row — the two contracts prepare_operand and KV appends use.
TEST(Matrix, SizedConstructorFillsAndResizeKeepsRows) {
  const Matrix zeros(3, 4);
  for (const double x : zeros.data()) EXPECT_EQ(x, 0.0);
  const Matrix filled(2, 5, -1.25);
  for (const double x : filled.data()) EXPECT_EQ(x, -1.25);

  Matrix m(2, 3);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = static_cast<double>(i) + 0.5;
  m.resize(5, 3);
  ASSERT_EQ(m.rows(), 5u);
  ASSERT_EQ(m.cols(), 3u);
  ASSERT_EQ(m.size(), 15u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(m.data()[i], static_cast<double>(i) + 0.5);
  m.resize(1, 3);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(m(0, c), static_cast<double>(c) + 0.5);
  m.resize(4, 3);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(m(0, c), static_cast<double>(c) + 0.5);
}

TEST(Matrix, RowSpanViewsUnderlyingStorage) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
  EXPECT_THROW(m.row(2), PreconditionError);
}

TEST(Matrix, ColumnExtraction) {
  Matrix m(2, 2, std::vector<double>{1, 2, 3, 4});
  const auto c = m.col(1);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 4.0);
  EXPECT_THROW(m.col(2), PreconditionError);
}

TEST(Matrix, Transpose) {
  Matrix m(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(t(c, r), m(r, c));
  }
}

TEST(Matrix, TransposeTwiceIsIdentity) {
  Rng rng(1);
  const Matrix m = Matrix::random_gaussian(5, 7, rng);
  const Matrix tt = m.transposed().transposed();
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(tt.data()[i], m.data()[i]);
}

TEST(Matrix, RandomGaussianIsSeedDeterministic) {
  Rng a(42), b(42);
  const Matrix ma = Matrix::random_gaussian(3, 3, a);
  const Matrix mb = Matrix::random_gaussian(3, 3, b);
  for (std::size_t i = 0; i < ma.size(); ++i) EXPECT_DOUBLE_EQ(ma.data()[i], mb.data()[i]);
}

TEST(Matrix, RandomUniformWithinBounds) {
  Rng rng(3);
  const Matrix m = Matrix::random_uniform(10, 10, rng, -0.5, 0.5);
  for (double v : m.data()) {
    EXPECT_GE(v, -0.5);
    EXPECT_LE(v, 0.5);
  }
}

TEST(MatmulReference, KnownProduct) {
  Matrix a(2, 2, std::vector<double>{1, 2, 3, 4});
  Matrix b(2, 2, std::vector<double>{5, 6, 7, 8});
  const Matrix c = matmul_reference(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatmulReference, IdentityIsNeutral) {
  Rng rng(9);
  const Matrix a = Matrix::random_gaussian(4, 4, rng);
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye(i, i) = 1.0;
  const Matrix c = matmul_reference(a, eye);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(c.data()[i], a.data()[i], 1e-14);
}

TEST(MatmulReference, RejectsBadInnerDims) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_THROW(matmul_reference(a, b), PreconditionError);
}

TEST(MatmulReference, RectangularShapes) {
  Rng rng(2);
  const Matrix a = Matrix::random_gaussian(3, 5, rng);
  const Matrix b = Matrix::random_gaussian(5, 2, rng);
  const Matrix c = matmul_reference(a, b);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 2u);
  // Spot-check one element against a manual dot product.
  double expect = 0.0;
  for (std::size_t k = 0; k < 5; ++k) expect += a(1, k) * b(k, 1);
  EXPECT_NEAR(c(1, 1), expect, 1e-12);
}

}  // namespace
