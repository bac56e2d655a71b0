#include "linalg/matrix.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace swraman::linalg {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.trace(), 5.0);
}

TEST(Matrix, Multiply) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, Error);
}

TEST(Matrix, TransposeAndHelpers) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix at = a.transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);

  const Matrix b{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const Matrix c1 = at_b(a.transposed(), b);  // (a^T)^T b = a b
  const Matrix c2 = a * b;
  EXPECT_NEAR((c1 - c2).max_abs(), 0.0, 1e-14);

  const Matrix d1 = a_bt(a, b.transposed());  // a (b^T)^T = a b
  EXPECT_NEAR((d1 - c2).max_abs(), 0.0, 1e-14);
}

TEST(Matrix, TraceProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_DOUBLE_EQ(trace_product(a, b), (a * b).trace());
}

TEST(Matrix, Matvec) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> y = matvec(a, {1.0, -1.0});
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Matrix, Symmetrize) {
  Matrix a{{1.0, 4.0}, {2.0, 3.0}};
  a.symmetrize();
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
}

TEST(Matrix, NormAndMaxAbs) {
  const Matrix a{{3.0, 0.0}, {0.0, -4.0}};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
}

TEST(Matrix, MaxAbsPropagatesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN first, last and between larger elements: std::max alone would
  // return 3, 4 and 4 here.
  EXPECT_TRUE(std::isnan(Matrix({{nan, 1.0}, {2.0, 3.0}}).max_abs()));
  EXPECT_TRUE(std::isnan(Matrix({{1.0, -4.0}, {2.0, nan}}).max_abs()));
  EXPECT_TRUE(std::isnan(Matrix({{-4.0, nan}, {2.0, 3.0}}).max_abs()));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Matrix({{1.0, -inf}}).max_abs(), inf);
}

}  // namespace
}  // namespace swraman::linalg
