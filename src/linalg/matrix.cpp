#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace swraman::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    SWRAMAN_REQUIRE(r.size() == cols_, "Matrix: ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  SWRAMAN_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "matrix shape");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  SWRAMAN_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "matrix shape");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

double Matrix::trace() const {
  SWRAMAN_REQUIRE(rows_ == cols_, "trace: square matrix required");
  double s = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

double Matrix::norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) {
    // std::max would drop a NaN (every comparison with it is false).
    if (std::isnan(v)) return v;
    m = std::max(m, std::abs(v));
  }
  return m;
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::assign(std::size_t rows, std::size_t cols, double value) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, value);
}

void Matrix::symmetrize() {
  SWRAMAN_REQUIRE(rows_ == cols_, "symmetrize: square matrix required");
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j) {
      const double v = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = v;
      (*this)(j, i) = v;
    }
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  SWRAMAN_REQUIRE(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order: streams through rows of b, cache friendly row-major.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* ci = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* bk = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aik * bk[j];
    }
  }
  return c;
}

std::vector<double> matvec(const Matrix& a, const std::vector<double>& x) {
  SWRAMAN_REQUIRE(a.cols() == x.size(), "matvec: dimension mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.row(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += ai[j] * x[j];
    y[i] = s;
  }
  return y;
}

double trace_product(const Matrix& a, const Matrix& b) {
  SWRAMAN_REQUIRE(a.rows() == b.cols() && a.cols() == b.rows(),
                  "trace_product: shape mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * b(j, i);
  return s;
}

double frobenius_dot(const Matrix& a, const Matrix& b) {
  SWRAMAN_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                  "frobenius_dot: shape mismatch");
  const double* pa = a.data();
  const double* pb = b.data();
  double s = 0.0;
  for (std::size_t k = 0; k < a.rows() * a.cols(); ++k) s += pa[k] * pb[k];
  return s;
}

Matrix at_b(const Matrix& a, const Matrix& b) {
  SWRAMAN_REQUIRE(a.rows() == b.rows(), "at_b: dimension mismatch");
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* ak = a.row(k);
    const double* bk = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = ak[i];
      if (aki == 0.0) continue;
      double* ci = c.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aki * bk[j];
    }
  }
  return c;
}

Matrix a_bt(const Matrix& a, const Matrix& b) {
  SWRAMAN_REQUIRE(a.cols() == b.cols(), "a_bt: dimension mismatch");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* bj = b.row(j);
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += ai[k] * bj[k];
      c(i, j) = s;
    }
  }
  return c;
}

}  // namespace swraman::linalg
