#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/error.hpp"

// Dense row-major matrix of doubles. Sized for quantum-chemistry problems
// (basis dimensions up to a few thousand); operations are straightforward
// cache-friendly triple loops, not a BLAS replacement.

namespace swraman::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Row-major initializer: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    SWRAMAN_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    SWRAMAN_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] double* row(std::size_t i) { return data_.data() + i * cols_; }
  [[nodiscard]] const double* row(std::size_t i) const {
    return data_.data() + i * cols_;
  }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] double trace() const;
  // Frobenius norm.
  [[nodiscard]] double norm() const;
  // Largest |element|; NaN when any element is NaN.
  [[nodiscard]] double max_abs() const;

  void fill(double value);
  // Symmetrizes in place: A <- (A + A^T)/2. Requires square.
  void symmetrize();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);
Matrix operator*(const Matrix& a, const Matrix& b);

// y = A x.
std::vector<double> matvec(const Matrix& a, const std::vector<double>& x);

// tr(A B) for equally-shaped matrices with B used transposed-free, i.e.
// sum_ij A_ij B_ji. For symmetric B this equals sum_ij A_ij B_ij.
double trace_product(const Matrix& a, const Matrix& b);

// C = A^T B and C = A B^T helpers (avoid explicit transposes in hot paths).
Matrix at_b(const Matrix& a, const Matrix& b);
Matrix a_bt(const Matrix& a, const Matrix& b);

}  // namespace swraman::linalg
