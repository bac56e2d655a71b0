#pragma once

#include <cstddef>
#include <deque>
#include <vector>

// Pulay DIIS over a sliding window of residuals, shared by the SCF cycle
// (Hamiltonian residuals) and the DFPT response axes (density-matrix
// residuals). The caller owns the residuals and the inner product; the
// window keeps their Gram matrix B_ij = <r_i, r_j>, each entry computed
// once, when the newer of its two residuals arrives, and solves the
// bordered Pulay system
//   [ B   -1 ] [c]   [ 0]
//   [-1^T  0 ] [l] = [-1]
// for the extrapolation coefficients c (sum c_i = 1).

namespace swraman::linalg {

class DiisGram {
 public:
  // Appends the newest residual: row[i] = <r_i, r_new> for the residuals
  // already in the window, oldest first, then <r_new, r_new>. Each value
  // serves both B(i, new) and B(new, i).
  void push(std::vector<double> row);

  // Drops the oldest residual; a no-op on an empty window.
  void pop_front();

  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  // The coefficients of the window's residuals, oldest first; empty with
  // fewer than two residuals or a singular system.
  [[nodiscard]] std::vector<double> coefficients() const;

 private:
  std::deque<std::vector<double>> rows_;  // rows_[i][j] = <r_i, r_j>
};

}  // namespace swraman::linalg
