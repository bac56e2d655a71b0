#pragma once

#include <cstddef>
#include <vector>

// Cubic-spline interpolation. Two flavours are provided:
//
//  * CubicSpline: general non-uniform knots, natural boundary conditions,
//    with value / first / second derivative evaluation.
//
//  * IndexSpline: knots at integer indices 0..n-1 (the FHI-aims convention
//    for functions tabulated on a logarithmic radial mesh: the spline runs
//    in index space and the mesh maps r -> fractional index). IndexSpline
//    stores per-interval polynomial coefficients (s0, s1, s2, s3) laid out
//    contiguously, which is exactly the memory layout consumed by the
//    vectorized cubic-spline-interpolation (CSI) kernel of the paper
//    (Algorithm 2 / Fig 7).

namespace swraman {

class CubicSpline {
 public:
  CubicSpline() = default;

  // Builds a natural cubic spline through (x[i], y[i]). x must be strictly
  // increasing and contain at least 2 points.
  CubicSpline(std::vector<double> x, std::vector<double> y);

  [[nodiscard]] double value(double x) const;
  [[nodiscard]] double derivative(double x) const;
  [[nodiscard]] double second_derivative(double x) const;

  [[nodiscard]] std::size_t size() const { return x_.size(); }
  [[nodiscard]] const std::vector<double>& knots() const { return x_; }
  [[nodiscard]] const std::vector<double>& values() const { return y_; }

  // Exact integrals of the spline from the first knot to every knot
  // (piecewise-cubic antiderivative; O(h^4) accurate for smooth data, far
  // better than trapezoid on coarse nonuniform meshes).
  [[nodiscard]] std::vector<double> cumulative_at_knots() const;

  // Monomial coefficients of interval i (i = 0..size()-2):
  //   y(x) = c[0] + c[1] u + c[2] u^2 + c[3] u^3,  u = x - knot(i).
  // This is the per-interval (s0, s1, s2, s3) layout the vectorized CSI
  // kernel consumes (paper Algorithm 2).
  void interval_coefficients(std::size_t i, double c[4]) const;

  // Interval index containing x (clamped to the knot range).
  [[nodiscard]] std::size_t interval_of(double x) const { return interval(x); }

 private:
  [[nodiscard]] std::size_t interval(double x) const;

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> y2_;  // second derivatives at knots
};

class IndexSpline {
 public:
  IndexSpline() = default;

  // Builds a natural cubic spline through (i, y[i]), i = 0..n-1.
  explicit IndexSpline(const std::vector<double>& y);

  // Evaluates at fractional index t in [0, n-1]. Out-of-range t is clamped.
  [[nodiscard]] double value(double t) const;
  // d/dt at fractional index t.
  [[nodiscard]] double derivative(double t) const;
  // d2/dt2 at fractional index t.
  [[nodiscard]] double second_derivative(double t) const;

  [[nodiscard]] std::size_t n_knots() const { return n_; }

  // Raw coefficient storage: for interval i (i = 0..n-2) the polynomial is
  //   y(t) = c[4i] + c[4i+1]*u + c[4i+2]*u^2 + c[4i+3]*u^3,  u = t - i.
  // This is the array the CSI CPE kernel DMA-prefetches.
  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coeff_;
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> coeff_;
};

// Interval i of the strictly increasing knots (at least 2) that contains x,
// clamped to 0 below the first knot and to knots.size() - 2 from the last.
std::size_t spline_interval(const std::vector<double>& knots, double x);

// Interpolation weights of x on interval i of a natural cubic spline:
//   y(x) = a y_i + b y_{i+1} + (a3 y2_i + b3 y2_{i+1}) h2 / 6,
//   a = (x_{i+1} - x)/h, b = (x - x_i)/h, a3 = a^3 - a, b3 = b^3 - b,
//   h2 = h^2, h = x_{i+1} - x_i.
// Channels tabulated on the same knots share one set of weights; each is
// then evaluated by spline_combine, the expression CubicSpline::value uses,
// so shared-weight and per-spline evaluation agree bitwise.
struct SplineWeights {
  double a;
  double b;
  double a3;
  double b3;
  double h2;
};

inline SplineWeights spline_weights(const std::vector<double>& knots,
                                    std::size_t i, double x) {
  const double h = knots[i + 1] - knots[i];
  const double a = (knots[i + 1] - x) / h;
  const double b = (x - knots[i]) / h;
  return {a, b, a * a * a - a, b * b * b - b, h * h};
}

inline double spline_combine(const SplineWeights& w, double y0, double y1,
                             double m0, double m1) {
  return w.a * y0 + w.b * y1 + (w.a3 * m0 + w.b3 * m1) * w.h2 / 6.0;
}

// cum plus the exact integral of one natural-spline interval of width h
// with end values y0, y1 and end second derivatives m0, m1:
//   cum + h (y0 + y1)/2 - h^3 (m0 + m1)/24.
// The one expression behind every cumulative spline integral
// (CubicSpline::cumulative_at_knots, NaturalSplineKnots::cumulative), so
// the two agree bitwise.
inline double spline_cumulative_step(double cum, double h, double y0,
                                     double y1, double m0, double m1) {
  return cum + h * (y0 + y1) / 2.0 - h * h * h * (m0 + m1) / 24.0;
}

// The natural-spline system of one knot vector (strictly increasing, at
// least 2), factored once. The tridiagonal bands, and with them the
// elimination multipliers and pivots, depend on the knots alone, so
// channels tabulated on the same knots (hartree::MultipoleSolver keeps up
// to (lmax+1)^2 per atom) pay only for the right-hand side and the two
// substitution sweeps. natural_spline_second_derivatives runs on this
// class, so both give bitwise the same second derivatives.
class NaturalSplineKnots {
 public:
  NaturalSplineKnots() = default;
  explicit NaturalSplineKnots(const std::vector<double>& x);

  [[nodiscard]] std::size_t size() const { return h_.size() + 1; }

  // y2[k] = natural-spline second derivative at knot k of the data y; both
  // arrays have size() entries. Allocation-free.
  void second_derivatives(const double* y, double* y2) const;

  // cum[k] = exact integral of the spline (y, y2) from the first knot to
  // knot k; all arrays have size() entries. Allocation-free.
  void cumulative(const double* y, const double* y2, double* cum) const;

 private:
  std::vector<double> h_;      // interval widths x[i+1] - x[i]
  // Row r of the system is interior knot r + 1 (r = 0..size()-3).
  std::vector<double> mult_;   // forward-elimination multiplier of row r
  std::vector<double> pivot_;  // eliminated diagonal of row r
  std::vector<double> super_;  // super-diagonal of row r
};

// Natural-spline second derivatives at the knots x (strictly increasing):
// the y2 table CubicSpline interpolates with. Zero for fewer than 3 knots.
std::vector<double> natural_spline_second_derivatives(
    const std::vector<double>& x, const std::vector<double>& y);

// Monomial coefficients of one natural-spline interval of width h with end
// values y0, y1 and end second derivatives m0, m1:
//   y(u) = c[0] + c[1] u + c[2] u^2 + c[3] u^3,  u in [0, h].
void cubic_interval_coefficients(double h, double y0, double y1, double m0,
                                 double m1, double c[4]);

// Solves a tridiagonal system in place: diag a (sub), b (main), c (super),
// rhs d; result returned in d. b is modified.
void solve_tridiagonal(std::vector<double>& a, std::vector<double>& b,
                       std::vector<double>& c, std::vector<double>& d);

}  // namespace swraman
