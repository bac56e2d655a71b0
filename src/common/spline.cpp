#include "common/spline.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace swraman {

void solve_tridiagonal(std::vector<double>& a, std::vector<double>& b,
                       std::vector<double>& c, std::vector<double>& d) {
  const std::size_t n = d.size();
  SWRAMAN_REQUIRE(a.size() == n && b.size() == n && c.size() == n,
                  "tridiagonal bands must have equal length");
  for (std::size_t i = 1; i < n; ++i) {
    const double m = a[i] / b[i - 1];
    b[i] -= m * c[i - 1];
    d[i] -= m * d[i - 1];
  }
  d[n - 1] /= b[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    d[i] = (d[i] - c[i] * d[i + 1]) / b[i];
  }
}

NaturalSplineKnots::NaturalSplineKnots(const std::vector<double>& x) {
  SWRAMAN_REQUIRE(x.size() >= 2, "spline: need at least 2 knots");
  const std::size_t n = x.size();
  h_.resize(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) h_[i] = x[i + 1] - x[i];
  if (n < 3) return;
  // Row r couples knots r, r+1, r+2: sub h_r/6, diag (h_r + h_{r+1})/3,
  // super h_{r+1}/6. Natural BC: y2 = 0 at both ends, so the first row's
  // sub and the last row's super drop out. Forward elimination as in
  // solve_tridiagonal, on the bands alone.
  const std::size_t rows = n - 2;
  mult_.assign(rows, 0.0);
  pivot_.resize(rows);
  super_.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    pivot_[r] = (h_[r] + h_[r + 1]) / 3.0;
    super_[r] = h_[r + 1] / 6.0;
  }
  for (std::size_t r = 1; r < rows; ++r) {
    mult_[r] = h_[r] / 6.0 / pivot_[r - 1];
    pivot_[r] -= mult_[r] * super_[r - 1];
  }
}

void NaturalSplineKnots::second_derivatives(const double* y,
                                            double* y2) const {
  const std::size_t n = size();
  y2[0] = 0.0;
  y2[n - 1] = 0.0;
  if (n < 3) return;
  // The interior of y2 holds the right-hand side through both sweeps.
  double* d = y2 + 1;
  const std::size_t rows = n - 2;
  for (std::size_t r = 0; r < rows; ++r) {
    d[r] = (y[r + 2] - y[r + 1]) / h_[r + 1] - (y[r + 1] - y[r]) / h_[r];
  }
  for (std::size_t r = 1; r < rows; ++r) d[r] -= mult_[r] * d[r - 1];
  d[rows - 1] /= pivot_[rows - 1];
  for (std::size_t r = rows - 1; r-- > 0;) {
    d[r] = (d[r] - super_[r] * d[r + 1]) / pivot_[r];
  }
}

void NaturalSplineKnots::cumulative(const double* y, const double* y2,
                                    double* cum) const {
  cum[0] = 0.0;
  for (std::size_t i = 0; i < h_.size(); ++i) {
    cum[i + 1] =
        spline_cumulative_step(cum[i], h_[i], y[i], y[i + 1], y2[i], y2[i + 1]);
  }
}

std::vector<double> natural_spline_second_derivatives(
    const std::vector<double>& x, const std::vector<double>& y) {
  SWRAMAN_REQUIRE(x.size() == y.size(), "spline: x/y size mismatch");
  std::vector<double> y2(x.size(), 0.0);
  if (x.size() < 3) return y2;
  NaturalSplineKnots(x).second_derivatives(y.data(), y2.data());
  return y2;
}

void cubic_interval_coefficients(double h, double y0, double y1, double m0,
                                 double m1, double c[4]) {
  c[0] = y0;
  c[1] = (y1 - y0) / h - h / 6.0 * (2.0 * m0 + m1);
  c[2] = m0 / 2.0;
  c[3] = (m1 - m0) / (6.0 * h);
}

CubicSpline::CubicSpline(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
  SWRAMAN_REQUIRE(x_.size() == y_.size(), "spline: x/y size mismatch");
  SWRAMAN_REQUIRE(x_.size() >= 2, "spline: need at least 2 knots");
  for (std::size_t i = 1; i < x_.size(); ++i) {
    SWRAMAN_REQUIRE(x_[i] > x_[i - 1], "spline: knots must increase");
  }
  y2_ = natural_spline_second_derivatives(x_, y_);
}

std::size_t spline_interval(const std::vector<double>& knots, double x) {
  if (x <= knots.front()) return 0;
  if (x >= knots.back()) return knots.size() - 2;
  const auto it = std::upper_bound(knots.begin(), knots.end(), x);
  return static_cast<std::size_t>(it - knots.begin()) - 1;
}

std::size_t CubicSpline::interval(double x) const {
  return spline_interval(x_, x);
}

double CubicSpline::value(double x) const {
  const std::size_t i = interval(x);
  return spline_combine(spline_weights(x_, i, x), y_[i], y_[i + 1], y2_[i],
                        y2_[i + 1]);
}

double CubicSpline::derivative(double x) const {
  const std::size_t i = interval(x);
  const double h = x_[i + 1] - x_[i];
  const double a = (x_[i + 1] - x) / h;
  const double b = (x - x_[i]) / h;
  return (y_[i + 1] - y_[i]) / h -
         (3.0 * a * a - 1.0) / 6.0 * h * y2_[i] +
         (3.0 * b * b - 1.0) / 6.0 * h * y2_[i + 1];
}

double CubicSpline::second_derivative(double x) const {
  const std::size_t i = interval(x);
  const double h = x_[i + 1] - x_[i];
  const double a = (x_[i + 1] - x) / h;
  const double b = (x - x_[i]) / h;
  return a * y2_[i] + b * y2_[i + 1];
}

std::vector<double> CubicSpline::cumulative_at_knots() const {
  std::vector<double> cum(x_.size(), 0.0);
  for (std::size_t i = 0; i + 1 < x_.size(); ++i) {
    cum[i + 1] = spline_cumulative_step(cum[i], x_[i + 1] - x_[i], y_[i],
                                        y_[i + 1], y2_[i], y2_[i + 1]);
  }
  return cum;
}

void CubicSpline::interval_coefficients(std::size_t i, double c[4]) const {
  SWRAMAN_REQUIRE(i + 1 < x_.size(), "interval_coefficients: index");
  cubic_interval_coefficients(x_[i + 1] - x_[i], y_[i], y_[i + 1], y2_[i],
                              y2_[i + 1], c);
}

IndexSpline::IndexSpline(const std::vector<double>& y) : n_(y.size()) {
  SWRAMAN_REQUIRE(n_ >= 2, "IndexSpline: need at least 2 knots");
  std::vector<double> x(n_);
  for (std::size_t i = 0; i < n_; ++i) x[i] = static_cast<double>(i);
  const std::vector<double> y2 = natural_spline_second_derivatives(x, y);

  // Convert the Hermite-like representation into per-interval monomial
  // coefficients in u = t - i:
  //   y(u) = y_i + u*(dy - h/6*(2*y2_i + y2_{i+1}))
  //        + u^2 * y2_i/2 + u^3 * (y2_{i+1} - y2_i)/6,   with h = 1.
  coeff_.resize(4 * (n_ - 1));
  for (std::size_t i = 0; i + 1 < n_; ++i) {
    const double dy = y[i + 1] - y[i];
    coeff_[4 * i + 0] = y[i];
    coeff_[4 * i + 1] = dy - (2.0 * y2[i] + y2[i + 1]) / 6.0;
    coeff_[4 * i + 2] = y2[i] / 2.0;
    coeff_[4 * i + 3] = (y2[i + 1] - y2[i]) / 6.0;
  }
}

double IndexSpline::value(double t) const {
  const double tmax = static_cast<double>(n_ - 1);
  t = std::clamp(t, 0.0, tmax);
  std::size_t i = static_cast<std::size_t>(t);
  if (i >= n_ - 1) i = n_ - 2;
  const double u = t - static_cast<double>(i);
  const double* c = &coeff_[4 * i];
  return c[0] + u * (c[1] + u * (c[2] + u * c[3]));
}

double IndexSpline::derivative(double t) const {
  const double tmax = static_cast<double>(n_ - 1);
  t = std::clamp(t, 0.0, tmax);
  std::size_t i = static_cast<std::size_t>(t);
  if (i >= n_ - 1) i = n_ - 2;
  const double u = t - static_cast<double>(i);
  const double* c = &coeff_[4 * i];
  return c[1] + u * (2.0 * c[2] + 3.0 * u * c[3]);
}

double IndexSpline::second_derivative(double t) const {
  const double tmax = static_cast<double>(n_ - 1);
  t = std::clamp(t, 0.0, tmax);
  std::size_t i = static_cast<std::size_t>(t);
  if (i >= n_ - 1) i = n_ - 2;
  const double u = t - static_cast<double>(i);
  const double* c = &coeff_[4 * i];
  return 2.0 * c[2] + 6.0 * u * c[3];
}

}  // namespace swraman
