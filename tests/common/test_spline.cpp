#include "common/spline.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace swraman {
namespace {

TEST(CubicSpline, ReproducesKnotValues) {
  std::vector<double> x{0.0, 0.5, 1.3, 2.0, 3.7};
  std::vector<double> y{1.0, -2.0, 0.5, 4.0, -1.0};
  CubicSpline s(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s.value(x[i]), y[i], 1e-12);
  }
}

TEST(CubicSpline, InterpolatesSmoothFunctionAccurately) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i <= 100; ++i) {
    const double xi = static_cast<double>(i) / 100.0 * kTwoPi;
    x.push_back(xi);
    y.push_back(std::sin(xi));
  }
  CubicSpline s(x, y);
  for (double t = 0.05; t < kTwoPi; t += 0.173) {
    EXPECT_NEAR(s.value(t), std::sin(t), 1e-6);
    EXPECT_NEAR(s.derivative(t), std::cos(t), 1e-4);
  }
}

TEST(CubicSpline, SecondDerivativeIsContinuousAtKnots) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> y{0.0, 1.0, 0.0, -1.0, 0.0};
  CubicSpline s(x, y);
  for (double knot : {1.0, 2.0, 3.0}) {
    EXPECT_NEAR(s.second_derivative(knot - 1e-9),
                s.second_derivative(knot + 1e-9), 1e-6);
  }
}

TEST(CubicSpline, RejectsBadInput) {
  EXPECT_THROW(CubicSpline({1.0}, {1.0}), Error);
  EXPECT_THROW(CubicSpline({0.0, 0.0}, {1.0, 2.0}), Error);
  EXPECT_THROW(CubicSpline({0.0, 1.0}, {1.0}), Error);
}

TEST(IndexSpline, MatchesCubicSplineOnIntegerKnots) {
  std::vector<double> y{2.0, -1.0, 0.5, 3.0, 1.0, -2.0};
  IndexSpline is(y);
  std::vector<double> x(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) x[i] = static_cast<double>(i);
  CubicSpline cs(x, y);
  for (double t = 0.0; t <= 5.0; t += 0.37) {
    EXPECT_NEAR(is.value(t), cs.value(t), 1e-12);
    EXPECT_NEAR(is.derivative(t), cs.derivative(t), 1e-10);
    EXPECT_NEAR(is.second_derivative(t), cs.second_derivative(t), 1e-10);
  }
}

TEST(IndexSpline, CoefficientLayoutMatchesEvaluation) {
  std::vector<double> y{1.0, 4.0, 2.0, 0.0, 5.0};
  IndexSpline is(y);
  const std::vector<double>& c = is.coefficients();
  ASSERT_EQ(c.size(), 4 * (y.size() - 1));
  const double t = 2.3;
  const std::size_t i = 2;
  const double u = t - static_cast<double>(i);
  const double manual =
      c[4 * i] + u * (c[4 * i + 1] + u * (c[4 * i + 2] + u * c[4 * i + 3]));
  EXPECT_NEAR(is.value(t), manual, 1e-14);
}

TEST(IndexSpline, ClampsOutOfRange) {
  std::vector<double> y{1.0, 2.0, 3.0};
  IndexSpline is(y);
  EXPECT_NEAR(is.value(-5.0), 1.0, 1e-12);
  EXPECT_NEAR(is.value(99.0), 3.0, 1e-12);
}

TEST(NaturalSplineKnots, MatchesBandedSolveAndCubicSplineBitwise) {
  // The factored system must reproduce, bit for bit, the natural-spline
  // second derivatives assembled band by band and solved by
  // solve_tridiagonal, and CubicSpline's cumulative integrals.
  for (std::size_t n : {2u, 3u, 4u, 11u, 40u}) {
    std::vector<double> x(n);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 0.01 + std::pow(0.37 * static_cast<double>(i), 1.7);
      y[i] = std::exp(-x[i]) * std::cos(3.0 * x[i]) + 0.1 * x[i];
    }
    std::vector<double> ref(n, 0.0);
    if (n >= 3) {
      std::vector<double> a(n - 2), b(n - 2), c(n - 2), d(n - 2);
      for (std::size_t i = 1; i + 1 < n; ++i) {
        const double h0 = x[i] - x[i - 1];
        const double h1 = x[i + 1] - x[i];
        a[i - 1] = h0 / 6.0;
        b[i - 1] = (h0 + h1) / 3.0;
        c[i - 1] = h1 / 6.0;
        d[i - 1] = (y[i + 1] - y[i]) / h1 - (y[i] - y[i - 1]) / h0;
      }
      a[0] = 0.0;
      c[n - 3] = 0.0;
      solve_tridiagonal(a, b, c, d);
      for (std::size_t i = 1; i + 1 < n; ++i) ref[i] = d[i - 1];
    }
    const NaturalSplineKnots sys(x);
    ASSERT_EQ(sys.size(), n);
    std::vector<double> y2(n, -1.0);
    sys.second_derivatives(y.data(), y2.data());
    std::vector<double> cum(n, -1.0);
    sys.cumulative(y.data(), y2.data(), cum.data());
    const std::vector<double> spline_cum =
        CubicSpline(x, y).cumulative_at_knots();
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y2[i], ref[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(cum[i], spline_cum[i]) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(natural_spline_second_derivatives(x, y), y2) << "n=" << n;
  }
}

TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
  std::vector<double> a{0.0, 1.0, 1.0};
  std::vector<double> b{2.0, 2.0, 2.0};
  std::vector<double> c{1.0, 1.0, 0.0};
  std::vector<double> d{4.0, 8.0, 8.0};
  solve_tridiagonal(a, b, c, d);
  EXPECT_NEAR(d[0], 1.0, 1e-12);
  EXPECT_NEAR(d[1], 2.0, 1e-12);
  EXPECT_NEAR(d[2], 3.0, 1e-12);
}

}  // namespace
}  // namespace swraman
// -- appended coverage for the spline extensions used by the multipole
// solver (cumulative integration) and the CSI kernel (interval
// coefficients). Kept in the anonymous namespace of this TU via reopening.

namespace swraman {
namespace {

TEST(CubicSpline, CumulativeIntegralMatchesAnalytic) {
  // integral of sin on [0, pi]: cumulative = 1 - cos(x).
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i <= 60; ++i) {
    const double xi = kPi * static_cast<double>(i) / 60.0;
    x.push_back(xi);
    y.push_back(std::sin(xi));
  }
  const CubicSpline s(x, y);
  const std::vector<double> cum = s.cumulative_at_knots();
  ASSERT_EQ(cum.size(), x.size());
  EXPECT_DOUBLE_EQ(cum[0], 0.0);
  for (std::size_t i = 0; i < x.size(); i += 7) {
    EXPECT_NEAR(cum[i], 1.0 - std::cos(x[i]), 1e-7) << "x=" << x[i];
  }
  EXPECT_NEAR(cum.back(), 2.0, 1e-7);
}

TEST(CubicSpline, CumulativeBeatsTrapezoidOnCoarseMesh) {
  // Nonuniform coarse mesh over a Gaussian: the spline integral must be
  // far closer to sqrt(pi)/2 than the trapezoid estimate.
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i <= 14; ++i) {
    const double xi = 4.0 * std::pow(static_cast<double>(i) / 14.0, 1.5);
    x.push_back(xi);
    y.push_back(std::exp(-xi * xi));
  }
  const CubicSpline s(x, y);
  const double spline_val = s.cumulative_at_knots().back();
  double trap = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    trap += 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
  }
  const double exact = kSqrtPi / 2.0;
  EXPECT_LT(std::abs(spline_val - exact), 0.2 * std::abs(trap - exact));
  EXPECT_NEAR(spline_val, exact, 2e-4);
}

TEST(CubicSpline, IntervalCoefficientsReproduceValues) {
  std::vector<double> x{0.0, 0.7, 1.1, 2.4, 3.0};
  std::vector<double> y{1.0, -0.3, 0.9, 2.0, -1.0};
  const CubicSpline s(x, y);
  double c[4];
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    s.interval_coefficients(i, c);
    for (double frac : {0.0, 0.31, 0.77, 1.0}) {
      const double xx = x[i] + frac * (x[i + 1] - x[i]);
      const double u = xx - x[i];
      const double poly = c[0] + u * (c[1] + u * (c[2] + u * c[3]));
      EXPECT_NEAR(poly, s.value(xx), 1e-12) << "interval " << i;
    }
  }
  EXPECT_EQ(s.interval_of(0.8), 1u);
  EXPECT_EQ(s.interval_of(-5.0), 0u);
  EXPECT_EQ(s.interval_of(99.0), x.size() - 2);
}

}  // namespace
}  // namespace swraman
