#include "xc/lda.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.hpp"

namespace swraman::xc {
namespace {

TEST(SlaterExchange, KnownValueAtUnitDensity) {
  const XcPoint p = slater_exchange(1.0);
  const double cx = -0.75 * std::cbrt(3.0 / kPi);
  EXPECT_NEAR(p.eps, cx, 1e-14);
  EXPECT_NEAR(p.v, 4.0 / 3.0 * cx, 1e-14);
}

TEST(Pw92, HighDensityLimitIsLogarithmic) {
  // For rs -> 0, ec -> 2A(ln rs - ...); just verify the known reference
  // value ec(rs=1) ~= -0.0598 Ha and ec(rs=2) ~= -0.0448 Ha (PW92 table).
  const double n_rs1 = 3.0 / (kFourPi);  // rs = 1
  const double n_rs2 = 3.0 / (kFourPi * 8.0);
  EXPECT_NEAR(pw92_correlation(n_rs1).eps, -0.0598, 2e-3);
  EXPECT_NEAR(pw92_correlation(n_rs2).eps, -0.0448, 2e-3);
}

TEST(Lda, ZeroDensityIsZero) {
  const XcPoint p = evaluate(Functional::LdaPw92, 0.0);
  EXPECT_DOUBLE_EQ(p.eps, 0.0);
  EXPECT_DOUBLE_EQ(p.v, 0.0);
  EXPECT_DOUBLE_EQ(p.f, 0.0);
}

class XcDensity : public ::testing::TestWithParam<double> {};

TEST_P(XcDensity, PotentialMatchesFiniteDifferenceOfEnergy) {
  const double n = GetParam();
  const double h = 1e-6 * n;
  for (Functional f : {Functional::SlaterX, Functional::LdaPw92}) {
    const double ep = (n + h) * evaluate(f, n + h).eps;
    const double em = (n - h) * evaluate(f, n - h).eps;
    const double v_fd = (ep - em) / (2.0 * h);
    EXPECT_NEAR(evaluate(f, n).v, v_fd, 1e-6 * std::abs(v_fd) + 1e-10)
        << "n=" << n;
  }
}

TEST_P(XcDensity, KernelMatchesFiniteDifferenceOfPotential) {
  const double n = GetParam();
  const double h = 1e-6 * n;
  for (Functional f : {Functional::SlaterX, Functional::LdaPw92}) {
    const double vp = evaluate(f, n + h).v;
    const double vm = evaluate(f, n - h).v;
    const double f_fd = (vp - vm) / (2.0 * h);
    EXPECT_NEAR(evaluate(f, n).f, f_fd,
                1e-5 * std::abs(f_fd) + 1e-10)
        << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, XcDensity,
                         ::testing::Values(1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0,
                                           5.0, 50.0));

TEST(Lda, ExchangeDominatesAtHighDensity) {
  const XcPoint x = slater_exchange(100.0);
  const XcPoint c = pw92_correlation(100.0);
  EXPECT_LT(x.eps, c.eps);  // both negative, exchange larger in magnitude
  EXPECT_GT(std::abs(x.eps), 5.0 * std::abs(c.eps));
}

TEST(Lda, AllPiecesNegativeForPositiveDensity) {
  for (double n : {1e-3, 0.1, 1.0, 10.0}) {
    EXPECT_LT(slater_exchange(n).eps, 0.0);
    EXPECT_LT(slater_exchange(n).v, 0.0);
    EXPECT_LT(pw92_correlation(n).eps, 0.0);
    EXPECT_LT(pw92_correlation(n).v, 0.0);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(XcEntryPoints, MatchEvaluateBitwise) {
  // Densities from 1e-16 to 1e6 in steps of 10^0.25, the floor's
  // neighbourhood (1e-14) included, plus zero.
  std::vector<double> densities{0.0};
  for (int k = -64; k <= 24; ++k) {
    densities.push_back(std::pow(10.0, 0.25 * k));
  }
  for (double n : {1e-14, std::nextafter(1e-14, 0.0), 0.999e-14}) {
    densities.push_back(n);
  }
  for (Functional f : {Functional::LdaPw92, Functional::SlaterX}) {
    for (double n : densities) {
      const XcPoint ref = evaluate(f, n);
      const XcEnergyPotential ev = energy_potential(f, n);
      EXPECT_TRUE(same_bits(ev.eps, ref.eps)) << "n=" << n;
      EXPECT_TRUE(same_bits(ev.v, ref.v)) << "n=" << n;
      EXPECT_TRUE(same_bits(energy(f, n), ref.eps)) << "n=" << n;
      EXPECT_TRUE(same_bits(kernel(f, n), ref.f)) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace swraman::xc
