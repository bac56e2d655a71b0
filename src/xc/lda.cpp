#include "xc/lda.hpp"

#include <cmath>

#include "common/constants.hpp"

namespace swraman::xc {

namespace {

constexpr double kDensityFloor = 1e-14;

// PW92 parameters for the spin-unpolarized correlation energy.
constexpr double kA = 0.0310907;
constexpr double kAlpha1 = 0.21370;
constexpr double kBeta1 = 7.5957;
constexpr double kBeta2 = 3.5876;
constexpr double kBeta3 = 1.6382;
constexpr double kBeta4 = 0.49294;

// eps_x = cx n^{1/3}.
double slater_cx() { return -0.75 * std::cbrt(3.0 / kPi); }

// PW92 up to first order in rs, for n >= kDensityFloor. Every output path
// starts from these, so each field keeps one expression.
struct Pw92First {
  double rs;
  double sq;   // sqrt(rs)
  double q;
  double lnq;  // L = ln(1 + 1/q)
  double pre;  // -2A (1 + alpha1 rs)
  double ec;   // pre L
};

Pw92First pw92_first(double n) {
  Pw92First c;
  c.rs = std::cbrt(3.0 / (kFourPi * n));
  c.sq = std::sqrt(c.rs);
  c.q = 2.0 * kA *
        (kBeta1 * c.sq + kBeta2 * c.rs + kBeta3 * c.rs * c.sq +
         kBeta4 * c.rs * c.rs);
  c.lnq = std::log1p(1.0 / c.q);
  c.pre = -2.0 * kA * (1.0 + kAlpha1 * c.rs);
  c.ec = c.pre * c.lnq;
  return c;
}

double pw92_dq(const Pw92First& c) {
  return 2.0 * kA *
         (0.5 * kBeta1 / c.sq + kBeta2 + 1.5 * kBeta3 * c.sq +
          2.0 * kBeta4 * c.rs);
}

// L' = -q'/(q(q+1)).
double pw92_lp(const Pw92First& c, double dq) {
  return -dq / (c.q * (c.q + 1.0));
}

double pw92_dec(const Pw92First& c, double lp) {
  return -2.0 * kA * kAlpha1 * c.lnq + c.pre * lp;
}

// v_c = ec - (rs/3) dec/drs.
double pw92_v(const Pw92First& c, double dec) {
  return c.ec - (c.rs / 3.0) * dec;
}

// f_c = dv/dn = [(2/3) ec' - (rs/3) ec''] * drs/dn, drs/dn = -rs/(3n).
double pw92_f(const Pw92First& c, double n, double dq, double lp,
              double dec) {
  const double d2q = 2.0 * kA *
                     (-0.25 * kBeta1 / (c.rs * c.sq) + 0.75 * kBeta3 / c.sq +
                      2.0 * kBeta4);
  // L'' per quotient rule.
  const double lpp = -d2q / (c.q * (c.q + 1.0)) +
                     dq * dq * (2.0 * c.q + 1.0) /
                         (c.q * c.q * (c.q + 1.0) * (c.q + 1.0));
  const double d2ec = -4.0 * kA * kAlpha1 * lp + c.pre * lpp;
  const double dv_drs = (2.0 / 3.0) * dec - (c.rs / 3.0) * d2ec;
  return dv_drs * (-c.rs / (3.0 * n));
}

}  // namespace

XcPoint slater_exchange(double n) {
  XcPoint p;
  if (n < kDensityFloor) return p;
  const double cx = slater_cx();
  const double n13 = std::cbrt(n);
  p.eps = cx * n13;
  p.v = (4.0 / 3.0) * cx * n13;             // d(n eps)/dn
  p.f = (4.0 / 9.0) * cx / (n13 * n13);     // dv/dn
  return p;
}

XcPoint pw92_correlation(double n) {
  XcPoint p;
  if (n < kDensityFloor) return p;
  const Pw92First c = pw92_first(n);
  const double dq = pw92_dq(c);
  const double lp = pw92_lp(c, dq);
  const double dec = pw92_dec(c, lp);
  p.eps = c.ec;
  p.v = pw92_v(c, dec);
  p.f = pw92_f(c, n, dq, lp, dec);
  return p;
}

XcPoint evaluate(Functional f, double n) {
  XcPoint x = slater_exchange(n);
  if (f == Functional::SlaterX) return x;
  const XcPoint c = pw92_correlation(n);
  x.eps += c.eps;
  x.v += c.v;
  x.f += c.f;
  return x;
}

XcEnergyPotential energy_potential(Functional f, double n) {
  XcEnergyPotential x;
  if (n < kDensityFloor) return x;
  const double cx = slater_cx();
  const double n13 = std::cbrt(n);
  x.eps = cx * n13;
  x.v = (4.0 / 3.0) * cx * n13;
  if (f == Functional::SlaterX) return x;
  const Pw92First c = pw92_first(n);
  x.eps += c.ec;
  x.v += pw92_v(c, pw92_dec(c, pw92_lp(c, pw92_dq(c))));
  return x;
}

double energy(Functional f, double n) {
  if (n < kDensityFloor) return 0.0;
  const double eps_x = slater_cx() * std::cbrt(n);
  if (f == Functional::SlaterX) return eps_x;
  return eps_x + pw92_first(n).ec;
}

double kernel(Functional f, double n) {
  if (n < kDensityFloor) return 0.0;
  const double n13 = std::cbrt(n);
  const double f_x = (4.0 / 9.0) * slater_cx() / (n13 * n13);
  if (f == Functional::SlaterX) return f_x;
  const Pw92First c = pw92_first(n);
  const double dq = pw92_dq(c);
  const double lp = pw92_lp(c, dq);
  return f_x + pw92_f(c, n, dq, lp, pw92_dec(c, lp));
}

}  // namespace swraman::xc
