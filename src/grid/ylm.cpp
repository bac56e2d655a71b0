#include "grid/ylm.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace swraman::grid {

namespace {

// Flat index of (l, m), 0 <= m <= l, in the lower-triangular Legendre
// tables. It does not depend on lmax, so one table serves every lmax.
constexpr std::size_t tri(int l, int m) {
  return static_cast<std::size_t>(l * (l + 1) / 2 + m);
}

constexpr std::size_t kTri = tri(kYlmMaxDegree + 1, 0);

// The recurrence constants of real_ylm up to kYlmMaxDegree.
struct YlmConstants {
  double q00;                         // Q_00 = sqrt(1/4pi)
  double sqrt2;                       // real-harmonic factor of m != 0
  double diag[kYlmMaxDegree + 1];     // Q_mm from Q_(m-1)(m-1)
  double sub[kYlmMaxDegree + 1];      // Q_(m+1)m from Q_mm
  double ra[kTri];                    // upward-in-l recurrence a_lm
  double rb[kTri];                    // upward-in-l recurrence b_lm
};

// Built once per process; each constant is the expression the recurrence
// always used, so the table changes no bit of the results.
const YlmConstants& constants() {
  static const YlmConstants k = [] {
    YlmConstants c{};
    const int lmax = kYlmMaxDegree;
    c.q00 = std::sqrt(1.0 / kFourPi);
    c.sqrt2 = std::sqrt(2.0);
    for (int m = 1; m <= lmax; ++m) {
      c.diag[m] = std::sqrt((2.0 * m + 1.0) / (2.0 * m));
    }
    for (int m = 0; m < lmax; ++m) c.sub[m] = std::sqrt(2.0 * m + 3.0);
    for (int m = 0; m <= lmax; ++m) {
      for (int l = m + 2; l <= lmax; ++l) {
        c.ra[tri(l, m)] = std::sqrt((4.0 * l * l - 1.0) /
                                    (static_cast<double>(l) * l - m * m));
        c.rb[tri(l, m)] = std::sqrt(
            (static_cast<double>(l - 1) * (l - 1) - m * m) /
            (4.0 * static_cast<double>(l - 1) * (l - 1) - 1.0));
      }
    }
    return c;
  }();
  return k;
}

}  // namespace

void real_ylm(const Vec3& u, int lmax, double* out) {
  SWRAMAN_REQUIRE(lmax >= 0 && lmax <= kYlmMaxDegree,
                  "real_ylm: lmax in [0, kYlmMaxDegree]");
  const YlmConstants& k = constants();

  const double r = u.norm();
  double c = 1.0;  // cos(theta)
  double s = 0.0;  // sin(theta)
  double cphi = 1.0;
  double sphi = 0.0;
  if (r > 0.0) {
    c = u.z / r;
    const double rho = std::hypot(u.x, u.y);
    s = rho / r;
    if (rho > 0.0) {
      cphi = u.x / rho;
      sphi = u.y / rho;
    }
  }

  // Fully normalized associated Legendre Q_l^m (no Condon-Shortley phase):
  //   Y_l0 = Q_l0, Y_l(+-m) = sqrt(2) Q_lm {cos,sin}(m phi).
  // Per m: Q_mm from Q_(m-1)(m-1), Q_(m+1)m from Q_mm, then upward in l,
  // which is stable for fixed m; cos(m phi), sin(m phi) by angle addition.
  // Each entry is computed by the same operations for any lmax >= l, so
  // lower-lmax results are bitwise prefixes of higher ones. The running
  // values stay in registers: no scratch.
  double qmm = k.q00;
  out[lm_index(0, 0)] = qmm;
  if (lmax > 0) {
    double q2 = qmm;
    double q1 = k.sub[0] * c * qmm;
    out[lm_index(1, 0)] = q1;
    for (int l = 2; l <= lmax; ++l) {
      const double q = k.ra[tri(l, 0)] * (c * q1 - k.rb[tri(l, 0)] * q2);
      out[lm_index(l, 0)] = q;
      q2 = q1;
      q1 = q;
    }
  }
  double cm = 1.0;  // cos(m phi)
  double sm = 0.0;  // sin(m phi)
  for (int m = 1; m <= lmax; ++m) {
    qmm = k.diag[m] * s * qmm;
    const double cn = cm * cphi - sm * sphi;
    sm = sm * cphi + cm * sphi;
    cm = cn;
    double t = k.sqrt2 * qmm;
    out[lm_index(m, m)] = t * cm;
    out[lm_index(m, -m)] = t * sm;
    if (m == lmax) break;
    double q2 = qmm;
    double q1 = k.sub[m] * c * qmm;
    t = k.sqrt2 * q1;
    out[lm_index(m + 1, m)] = t * cm;
    out[lm_index(m + 1, -m)] = t * sm;
    for (int l = m + 2; l <= lmax; ++l) {
      const double q = k.ra[tri(l, m)] * (c * q1 - k.rb[tri(l, m)] * q2);
      t = k.sqrt2 * q;
      out[lm_index(l, m)] = t * cm;
      out[lm_index(l, -m)] = t * sm;
      q2 = q1;
      q1 = q;
    }
  }
}

void real_ylm(const Vec3& u, int lmax, std::vector<double>& out) {
  out.resize(n_lm(lmax));
  real_ylm(u, lmax, out.data());
}

std::vector<double> real_ylm(const Vec3& u, int lmax) {
  std::vector<double> out;
  real_ylm(u, lmax, out);
  return out;
}

}  // namespace swraman::grid
