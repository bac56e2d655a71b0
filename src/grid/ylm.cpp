#include "grid/ylm.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace swraman::grid {

namespace {

// Flat index of (l, m), 0 <= m <= l, in the lower-triangular Legendre
// tables. It does not depend on lmax, so tables built for one lmax serve
// every smaller one.
constexpr std::size_t tri(int l, int m) {
  return static_cast<std::size_t>(l * (l + 1) / 2 + m);
}

// Fills the recurrence constants of real_ylm up to lmax, each computed by
// the same expression the recurrence used inline, so cached and uncached
// evaluation agree bitwise. A constant depends on (l, m) alone, never on
// the lmax of the call.
void build_constants(int lmax, YlmWorkspace& ws) {
  const std::size_t nl = static_cast<std::size_t>(lmax + 1);
  ws.diag.assign(nl, 0.0);
  ws.sub.assign(nl, 0.0);
  ws.ra.assign(tri(lmax + 1, 0), 0.0);
  ws.rb.assign(tri(lmax + 1, 0), 0.0);
  // Scratch sized once here, so evaluation never resizes it.
  ws.q.assign(tri(lmax + 1, 0), 0.0);
  ws.cm.assign(nl, 0.0);
  ws.sm.assign(nl, 0.0);
  for (int m = 1; m <= lmax; ++m) {
    ws.diag[m] = std::sqrt((2.0 * m + 1.0) / (2.0 * m));
  }
  for (int m = 0; m < lmax; ++m) ws.sub[m] = std::sqrt(2.0 * m + 3.0);
  for (int m = 0; m <= lmax; ++m) {
    for (int l = m + 2; l <= lmax; ++l) {
      ws.ra[tri(l, m)] =
          std::sqrt((4.0 * l * l - 1.0) / (static_cast<double>(l) * l - m * m));
      ws.rb[tri(l, m)] = std::sqrt(
          (static_cast<double>(l - 1) * (l - 1) - m * m) /
          (4.0 * static_cast<double>(l - 1) * (l - 1) - 1.0));
    }
  }
  ws.const_lmax = lmax;
}

}  // namespace

void real_ylm(const Vec3& u, int lmax, double* out, YlmWorkspace& ws) {
  SWRAMAN_REQUIRE(lmax >= 0, "real_ylm: lmax >= 0");
  if (ws.const_lmax < lmax) build_constants(lmax, ws);
  // Every entry of out (and every q entry the recurrences read) is written
  // below, so the scratch is never cleared.

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
  // Recurrences are stable upward in l for fixed m. Each entry is computed
  // by the same operations for any lmax >= l, so lower-lmax results are
  // bitwise prefixes of higher ones.
  double* q = ws.q.data();

  q[tri(0, 0)] = std::sqrt(1.0 / kFourPi);
  for (int m = 1; m <= lmax; ++m) {
    q[tri(m, m)] = ws.diag[m] * s * q[tri(m - 1, m - 1)];
  }
  for (int m = 0; m < lmax; ++m) {
    q[tri(m + 1, m)] = ws.sub[m] * c * q[tri(m, m)];
  }
  for (int m = 0; m <= lmax; ++m) {
    for (int l = m + 2; l <= lmax; ++l) {
      q[tri(l, m)] =
          ws.ra[tri(l, m)] *
          (c * q[tri(l - 1, m)] - ws.rb[tri(l, m)] * q[tri(l - 2, m)]);
    }
  }

  // Azimuthal factors cos(m phi), sin(m phi) by the angle-addition recurrence.
  double* cm = ws.cm.data();
  double* sm = ws.sm.data();
  cm[0] = 1.0;
  sm[0] = 0.0;
  for (int m = 1; m <= lmax; ++m) {
    cm[m] = cm[m - 1] * cphi - sm[m - 1] * sphi;
    sm[m] = sm[m - 1] * cphi + cm[m - 1] * sphi;
  }

  const double sqrt2 = std::sqrt(2.0);
  for (int l = 0; l <= lmax; ++l) {
    out[lm_index(l, 0)] = q[tri(l, 0)];
    for (int m = 1; m <= l; ++m) {
      const double qlm = q[tri(l, m)];
      out[lm_index(l, m)] = sqrt2 * qlm * cm[m];
      out[lm_index(l, -m)] = sqrt2 * qlm * sm[m];
    }
  }
}

void real_ylm(const Vec3& u, int lmax, std::vector<double>& out,
              YlmWorkspace& ws) {
  out.resize(n_lm(lmax));
  real_ylm(u, lmax, out.data(), ws);
}

void real_ylm(const Vec3& u, int lmax, std::vector<double>& out) {
  thread_local YlmWorkspace ws;
  real_ylm(u, lmax, out, ws);
}

std::vector<double> real_ylm(const Vec3& u, int lmax) {
  std::vector<double> out;
  real_ylm(u, lmax, out);
  return out;
}

}  // namespace swraman::grid
