#include "atomic/radial_solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

// Numerov shooting on the logarithmic mesh. The substitution
// u = sqrt(r) v(x), r = r0 e^{a x} turns the radial equation into
//
//   v''(x) = g(x) v(x),   g = 2 a^2 r^2 (V_eff - E) + a^2/4,
//
// with V_eff = V + l(l+1)/(2 r^2). Eigenvalues are found by bisection on
// the node count of the outward solution (Sturm oscillation theorem: the
// number of nodes in the classically allowed region equals the number of
// eigenvalues below E); eigenfunctions by gluing outward and inward
// integrations at the outermost classical turning point. This is far more
// robust than diagonalizing the discretized operator, whose ~1e15 dynamic
// range near the nucleus destroys absolute eigenvalue accuracy.

namespace swraman::atomic {

namespace {

struct Workspace {
  std::vector<double> g;       // Numerov coefficient at the trial energy
  std::vector<double> v_out;   // outward solution
  std::vector<double> v_in;    // inward solution
  std::vector<double> veff;    // V + centrifugal
};

// Fills w.g for energy e; returns the outermost classically allowed index.
std::size_t fill_g(const RadialMesh& mesh, Workspace& w, double e) {
  const std::size_t n = mesh.size();
  const double a = mesh.alpha();
  std::size_t turning = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = mesh.r(i);
    w.g[i] = 2.0 * a * a * r * r * (w.veff[i] - e) + 0.25 * a * a;
    if (w.veff[i] < e) turning = i;
  }
  return turning;
}

// Numerov outward integration up to index m inclusive; returns the node
// count in [0, m]. Renormalizes on overflow to keep values representable.
int integrate_outward(const RadialMesh& mesh, Workspace& w, int l,
                      std::size_t m) {
  const std::size_t n = mesh.size();
  SWRAMAN_ASSERT(m < n, "integrate_outward: match index");
  std::vector<double>& v = w.v_out;
  v.assign(n, 0.0);
  // Regular boundary: u ~ r^{l+1} -> v ~ r^{l+1/2}.
  v[0] = std::pow(mesh.r(0), l + 0.5);
  v[1] = std::pow(mesh.r(1), l + 0.5);

  int nodes = 0;
  const auto numerov_f = [&w](std::size_t i) { return 1.0 - w.g[i] / 12.0; };
  for (std::size_t i = 1; i < m; ++i) {
    const double num =
        (2.0 + 10.0 * w.g[i] / 12.0 * 1.0) * v[i] - numerov_f(i - 1) * v[i - 1];
    double denom = numerov_f(i + 1);
    if (std::abs(denom) < 1e-8) denom = (denom >= 0 ? 1e-8 : -1e-8);
    v[i + 1] = num / denom;
    if (v[i + 1] * v[i] < 0.0) ++nodes;
    const double mag = std::abs(v[i + 1]);
    if (mag > 1e100) {
      for (std::size_t k = 0; k <= i + 1; ++k) v[k] *= 1e-100;
    }
  }
  return nodes;
}

// Numerov inward integration from the decay onset down to index m.
void integrate_inward(const RadialMesh& mesh, Workspace& w, std::size_t m) {
  const std::size_t n = mesh.size();
  std::vector<double>& v = w.v_in;
  v.assign(n, 0.0);

  // Start where the forbidden region is still Numerov-stable (g < 4);
  // beyond that the state is exponentially negligible and left at zero.
  std::size_t start = n - 1;
  while (start > m + 2 && w.g[start] >= 4.0) --start;
  if (start <= m + 2) start = std::min(n - 1, m + 3);

  v[start] = 1e-30;
  if (start >= 1) v[start - 1] = 1e-30 * std::exp(std::sqrt(std::max(w.g[start], 0.0)));

  const auto numerov_f = [&w](std::size_t i) { return 1.0 - w.g[i] / 12.0; };
  for (std::size_t i = start - 1; i > m; --i) {
    const double num =
        (2.0 + 10.0 * w.g[i] / 12.0) * v[i] - numerov_f(i + 1) * v[i + 1];
    double denom = numerov_f(i - 1);
    if (std::abs(denom) < 1e-8) denom = (denom >= 0 ? 1e-8 : -1e-8);
    v[i - 1] = num / denom;
    const double mag = std::abs(v[i - 1]);
    if (mag > 1e100) {
      for (std::size_t k = i - 1; k <= start; ++k) v[k] *= 1e-100;
    }
  }
}

int count_nodes_of(const std::vector<double>& u) {
  double umax = 0.0;
  for (double x : u) umax = std::max(umax, std::abs(x));
  const double floor = 1e-7 * umax;
  int nodes = 0;
  double prev = 0.0;
  for (double x : u) {
    if (std::abs(x) < floor) continue;
    if (prev != 0.0 && x * prev < 0.0) ++nodes;
    prev = x;
  }
  return nodes;
}

}  // namespace

std::vector<RadialState> solve_radial(const RadialMesh& mesh,
                                      const std::vector<double>& v, int l,
                                      std::size_t n_states) {
  const std::size_t n = mesh.size();
  SWRAMAN_REQUIRE(v.size() == n, "solve_radial: potential size mismatch");
  SWRAMAN_REQUIRE(l >= 0, "solve_radial: l >= 0");
  SWRAMAN_REQUIRE(n_states >= 1 && n_states + 2 < n,
                  "solve_radial: state count out of range");

  Workspace w;
  w.g.resize(n);
  w.veff.resize(n);
  const double ll = 0.5 * static_cast<double>(l) * (l + 1);
  for (std::size_t i = 0; i < n; ++i) {
    w.veff[i] = v[i] + ll / (mesh.r(i) * mesh.r(i));
  }

  // Node count of the outward solution integrated through the allowed
  // region and the Numerov-stable part of the forbidden tail (g < 4). By
  // the Sturm oscillation theorem this counts the eigenvalues below e; the
  // divergent tail flips sign exactly at each eigenvalue, so the count
  // includes the crossing the bisection homes in on.
  const auto node_count = [&](double e) -> int {
    const std::size_t turning = fill_g(mesh, w, e);
    if (turning < 4) return 0;  // no allowed region: below the spectrum
    std::size_t stable = n - 1;
    while (stable > turning + 2 && w.g[stable] >= 4.0) --stable;
    return integrate_outward(mesh, w, l, std::min(stable, n - 2));
  };

  const double vmin =
      *std::min_element(w.veff.begin() + 1, w.veff.end());

  std::vector<RadialState> states;
  states.reserve(n_states);
  for (std::size_t k = 0; k < n_states; ++k) {
    // Bracket the k-th eigenvalue: N(elo) <= k < N(ehi).
    double elo = vmin - 1.0;
    double ehi = 1.0;
    int guard = 0;
    while (node_count(ehi) < static_cast<int>(k + 1)) {
      ehi = ehi * 2.0 + 10.0;
      SWRAMAN_REQUIRE(++guard < 60, "solve_radial: cannot bracket state");
    }

    // Bisection on the node-count step; converges to the eigenvalue.
    for (int iter = 0; iter < 200; ++iter) {
      const double emid = 0.5 * (elo + ehi);
      if (node_count(emid) >= static_cast<int>(k + 1)) {
        ehi = emid;
      } else {
        elo = emid;
      }
      if (ehi - elo < 1e-12 * (1.0 + std::abs(emid))) break;
    }
    const double e = 0.5 * (elo + ehi);

    // Eigenfunction: outward to the turning point, inward beyond, glued.
    const std::size_t turning = fill_g(mesh, w, e);
    const std::size_t m = std::max<std::size_t>(
        4, std::min(turning, n - 6));
    integrate_outward(mesh, w, l, m);
    integrate_inward(mesh, w, m);

    std::vector<double> vv(n, 0.0);
    for (std::size_t i = 0; i <= m; ++i) vv[i] = w.v_out[i];
    const double vm_out = w.v_out[m];
    const double vm_in = w.v_in[m] != 0.0 ? w.v_in[m]
                                          : (w.v_in[m + 1] != 0.0 ? w.v_in[m + 1]
                                                                  : 1.0);
    const double scale = (w.v_in[m] != 0.0 && vm_out != 0.0)
                             ? vm_out / vm_in
                             : 0.0;
    for (std::size_t i = m + 1; i < n; ++i) vv[i] = scale * w.v_in[i];

    RadialState st;
    st.l = l;
    st.energy = e;
    st.u.resize(n);
    for (std::size_t i = 0; i < n; ++i) st.u[i] = vv[i] * std::sqrt(mesh.r(i));

    // Normalize integral u^2 dr = 1.
    std::vector<double> u2(n);
    for (std::size_t i = 0; i < n; ++i) u2[i] = st.u[i] * st.u[i];
    const double norm = std::sqrt(mesh.integrate(u2));
    SWRAMAN_REQUIRE(norm > 0.0, "solve_radial: zero-norm state");
    // Sign convention: positive at the first significant rise.
    double sign = 1.0;
    double umax = 0.0;
    for (double x : st.u) umax = std::max(umax, std::abs(x));
    for (double x : st.u) {
      if (std::abs(x) > 0.1 * umax) {
        sign = x > 0.0 ? 1.0 : -1.0;
        break;
      }
    }
    for (double& x : st.u) x *= sign / norm;
    st.node_count = count_nodes_of(st.u);
    states.push_back(std::move(st));
  }
  return states;
}

}  // namespace swraman::atomic
