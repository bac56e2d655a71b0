#include "hartree/multipole.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/spline.hpp"
#include "grid/ylm.hpp"
#include "obs/obs.hpp"

namespace swraman::hartree {

MultipoleSolver::MultipoleSolver(const grid::MolecularGrid& grid, int lmax)
    : grid_(grid), lmax_(lmax) {
  SWRAMAN_REQUIRE(lmax >= 0, "MultipoleSolver: lmax >= 0");
  SWRAMAN_REQUIRE(!grid.shells.empty(),
                  "MultipoleSolver: grid lacks shell structure");
  n_lm_ = grid::n_lm(lmax_);

  radial_.resize(grid_.atoms.size());
  for (std::size_t s = 0; s < grid_.shells.size(); ++s) {
    AtomRadial& ar = radial_[static_cast<std::size_t>(grid_.shells[s].atom)];
    ar.shells.push_back(s);
    ar.l_res = std::max(ar.l_res, grid_.shells[s].angular_order / 2);
  }
  int l_res_max = -1;
  for (AtomRadial& ar : radial_) {
    if (ar.shells.empty()) continue;
    std::sort(ar.shells.begin(), ar.shells.end(),
              [this](std::size_t a, std::size_t b) {
                return grid_.shells[a].radius < grid_.shells[b].radius;
              });
    const std::size_t ns = ar.shells.size();
    SWRAMAN_REQUIRE(ns >= 2, "MultipoleSolver: an atom needs >= 2 shells");
    ar.l_res = std::min(ar.l_res, lmax_);
    l_res_max = std::max(l_res_max, ar.l_res);
    n_channels_ += grid::n_lm(ar.l_res);
    ar.radii.resize(ns);
    for (std::size_t si = 0; si < ns; ++si) {
      ar.radii[si] = grid_.shells[ar.shells[si]].radius;
    }
    ar.spline = NaturalSplineKnots(ar.radii);
    const std::size_t nl = static_cast<std::size_t>(ar.l_res + 1);
    ar.pow_lt.resize(nl * ns);
    ar.pow_gt.resize(nl * ns);
    ar.pow_in.resize(nl * ns);
    ar.pow_out.resize(nl * ns);
    ar.pow_inner.resize(nl);
    for (int l = 0; l <= ar.l_res; ++l) {
      const std::size_t row = static_cast<std::size_t>(l) * ns;
      for (std::size_t si = 0; si < ns; ++si) {
        const double r = ar.radii[si];
        ar.pow_lt[row + si] = std::pow(r, l + 2);
        ar.pow_gt[row + si] = std::pow(r, 1 - l);
        ar.pow_in[row + si] = std::pow(r, l + 1);
        ar.pow_out[row + si] = std::pow(r, l);
      }
      ar.pow_inner[static_cast<std::size_t>(l)] = std::pow(ar.radii[0], l + 3);
    }
  }

  // Precompute Y_lm(u) for every point relative to its owning atom, up to
  // the highest channel any shell projects onto.
  ylm_stride_ = grid::n_lm(l_res_max);
  ylm_.resize(grid_.size() * ylm_stride_);
  std::vector<double> y;
  grid::YlmWorkspace ylm_ws;
  for (std::size_t p = 0; p < grid_.size(); ++p) {
    const int a = grid_.owner_atom[p];
    const Vec3 u = grid_.points[p] - grid_.atoms[static_cast<std::size_t>(a)].pos;
    grid::real_ylm(u, l_res_max, y, ylm_ws);
    std::copy(y.begin(), y.end(),
              ylm_.begin() + static_cast<long>(p * ylm_stride_));
  }
}

MultipolePotential MultipoleSolver::solve(
    const std::vector<double>& density) const {
  SWRAMAN_REQUIRE(density.size() == grid_.size(),
                  "MultipoleSolver::solve: density size mismatch");
  SWRAMAN_TRACE_SPAN(span, "hartree.multipole");
  const std::size_t n_atoms = grid_.atoms.size();
  if (span.active()) {
    span.attr("atoms", static_cast<double>(n_atoms));
    span.attr("lmax", static_cast<double>(lmax_));
    span.attr("channels", static_cast<double>(n_channels_));
  }

  MultipolePotential pot;
  pot.lmax_ = lmax_;
  pot.l_res_.resize(n_atoms);
  pot.centers_.resize(n_atoms);
  pot.outer_radius_.assign(n_atoms, 0.0);
  pot.tables_.resize(n_atoms);
  pot.moments_.assign(n_atoms, std::vector<double>(n_lm_, 0.0));

  // Radial scratch shared by every atom and channel of this solve.
  std::vector<double> rho;     // projected density, [lm * ns + s]
  std::vector<double> rho_ch;  // one channel above its noise floor
  std::vector<double> f_lt, f_gt, ilt, igt, v_r, y2;

  for (std::size_t a = 0; a < n_atoms; ++a) {
    const AtomRadial& ar = radial_[a];
    pot.centers_[a] = grid_.atoms[a].pos;
    pot.l_res_[a] = ar.l_res;
    if (ar.shells.empty()) continue;
    const std::size_t ns = ar.shells.size();
    const std::size_t n_live = grid::n_lm(ar.l_res);

    // Project the partitioned density onto Y_lm on each shell.
    rho.assign(n_live * ns, 0.0);
    for (std::size_t si = 0; si < ns; ++si) {
      const grid::ShellInfo& sh = grid_.shells[ar.shells[si]];
      // A shell's angular rule resolves the Y_l * Y_l product only up to
      // l = order/2; projecting beyond that aliases order-one garbage into
      // the channel (pruned inner shells have low-order rules). Density is
      // nearly spherical there, so truncating is the physical choice.
      const std::size_t lm_cap =
          std::min(n_live, grid::n_lm(sh.angular_order / 2));
      for (std::size_t k = 0; k < sh.n_points; ++k) {
        const std::size_t p = sh.first_point + k;
        const double f =
            grid_.angular_weight[p] * grid_.partition[p] * density[p];
        if (f == 0.0) continue;
        const double* y = &ylm_[p * ylm_stride_];
        for (std::size_t lm = 0; lm < lm_cap; ++lm) {
          rho[lm * ns + si] += f * y[lm];
        }
      }
    }

    pot.outer_radius_[a] = ar.radii.back();
    MultipolePotential::RadialTable& table = pot.tables_[a];
    table.knots = ar.radii;
    // Channels above l_res keep their zero columns and moments.
    table.values.assign(ns * n_lm_, 0.0);
    table.second.assign(ns * n_lm_, 0.0);

    // Radial Green's-function integrals per lm channel, exact spline
    // integration over the shell radii (+ analytic inner-sphere term).
    for (std::vector<double>* v : {&rho_ch, &f_lt, &f_gt, &ilt, &igt, &v_r,
                                   &y2}) {
      v->resize(ns);
    }
    for (int l = 0; l <= ar.l_res; ++l) {
      const std::size_t row = static_cast<std::size_t>(l) * ns;
      const double* pow_lt = &ar.pow_lt[row];
      const double* pow_gt = &ar.pow_gt[row];
      const double* pow_in = &ar.pow_in[row];
      const double* pow_out = &ar.pow_out[row];
      const double pref = kFourPi / (2.0 * l + 1.0);
      for (int m = -l; m <= l; ++m) {
        const std::size_t lm = grid::lm_index(l, m);
        // Physical channels vanish like s^l at the nucleus; angular
        // quadrature roundoff does not, and the s^{1-l} Green's-function
        // factor would amplify it catastrophically. Zero everything below
        // the channel's noise floor.
        double chmax = 0.0;
        for (std::size_t s = 0; s < ns; ++s) {
          chmax = std::max(chmax, std::abs(rho[lm * ns + s]));
        }
        for (std::size_t s = 0; s < ns; ++s) {
          const double v = rho[lm * ns + s];
          rho_ch[s] = (std::abs(v) < 1e-10 * chmax) ? 0.0 : v;
        }
        const double* rl = rho_ch.data();

        // I<(r_k) = integral_0^{r_k} rho s^{l+2} ds: spline integration of
        // the tabulated integrand plus the analytic inner-sphere term
        // (rho ~ const below the first shell).
        for (std::size_t s = 0; s < ns; ++s) {
          f_lt[s] = rl[s] * pow_lt[s];
          f_gt[s] = rl[s] * pow_gt[s];
        }
        ar.spline.second_derivatives(f_lt.data(), y2.data());
        ar.spline.cumulative(f_lt.data(), y2.data(), ilt.data());
        const double inner = rl[0] * ar.pow_inner[static_cast<std::size_t>(l)] /
                             static_cast<double>(l + 3);
        for (double& v : ilt) v += inner;
        // I>(r_k) = integral_{r_k}^{rmax} rho s^{1-l} ds.
        ar.spline.second_derivatives(f_gt.data(), y2.data());
        ar.spline.cumulative(f_gt.data(), y2.data(), igt.data());
        const double igt_total = igt.back();
        for (double& v : igt) v = igt_total - v;

        for (std::size_t s = 0; s < ns; ++s) {
          v_r[s] = pref * (ilt[s] / pow_in[s] + igt[s] * pow_out[s]);
        }
        pot.moments_[a][lm] = ilt[ns - 1];
        ar.spline.second_derivatives(v_r.data(), y2.data());
        for (std::size_t s = 0; s < ns; ++s) {
          table.values[s * n_lm_ + lm] = v_r[s];
          table.second[s * n_lm_ + lm] = y2[s];
        }
      }
    }
  }
  return pot;
}

void MultipoleSolver::build_plan() const {
  const std::size_t n_atoms = radial_.size();
  // Pair records in evaluation order, sized before filling so the plan
  // never over-allocates: near pairs carry SplineWeights, far pairs one
  // prefactor per l, both followed by Y_lm up to l_res.
  auto pair_doubles = [&](std::size_t p, std::size_t a) -> std::size_t {
    const AtomRadial& ar = radial_[a];
    if (ar.shells.empty()) return 0;
    const double r = std::max((grid_.points[p] - grid_.atoms[a].pos).norm(),
                              1e-8);
    const std::size_t head = r <= ar.radii.back()
                                 ? 5
                                 : static_cast<std::size_t>(ar.l_res + 1);
    return head + grid::n_lm(ar.l_res);
  };
  const std::size_t point_ints = n_atoms * sizeof(std::uint32_t);
  std::size_t n_points = 0;
  std::size_t n_coef = 0;
  for (; n_points < grid_.size(); ++n_points) {
    std::size_t d = 0;
    for (std::size_t a = 0; a < n_atoms; ++a) d += pair_doubles(n_points, a);
    const std::size_t bytes = (n_points + 1) * point_ints +
                              (n_coef + d) * sizeof(double);
    if (bytes > kPlanByteCap) break;
    n_coef += d;
  }

  plan_.n_points = n_points;
  plan_.interval.resize(n_points * n_atoms);
  plan_.coef.resize(n_coef);
  std::uint32_t* iv = plan_.interval.data();
  double* c = plan_.coef.data();
  std::vector<double> y;
  grid::YlmWorkspace ylm_ws;
  for (std::size_t p = 0; p < n_points; ++p) {
    for (std::size_t a = 0; a < n_atoms; ++a, ++iv) {
      const AtomRadial& ar = radial_[a];
      if (ar.shells.empty()) continue;
      // The expressions of MultipolePotential::accumulate_atom.
      const Vec3 d = grid_.points[p] - grid_.atoms[a].pos;
      const double r = std::max(d.norm(), 1e-8);
      if (r <= ar.radii.back()) {
        const std::size_t i = spline_interval(ar.radii, r);
        const SplineWeights w = spline_weights(ar.radii, i, r);
        *iv = static_cast<std::uint32_t>(i);
        *c++ = w.a;
        *c++ = w.b;
        *c++ = w.a3;
        *c++ = w.b3;
        *c++ = w.h2;
      } else {
        *iv = Plan::kFarPair;
        double rpow = r;  // r^{l+1}
        for (int l = 0; l <= ar.l_res; ++l) {
          *c++ = kFourPi / (2.0 * l + 1.0) / rpow;
          rpow *= r;
        }
      }
      grid::real_ylm(d, ar.l_res, y, ylm_ws);
      c = std::copy(y.begin(), y.end(), c);
    }
  }
  plan_built_.store(true, std::memory_order_release);
}

std::size_t MultipoleSolver::planned_points() const {
  return plan_built_.load(std::memory_order_acquire) ? plan_.n_points : 0;
}

std::size_t MultipoleSolver::plan_bytes() const {
  if (!plan_built_.load(std::memory_order_acquire)) return 0;
  return plan_.interval.size() * sizeof(std::uint32_t) +
         plan_.coef.size() * sizeof(double);
}

std::vector<double> MultipoleSolver::evaluate_on_grid(
    const MultipolePotential& pot) const {
  const std::size_t n_atoms = radial_.size();
  SWRAMAN_REQUIRE(pot.n_atoms() == n_atoms && pot.lmax() == lmax_,
                  "MultipoleSolver::evaluate_on_grid: foreign potential");
  // plan_ is read only after call_once, which orders it after the build.
  std::size_t n_planned = 0;
  const std::uint32_t* iv = nullptr;
  const double* c = nullptr;
  if (plan_requested_.load(std::memory_order_acquire)) {
    std::call_once(plan_once_, [this] { build_plan(); });
    n_planned = plan_.n_points;
    iv = plan_.interval.data();
    c = plan_.coef.data();
  }

  // Planned points: accumulate_atom's running sum over the cached values.
  std::vector<double> v(grid_.size());
  for (std::size_t p = 0; p < n_planned; ++p) {
    double acc = 0.0;
    for (std::size_t a = 0; a < n_atoms; ++a, ++iv) {
      const AtomRadial& ar = radial_[a];
      if (ar.shells.empty()) continue;
      const std::size_t n_live = grid::n_lm(ar.l_res);
      const bool near = *iv != Plan::kFarPair;
      const double* y = c + (near ? 5 : ar.l_res + 1);
      if (near) {
        const MultipolePotential::RadialTable& t = pot.tables_[a];
        const SplineWeights w{c[0], c[1], c[2], c[3], c[4]};
        const double* f0 = &t.values[*iv * n_lm_];
        const double* f1 = f0 + n_lm_;
        const double* m0 = &t.second[*iv * n_lm_];
        const double* m1 = m0 + n_lm_;
        for (std::size_t lm = 0; lm < n_live; ++lm) {
          acc += spline_combine(w, f0[lm], f1[lm], m0[lm], m1[lm]) * y[lm];
        }
      } else {
        const double* q = pot.moments_[a].data();
        std::size_t lm = 0;
        for (int l = 0; l <= ar.l_res; ++l) {
          for (int m = -l; m <= l; ++m, ++lm) {
            acc += c[l] * q[lm] * y[lm];
          }
        }
      }
      c = y + n_live;
    }
    v[p] = acc;
  }
  for (std::size_t p = n_planned; p < grid_.size(); ++p) {
    v[p] = pot.value(grid_.points[p]);
  }
  return v;
}

std::vector<double> MultipoleSolver::solve_on_grid(
    const std::vector<double>& density) const {
  SWRAMAN_TRACE_SPAN(span, "hartree.poisson");
  std::vector<double> v = evaluate_on_grid(solve(density));
  if (span.active()) {
    span.attr("planned_points", static_cast<double>(planned_points()));
    span.attr("plan_bytes", static_cast<double>(plan_bytes()));
  }
  return v;
}

double MultipolePotential::value(const Vec3& point) const {
  // Thread-local scratch: the Y_lm basis buffer survives across calls, so
  // the per-grid-point evaluation loop performs no heap allocation (pinned
  // by Multipole.ValueDoesNotAllocatePerPoint).
  thread_local Workspace ws;
  return value(point, ws);
}

double MultipolePotential::value(const Vec3& point, Workspace& ws) const {
  // Terms accumulate into one running sum in atom order — the exact
  // floating-point chain of the original implementation, so Direct-backend
  // results are bitwise stable across the workspace refactor.
  double v = 0.0;
  for (std::size_t a = 0; a < centers_.size(); ++a) {
    accumulate_atom(a, point, ws, v);
  }
  return v;
}

double MultipolePotential::value_atom(std::size_t atom, const Vec3& point,
                                      Workspace& ws) const {
  double v = 0.0;
  accumulate_atom(atom, point, ws, v);
  return v;
}

void MultipolePotential::accumulate_atom(std::size_t atom, const Vec3& point,
                                         Workspace& ws, double& v) const {
  const RadialTable& t = tables_[atom];
  if (t.knots.empty()) return;
  // Channels above l_res are zero (see the header comment): stopping there
  // drops only +-0.0 terms.
  const int l_res = l_res_[atom];
  const std::size_t n_lm = grid::n_lm(lmax_);  // table row stride
  const std::size_t n_live = grid::n_lm(l_res);
  const Vec3 d = point - centers_[atom];
  const double r = std::max(d.norm(), 1e-8);
  grid::real_ylm(d, l_res, ws.ylm, ws.ylm_scratch);
  const double* y = ws.ylm.data();
  if (r <= outer_radius_[atom]) {
    // One interval search and one set of interval weights for all
    // channels, then per channel the CubicSpline::value expression: each
    // channel value is bitwise that of a per-channel spline.
    const std::size_t i = spline_interval(t.knots, r);
    const SplineWeights w = spline_weights(t.knots, i, r);
    const double* f0 = &t.values[i * n_lm];
    const double* f1 = &t.values[(i + 1) * n_lm];
    const double* m0 = &t.second[i * n_lm];
    const double* m1 = &t.second[(i + 1) * n_lm];
    for (std::size_t lm = 0; lm < n_live; ++lm) {
      v += spline_combine(w, f0[lm], f1[lm], m0[lm], m1[lm]) * y[lm];
    }
  } else {
    // Analytic multipole far field.
    double rpow = r;  // r^{l+1}
    std::size_t lm = 0;
    for (int l = 0; l <= l_res; ++l) {
      const double pref = kFourPi / (2.0 * l + 1.0) / rpow;
      for (int m = -l; m <= l; ++m, ++lm) {
        v += pref * moments_[atom][lm] * y[lm];
      }
      rpow *= r;
    }
  }
}

double MultipolePotential::total_charge() const {
  double q = 0.0;
  for (const std::vector<double>& m : moments_) {
    if (!m.empty()) q += m[0] * std::sqrt(kFourPi);
  }
  return q;
}

double MultipolePotential::moment(std::size_t atom, std::size_t lm) const {
  SWRAMAN_REQUIRE(atom < moments_.size() && lm < moments_[atom].size(),
                  "MultipolePotential::moment: index");
  return moments_[atom][lm];
}

}  // namespace swraman::hartree
