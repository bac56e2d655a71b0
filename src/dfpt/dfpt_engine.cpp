#include "dfpt/dfpt_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "linalg/diis.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"

namespace swraman::dfpt {

namespace {

// DIIS history of one axis. P1 = W C_occ^T + C_occ W^T is exactly
// symmetric, and so is every mix of such matrices, so the history keeps
// upper triangles (row-major): half the memory of full matrices, which
// counts with three axes' histories alive at once. Every sum runs over
// the full index space in row-major order and reads entry (a, b) from the
// triangle, so each value is bitwise the full-matrix one.
class DiisHistory {
 public:
  explicit DiisHistory(std::size_t n) : n_(n) {}

  // Appends the step p1_new from p1 (residual p1_new - p1), dropping the
  // oldest entry beyond `depth`.
  void push(const linalg::Matrix& p1_new, const linalg::Matrix& p1,
            int depth) {
    std::vector<double> p(n_ * (n_ + 1) / 2);
    std::vector<double> r(p.size());
    std::size_t k = 0;
    for (std::size_t a = 0; a < n_; ++a) {
      for (std::size_t b = a; b < n_; ++b, ++k) {
        p[k] = p1_new(a, b);
        r[k] = p1_new(a, b) - p1(a, b);
      }
    }
    // <r_i, r_new> = Tr(r_i r_new^T); the products commute, so the one
    // value serves both (i, new) and (new, i).
    std::vector<double> row;
    for (const std::vector<double>& ri : r_) row.push_back(dot(ri, r));
    row.push_back(dot(r, r));
    p_.push_back(std::move(p));
    r_.push_back(std::move(r));
    gram_.push(std::move(row));
    if (static_cast<int>(p_.size()) > depth) {
      p_.pop_front();
      r_.pop_front();
      gram_.pop_front();
    }
  }

  // The DIIS extrapolation sum_i c_i p_i into *out; false (and *out
  // untouched) with fewer than two entries or a singular system.
  bool extrapolate(linalg::Matrix* out) const {
    const std::vector<double> coef = gram_.coefficients();
    if (coef.empty()) return false;
    std::vector<double> mix(p_[0].size(), 0.0);
    for (std::size_t i = 0; i < p_.size(); ++i) {
      for (std::size_t k = 0; k < mix.size(); ++k) mix[k] += p_[i][k] * coef[i];
    }
    linalg::Matrix full(n_, n_);
    std::size_t k = 0;
    for (std::size_t a = 0; a < n_; ++a) {
      for (std::size_t b = a; b < n_; ++b, ++k) {
        full(a, b) = mix[k];
        full(b, a) = mix[k];
      }
    }
    *out = std::move(full);
    return true;
  }

 private:
  // Upper-triangle offset of (a, b), a <= b.
  [[nodiscard]] std::size_t at(std::size_t a, std::size_t b) const {
    if (a > b) std::swap(a, b);
    return a * (2 * n_ - a + 1) / 2 + (b - a);
  }
  // Tr(x y^T) of the full matrices, summed in row-major order.
  [[nodiscard]] double dot(const std::vector<double>& x,
                           const std::vector<double>& y) const {
    double s = 0.0;
    for (std::size_t a = 0; a < n_; ++a) {
      for (std::size_t b = 0; b < n_; ++b) {
        const std::size_t k = at(a, b);
        s += x[k] * y[k];
      }
    }
    return s;
  }

  std::size_t n_;
  std::deque<std::vector<double>> p_;
  std::deque<std::vector<double>> r_;
  linalg::DiisGram gram_;
};

// One axis of the lockstep loop: the state of its current recovery
// attempt.
struct Axis {
  int axis = 0;
  int attempt = 1;
  double mixing = 0.0;
  ResponseResult res;
  linalg::Matrix h1;  // response Hamiltonian of the next iteration
  DiisHistory diis{0};
  bool done = false;
};

}  // namespace

DfptEngine::DfptEngine(const scf::ScfEngine& scf,
                       const scf::GroundState& ground_state,
                       DfptOptions options)
    : scf_(scf), gs_(ground_state), options_(options) {
  SWRAMAN_REQUIRE(gs_.converged, "DfptEngine: ground state not converged");
  // Pipelined setup: axis k's cross-rank reduction runs while axis k+1's
  // local integration executes, and the ground-state density reduction
  // overlaps all three dipole waits.
  std::function<void()> wait_dipole[3];
  for (int axis = 0; axis < 3; ++axis) {
    wait_dipole[axis] = scf_.dipole_matrix_async(
        axis, &dipole_[static_cast<std::size_t>(axis)]);
  }
  std::vector<double> n;
  const std::function<void()> wait_n =
      scf_.density_on_grid_async(gs_.density, &n);
  for (auto& wait : wait_dipole) wait();
  wait_n();
  // XC response kernel at the ground-state density.
  fxc_.resize(n.size());
  for (std::size_t p = 0; p < n.size(); ++p) {
    fxc_[p] = xc::kernel(scf_.options().functional, n[p]);
  }
}

ResponseResult DfptEngine::solve_response(int axis) {
  SWRAMAN_REQUIRE(axis >= 0 && axis < 3, "solve_response: axis in [0,3)");
  return solve_lockstep({axis}, options_.frequency)[0];
}

std::vector<ResponseResult> DfptEngine::solve_lockstep(
    const std::vector<int>& axes, double omega) {
  SWRAMAN_TRACE_SPAN(span, "dfpt.response");
  obs::count("dfpt.response.solves", static_cast<double>(axes.size()));
  if (span.active()) span.attr("axes", static_cast<double>(axes.size()));
  const int attempts = std::max(1, options_.recovery_attempts);
  const std::size_t nbf = scf_.basis().size();
  const linalg::Matrix& c = gs_.coefficients;
  const std::size_t nmo = gs_.eigenvalues.size();

  // Occupied / virtual partition from the smeared occupations. States in
  // the smearing tail are treated as fully occupied or empty; the smearing
  // is small enough for gapped systems.
  std::vector<std::size_t> occ;
  std::vector<std::size_t> vir;
  for (std::size_t j = 0; j < nmo; ++j) {
    if (gs_.occupations[j] > 1.0) {
      occ.push_back(j);
    } else if (gs_.occupations[j] < 1e-6) {
      vir.push_back(j);
    }
  }
  SWRAMAN_REQUIRE(!occ.empty(), "solve_response: no occupied states");
  SWRAMAN_REQUIRE(!vir.empty(), "solve_response: no virtual states");

  // Occupied/virtual coefficient blocks are iteration-invariant.
  linalg::Matrix c_vir(nbf, vir.size());
  for (std::size_t a = 0; a < vir.size(); ++a) {
    for (std::size_t mu = 0; mu < nbf; ++mu) {
      c_vir(mu, a) = c(mu, vir[a]);
    }
  }
  linalg::Matrix c_occ(nbf, occ.size());
  for (std::size_t i = 0; i < occ.size(); ++i) {
    for (std::size_t mu = 0; mu < nbf; ++mu) {
      c_occ(mu, i) = c(mu, occ[i]);
    }
  }

  // (Re)starts an axis at iteration 0 of its current attempt: zero P1,
  // bare perturbation, empty DIIS history.
  auto start = [&](Axis& ax) {
    ax.mixing = options_.mixing / static_cast<double>(1 << (ax.attempt - 1));
    ax.res = ResponseResult{};
    ax.res.p1 = linalg::Matrix(nbf, nbf);
    ax.h1 = dipole_[static_cast<std::size_t>(ax.axis)];
    ax.diis = DiisHistory(nbf);
  };
  std::vector<Axis> state(axes.size());
  for (std::size_t k = 0; k < axes.size(); ++k) {
    SWRAMAN_REQUIRE(axes[k] >= 0 && axes[k] < 3,
                    "solve_response: axis in [0,3)");
    state[k].axis = axes[k];
    start(state[k]);
  }

  Timer timer;
  std::vector<Axis*> field;  // axes that need a new response Hamiltonian
  std::vector<std::vector<double>> n1;
  auto running = [&state] {
    return std::any_of(state.begin(), state.end(),
                       [](const Axis& ax) { return !ax.done; });
  };
  while (running()) {
    SWRAMAN_TRACE_SPAN(iter_span, "dfpt.iter");
    double dp_max = 0.0;
    field.clear();
    for (Axis& ax : state) {
      if (ax.done) continue;
      ResponseResult& res = ax.res;
      const int iter = ++res.iterations;
      ++times_.cycles;
      obs::count("dfpt.iterations");

      // --- Sternheimer / CPKS update in matrix form:
      //   U_ai = f_i G_ai / (eps_i - eps_a),  W = C_vir U,
      //   P1 = W C_occ^T + C_occ W^T.
      timer.reset();
      linalg::Matrix p1_new;
      {
        SWRAMAN_TRACE_SCOPE("dfpt.sternheimer");
        const linalg::Matrix g = linalg::at_b(c, ax.h1 * c);
        linalg::Matrix u(vir.size(), occ.size());
        for (std::size_t a = 0; a < vir.size(); ++a) {
          for (std::size_t i = 0; i < occ.size(); ++i) {
            const double delta =
                gs_.eigenvalues[occ[i]] - gs_.eigenvalues[vir[a]];
            // Static: 1/delta. Dynamic: delta/(delta^2 - omega^2), the
            // symmetric (cos wt) response amplitude of real orbitals.
            const double denom2 = delta * delta - omega * omega;
            if (std::abs(delta) < 1e-8 || std::abs(denom2) < 1e-10) continue;
            u(a, i) =
                g(vir[a], occ[i]) * delta / denom2 * gs_.occupations[occ[i]];
          }
        }
        const linalg::Matrix w = c_vir * u;
        p1_new = linalg::a_bt(w, c_occ);
        p1_new += p1_new.transposed();
      }
      times_.sternheimer += timer.seconds();

      if (fault::should_fire(fault::kDfptDiverge)) {
        log::warn("fault ", fault::kDfptDiverge,
                  ": poisoning response density at axis ", ax.axis, " iter ",
                  iter);
        p1_new(0, 0) = std::numeric_limits<double>::quiet_NaN();
      }

      const double dp = (p1_new - res.p1).max_abs();
      if (iter_span.active()) {
        dp_max = std::max(dp_max, dp);
        obs::observe("dfpt.sternheimer.residual", dp);
      }
      if (!std::isfinite(dp)) {
        log::warn("dfpt: non-finite response step at axis ", ax.axis,
                  " iter ", iter, " — aborting cycle for recovery");
        obs::count("dfpt.recoveries");
        if (ax.attempt >= attempts) {
          throw ConvergenceError("DfptEngine::solve_response: axis " +
                                 std::to_string(ax.axis) + " diverged in all " +
                                 std::to_string(attempts) +
                                 " recovery attempts");
        }
        log::warn("dfpt.recovery: axis ", ax.axis,
                  " response diverged (attempt ", ax.attempt, "/", attempts,
                  ") — halving mixing to ",
                  options_.mixing / static_cast<double>(1 << ax.attempt),
                  ", flushing DIIS history, restarting cycle");
        ++ax.attempt;
        start(ax);
        continue;
      }

      // DIIS on the response density matrix, linear mixing until it has
      // two entries.
      ax.diis.push(p1_new, res.p1, options_.diis_depth);
      if (!ax.diis.extrapolate(&res.p1)) {
        linalg::Matrix mix = res.p1;
        mix *= (1.0 - ax.mixing);
        linalg::Matrix add = p1_new;
        add *= ax.mixing;
        mix += add;
        res.p1 = std::move(mix);
      }

      log::debug("DFPT axis ", ax.axis, " iter ", iter, ": dP1 = ", dp);
      if (dp < options_.tol) {
        res.converged = true;
        ax.done = true;
      } else if (iter >= options_.max_iterations) {
        ax.done = true;  // out of iterations: no response Hamiltonian needed
      } else {
        field.push_back(&ax);
      }
    }
    if (iter_span.active()) {
      iter_span.attr("dp", dp_max);
      iter_span.attr("axes", static_cast<double>(field.size()));
    }
    if (field.empty()) continue;

    // --- Kernel n1: response densities on the grid.
    timer.reset();
    n1.resize(field.size());
    {
      SWRAMAN_TRACE_SCOPE("dfpt.n1");
      for (std::size_t k = 0; k < field.size(); ++k) {
        n1[k] = scf_.density_on_grid(field[k]->res.p1);
      }
    }
    times_.n1 += timer.seconds();

    // --- Kernel V1: response potentials (multipole Poisson + fxc n1), one
    // Hartree pass for every axis.
    timer.reset();
    std::vector<std::vector<double>> v1;
    {
      SWRAMAN_TRACE_SCOPE("dfpt.v1");
      v1 = scf_.hartree().solve_on_grid(n1);
      for (std::size_t k = 0; k < field.size(); ++k) {
        for (std::size_t p = 0; p < v1[k].size(); ++p) {
          v1[k][p] += fxc_[p] * n1[k][p];
        }
      }
    }
    times_.v1 += timer.seconds();

    // --- Kernel H1: response Hamiltonians. The matrix-element reductions
    // are started first; rebuilding each h1 from the bare perturbation
    // overlaps them.
    timer.reset();
    {
      SWRAMAN_TRACE_SCOPE("dfpt.h1");
      std::vector<linalg::Matrix> m1(field.size());
      std::vector<std::function<void()>> wait_m1(field.size());
      for (std::size_t k = 0; k < field.size(); ++k) {
        wait_m1[k] = scf_.integrate_matrix_async(v1[k], &m1[k]);
      }
      for (std::size_t k = 0; k < field.size(); ++k) {
        Axis& ax = *field[k];
        ax.h1 = dipole_[static_cast<std::size_t>(ax.axis)];
        wait_m1[k]();
        ax.h1 += m1[k];
      }
    }
    times_.h1 += timer.seconds();
  }

  std::vector<ResponseResult> out;
  out.reserve(state.size());
  int iterations = 0;
  bool converged = true;
  for (Axis& ax : state) {
    iterations += ax.res.iterations;
    converged = converged && ax.res.converged;
    out.push_back(std::move(ax.res));
  }
  if (span.active()) {
    span.attr("iterations", static_cast<double>(iterations));
    span.attr("converged", converged ? 1.0 : 0.0);
  }
  return out;
}

linalg::Matrix DfptEngine::polarizability_tensor(double omega) {
  SWRAMAN_TRACE_SCOPE("dfpt.polarizability");
  const std::vector<ResponseResult> res = solve_lockstep({0, 1, 2}, omega);
  linalg::Matrix alpha(3, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    if (!res[j].converged) {
      throw ConvergenceError(
          "polarizability: DFPT did not converge for axis " +
          std::to_string(j));
    }
    for (std::size_t i = 0; i < 3; ++i) {
      alpha(i, j) = -linalg::trace_product(res[j].p1, dipole_[i]);
    }
  }
  alpha.symmetrize();
  return alpha;
}

linalg::Matrix DfptEngine::polarizability() {
  return polarizability_tensor(options_.frequency);
}

linalg::Matrix DfptEngine::polarizability_at_frequency(double omega) {
  SWRAMAN_REQUIRE(omega >= 0.0, "polarizability_at_frequency: omega >= 0");
  return polarizability_tensor(omega);
}

double DfptEngine::isotropic(const linalg::Matrix& alpha) {
  return alpha.trace() / 3.0;
}

linalg::Matrix DfptEngine::dielectric_tensor(const linalg::Matrix& alpha,
                                             double volume) {
  SWRAMAN_REQUIRE(volume > 0.0, "dielectric_tensor: volume > 0");
  linalg::Matrix eps = linalg::Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      eps(i, j) += kFourPi / volume * alpha(i, j);
  return eps;
}

}  // namespace swraman::dfpt
