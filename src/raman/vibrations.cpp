#include "raman/vibrations.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/elements.hpp"
#include "common/error.hpp"
#include "common/threads.hpp"
#include "linalg/eigen.hpp"
#include "raman/evaluate.hpp"
#include "robustness/fault.hpp"

namespace swraman::raman {

std::size_t geometry_threads() {
  return fault::FaultInjector::instance().armed()
             ? 1
             : threads::hardware_threads();
}

linalg::Matrix energy_hessian(const std::vector<grid::AtomSite>& atoms,
                              const VibrationOptions& options) {
  const std::size_t n = 3 * atoms.size();
  const double d = options.displacement;
  SWRAMAN_REQUIRE(d > 0.0, "energy_hessian: displacement > 0");
  linalg::Matrix h(n, n);

  // Equilibrium solution; its density matrix seeds every displaced SCF.
  linalg::Matrix eq_density;
  Wants eq_wants;
  eq_wants.density = &eq_density;
  const double e0 = evaluate(atoms, options.scf, eq_wants).energy;

  // The displaced solves in serial order: per coordinate i the diagonal
  // pair E(+d e_i), E(-d e_i), then per pair j < i the 4-point set
  // E(++), E(--), E(+-), E(-+). One solve moves coordinate a by step_a,
  // then coordinate b by step_b when b < n.
  struct Solve {
    std::size_t a;
    double step_a;
    std::size_t b;
    double step_b;
  };
  std::vector<Solve> solves;
  solves.reserve(2 * n * n);
  for (std::size_t i = 0; i < n; ++i) {
    solves.push_back({i, d, n, 0.0});
    solves.push_back({i, -d, n, 0.0});
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      solves.push_back({i, d, j, d});
      solves.push_back({i, -d, j, -d});
      solves.push_back({i, d, j, -d});
      solves.push_back({i, -d, j, d});
    }
  }

  // Level 1: every solve is seeded from the same equilibrium density, so
  // its energy does not depend on the schedule; they run concurrently and
  // the Hessian is assembled below in the serial order, bitwise.
  std::vector<double> e(solves.size());
  threads::claim_each(solves.size(), geometry_threads(), [&](std::size_t k) {
    const Solve& s = solves[k];
    std::vector<grid::AtomSite> moved = grid::displaced(atoms, s.a, s.step_a);
    if (s.b < n) moved = grid::displaced(std::move(moved), s.b, s.step_b);
    e[k] = evaluate(std::move(moved), options.scf, {}, &eq_density).energy;
  });

  // Diagonal: E(+d) + E(-d) - 2 E0.
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i, k += 2) {
    h(i, i) = (e[k] + e[k + 1] - 2.0 * e0) / (d * d);
  }
  // Off-diagonal: 4-point formula.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j, k += 4) {
      const double v = (e[k] + e[k + 1] - e[k + 2] - e[k + 3]) / (4.0 * d * d);
      h(i, j) = v;
      h(j, i) = v;
    }
  }
  return h;
}

NormalModes normal_modes(const std::vector<grid::AtomSite>& atoms,
                         const linalg::Matrix& hessian,
                         bool project_rigid_body) {
  const std::size_t n = 3 * atoms.size();
  SWRAMAN_REQUIRE(hessian.rows() == n && hessian.cols() == n,
                  "normal_modes: Hessian size mismatch");

  // Mass-weighted Hessian: Hm_ij = H_ij / sqrt(m_i m_j) (masses in
  // electron-mass atomic units so frequencies come out in a.u.).
  std::vector<double> sqrt_m(n);
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    const double m = element(atoms[a].z).mass_amu * kMeAmu;
    for (int k = 0; k < 3; ++k) sqrt_m[3 * a + k] = std::sqrt(m);
  }
  linalg::Matrix hm(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      hm(i, j) = hessian(i, j) / (sqrt_m[i] * sqrt_m[j]);
  hm.symmetrize();

  if (project_rigid_body) {
    // Build mass-weighted translation and rotation vectors, orthonormalize,
    // and project them out of the Hessian: Hm <- Q Hm Q, Q = 1 - sum vv^T.
    Vec3 com;
    double mtot = 0.0;
    for (const grid::AtomSite& a : atoms) {
      const double m = element(a.z).mass_amu;
      com += m * a.pos;
      mtot += m;
    }
    com *= 1.0 / mtot;

    std::vector<std::vector<double>> rigid;
    for (int k = 0; k < 3; ++k) {
      std::vector<double> t(n, 0.0);
      for (std::size_t a = 0; a < atoms.size(); ++a) {
        t[3 * a + static_cast<std::size_t>(k)] = sqrt_m[3 * a];
      }
      rigid.push_back(std::move(t));
    }
    for (int k = 0; k < 3; ++k) {
      Vec3 axis;
      axis[k] = 1.0;
      std::vector<double> r(n, 0.0);
      for (std::size_t a = 0; a < atoms.size(); ++a) {
        const Vec3 arm = cross(axis, atoms[a].pos - com);
        for (int c = 0; c < 3; ++c) {
          r[3 * a + static_cast<std::size_t>(c)] = sqrt_m[3 * a] * arm[c];
        }
      }
      rigid.push_back(std::move(r));
    }
    // Gram-Schmidt; drop near-zero vectors (linear molecules).
    std::vector<std::vector<double>> ortho;
    for (std::vector<double>& v : rigid) {
      for (const std::vector<double>& u : ortho) {
        double proj = 0.0;
        for (std::size_t i = 0; i < n; ++i) proj += u[i] * v[i];
        for (std::size_t i = 0; i < n; ++i) v[i] -= proj * u[i];
      }
      double norm = 0.0;
      for (double x : v) norm += x * x;
      norm = std::sqrt(norm);
      if (norm < 1e-8) continue;
      for (double& x : v) x /= norm;
      ortho.push_back(v);
    }
    // Hm <- Q Hm Q with Q = 1 - sum_u u u^T, applied via two passes.
    const auto project = [&](linalg::Matrix& m) {
      for (const std::vector<double>& u : ortho) {
        // m <- (1 - u u^T) m: row update m -= u (u^T m).
        std::vector<double> utm(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j) utm[j] += u[i] * m(i, j);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j) m(i, j) -= u[i] * utm[j];
      }
    };
    project(hm);
    linalg::Matrix hmt = hm.transposed();
    project(hmt);
    hm = hmt.transposed();
    hm.symmetrize();
  }

  const linalg::EigenResult eig = linalg::eigh(hm);

  NormalModes modes;
  modes.frequencies_cm.resize(n);
  modes.reduced_masses_amu.resize(n);
  modes.cartesian_modes = linalg::Matrix(n, n);
  for (std::size_t p = 0; p < n; ++p) {
    const double lambda = eig.values[p];
    const double omega = std::sqrt(std::abs(lambda));
    modes.frequencies_cm[p] =
        (lambda >= 0.0 ? omega : -omega) * kCmInvPerAu;
    // Cartesian displacement: x_i = q_i / sqrt(m_i).
    double mu_inv = 0.0;
    double cart_norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = eig.vectors(i, p) / sqrt_m[i];
      modes.cartesian_modes(i, p) = x;
      cart_norm2 += x * x;
    }
    // Reduced mass: 1 / sum(cart^2 over modes normalized in mass-weighted
    // coords), converted to amu.
    mu_inv = cart_norm2;
    modes.reduced_masses_amu[p] =
        (mu_inv > 0.0) ? 1.0 / (mu_inv * kMeAmu) : 0.0;
  }
  return modes;
}

}  // namespace swraman::raman
