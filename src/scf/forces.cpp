#include "scf/forces.hpp"

#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "xc/lda.hpp"

namespace swraman::scf {

ForceEvaluator::ForceEvaluator(std::vector<grid::AtomSite> atoms,
                               ScfOptions options, double displacement)
    : atoms_(std::move(atoms)),
      options_(std::move(options)),
      displacement_(displacement) {
  SWRAMAN_REQUIRE(!atoms_.empty(), "ForceEvaluator: no atoms");
  SWRAMAN_REQUIRE(displacement_ > 0.0,
                  "ForceEvaluator: displacement must be positive");
  SWRAMAN_TRACE_SPAN(span, "scf.forces.build");
  // The field never enters S, T, v_ext or the grid, so the displaced
  // engines are built field-free and shared by every field evaluation.
  options_.electric_field = {};
  const std::size_t n_coords = 3 * atoms_.size();
  if (span.active()) span.attr("coords", static_cast<double>(n_coords));
  displaced_.resize(2 * n_coords);
  for (std::size_t coord = 0; coord < n_coords; ++coord) {
    for (int s = 0; s < 2; ++s) {
      displaced_[2 * coord + static_cast<std::size_t>(s)] =
          std::make_unique<ScfEngine>(
              grid::displaced(atoms_, coord,
                              s == 0 ? displacement_ : -displacement_),
              options_);
    }
  }
  // Each sibling evaluates Hartree once per field point it serves (13 for
  // a bec stencil): worth a Direct plan, the siblings sharing one solver's
  // budget.
  const std::size_t byte_cap =
      hartree::MultipoleSolver::kPlanByteCap / displaced_.size();
  for (const std::unique_ptr<ScfEngine>& engine : displaced_) {
    engine->request_hartree_plan(byte_cap);
  }
}

double ForceEvaluator::lagrangian(const ScfEngine& engine,
                                  const GroundState& gs,
                                  const linalg::Matrix& w_mat,
                                  const Vec3& field) const {
  const grid::MolecularGrid& g = engine.grid();
  const std::size_t nbf = engine.basis().size();
  SWRAMAN_REQUIRE(gs.density.rows() == nbf && gs.density.cols() == nbf,
                  "ForceEvaluator: state basis dimension mismatch");
  const bool has_field = field.norm2() > 0.0;

  // Matrix terms: Tr(P T') - Tr(W S').
  double e = 0.0;
  const linalg::Matrix& t = engine.kinetic();
  const linalg::Matrix& s_mat = engine.overlap();
  for (std::size_t u = 0; u < nbf; ++u) {
    for (std::size_t v = 0; v < nbf; ++v) {
      e += gs.density(u, v) * t(u, v) - w_mat(u, v) * s_mat(u, v);
    }
  }

  // Grid terms with the frozen density matrix expanded in the displaced
  // basis: external, Hartree (E_H = 1/2 integral v_H n), XC, field.
  const std::vector<double> n = engine.density_on_grid(gs.density);
  const std::vector<double> v_h = engine.hartree().solve_on_grid(n);
  const std::vector<double>& v_ext = engine.external_potential();
  const xc::Functional functional = engine.options().functional;
  for (std::size_t p = 0; p < g.size(); ++p) {
    const double wn = g.weights[p] * n[p];
    e += wn * (v_ext[p] + 0.5 * v_h[p] + xc::energy(functional, n[p]));
    if (has_field) e += wn * dot(field, g.points[p]);
  }

  // Nuclear-nuclear repulsion and the nuclear field energy -Z_A F.R_A
  // (the sign pairs with the electron +F.r convention of solve_attempt,
  // so dL/dF reproduces -gs.dipole).
  for (std::size_t a = 0; a < g.atoms.size(); ++a) {
    const double za = engine.basis().species_of(a).z_nuclear;
    for (std::size_t b = a + 1; b < g.atoms.size(); ++b) {
      e += za * engine.basis().species_of(b).z_nuclear /
           distance(g.atoms[a].pos, g.atoms[b].pos);
    }
    if (has_field) e -= za * dot(field, g.atoms[a].pos);
  }
  return e;
}

std::vector<double> ForceEvaluator::forces(const GroundState& gs,
                                           const Vec3& field) const {
  SWRAMAN_TRACE_SPAN(span, "scf.forces");
  obs::count("scf.force_evals");
  const std::size_t n_coords = 3 * atoms_.size();
  const std::size_t nbf = gs.density.rows();

  // Energy-weighted density matrix W = sum_j f_j eps_j c_j c_j^T.
  linalg::Matrix w_mat(nbf, nbf);
  for (std::size_t j = 0; j < gs.eigenvalues.size(); ++j) {
    const double fe = gs.occupations[j] * gs.eigenvalues[j];
    if (fe == 0.0) continue;
    for (std::size_t u = 0; u < nbf; ++u) {
      const double cu = gs.coefficients(u, j);
      if (cu == 0.0) continue;
      for (std::size_t v = 0; v < nbf; ++v) {
        w_mat(u, v) += fe * cu * gs.coefficients(v, j);
      }
    }
  }

  std::vector<double> f(n_coords, 0.0);
  for (std::size_t coord = 0; coord < n_coords; ++coord) {
    const double lp = lagrangian(*displaced_[2 * coord], gs, w_mat, field);
    const double lm = lagrangian(*displaced_[2 * coord + 1], gs, w_mat, field);
    f[coord] = -(lp - lm) / (2.0 * displacement_);
  }
  return f;
}

}  // namespace swraman::scf
