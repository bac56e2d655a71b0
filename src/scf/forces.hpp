#pragma once

#include <memory>
#include <vector>

#include "common/vec3.hpp"
#include "scf/scf_engine.hpp"

// Nuclear forces for a converged SCF state, exact for the implemented
// energy surface (basis, quadrature grid, multipole solver and all): the
// force on coordinate k is the central difference of the constrained
// Lagrangian
//
//   L(R) = E[P; R] - Tr(W S(R)),   W = C f eps C^T,
//
// with the converged state (P, W) frozen and everything explicitly
// R-dependent — basis centers, integration grid, external potential,
// Hartree solve — rebuilt at R +/- h. By the stationarity of the SCF
// solution the state response drops out (envelope theorem on the
// orthonormality-constrained Lagrangian; the -Tr(W dS) term is the Pulay
// force), so the difference converges to -dE_scf/dR at O(h^2) without a
// single additional SCF cycle. This matters doubly for the bec tier:
// pure Hellmann-Feynman forces are wrong by O(1) in an atom-centered
// basis, and on the coarse test grids even the analytic Pulay correction
// misses the quadrature-motion terms this formulation gets for free.
//
// The displaced sibling engines are field-independent (a uniform field
// never enters S, T, v_ext), so one evaluator serves every point of the
// bec field stencil; the field enters the Lagrangian only through the
// explicit +F.r electron term and the -Z_A F.R_A nuclear term.

namespace swraman::scf {

class ForceEvaluator {
 public:
  // Builds the 6N displaced sibling engines eagerly (each is a full
  // grid + basis + matrix build, no SCF). Memory is O(N) engines — the
  // same order as the displacement pipeline's transient peak.
  ForceEvaluator(std::vector<grid::AtomSite> atoms, ScfOptions options,
                 double displacement = 1e-3);

  // -dE/dR (flat 3N, Hartree/Bohr) for a state converged by an ScfEngine
  // with the same atoms and options whose ScfOptions::electric_field was
  // `field`. The state must carry coefficients/occupations/eigenvalues
  // (any GroundState returned by ScfEngine::solve does).
  [[nodiscard]] std::vector<double> forces(const GroundState& gs,
                                           const Vec3& field = {}) const;

  [[nodiscard]] double displacement() const { return displacement_; }

  // Displaced sibling engine i, i = 2 * coord + (sign < 0).
  [[nodiscard]] const ScfEngine& displaced(std::size_t i) const {
    return *displaced_[i];
  }

 private:
  // L at one displaced engine for the frozen state.
  [[nodiscard]] double lagrangian(const ScfEngine& engine,
                                  const GroundState& gs,
                                  const linalg::Matrix& w_mat,
                                  const Vec3& field) const;

  std::vector<grid::AtomSite> atoms_;
  ScfOptions options_;
  double displacement_;
  // displaced_[2 * coord + (sign < 0)] — engine with coordinate `coord`
  // moved by +/- displacement_.
  std::vector<std::unique_ptr<ScfEngine>> displaced_;
};

}  // namespace swraman::scf
