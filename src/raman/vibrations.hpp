#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "scf/scf_engine.hpp"

// Harmonic vibrational analysis: Hessian by central finite differences of
// the SCF total energy, mass-weighted normal modes with rigid-body
// projection. Frequencies in cm^-1 feed the Raman pipeline (paper Eq. 5:
// polarizability derivatives are contracted with these phonon/normal-mode
// eigenvectors).

namespace swraman::raman {

struct VibrationOptions {
  scf::ScfOptions scf;
  double displacement = 0.01;  // Bohr, central-difference step
  bool project_rigid_body = true;
};

// Threads the displaced-geometry loops run on, which is also how many
// engines live at once (energy_hessian, RamanCalculator and BecCalculator;
// the paper's level 1): every host core, or 1 while the fault injector is
// armed, since its replay contract fixes the order of site visits.
// threads::claim_each runs them serially anyway inside another task.
[[nodiscard]] std::size_t geometry_threads();

// 3N x 3N Cartesian Hessian (Hartree / Bohr^2) by central finite
// differences of the total energy: 1 + 6N + 4*C(3N,2) SCF solutions. Every
// displaced SCF restarts from the equilibrium density matrix, so after the
// equilibrium solve the displaced ones run concurrently on
// geometry_threads() threads; the result is bitwise that of a serial loop,
// and a failing solve rethrows the error of the first one in serial order.
linalg::Matrix energy_hessian(const std::vector<grid::AtomSite>& atoms,
                              const VibrationOptions& options);

struct NormalModes {
  // All 3N frequencies ascending; rigid-body modes near zero (imaginary
  // frequencies reported as negative values).
  std::vector<double> frequencies_cm;
  // Cartesian displacement vectors (3N x 3N, column p = mode p), normalized
  // in mass-weighted coordinates.
  linalg::Matrix cartesian_modes;
  // Reduced mass of each mode, amu.
  std::vector<double> reduced_masses_amu;
};

// Diagonalizes the mass-weighted Hessian; optionally projects out the three
// translations and three (two for linear molecules) rotations first.
NormalModes normal_modes(const std::vector<grid::AtomSite>& atoms,
                         const linalg::Matrix& hessian,
                         bool project_rigid_body = true);

}  // namespace swraman::raman
