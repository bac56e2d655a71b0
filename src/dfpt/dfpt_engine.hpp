#pragma once

#include <array>
#include <vector>

#include "linalg/matrix.hpp"
#include "scf/scf_engine.hpp"

// Density-functional perturbation theory for homogeneous electric fields
// (paper Sec. 2.3, Fig. 2): the self-consistent Sternheimer / coupled-
// perturbed Kohn-Sham cycle
//
//   P(1) -> n(1)(r) -> v(1) = v_H[n(1)] + f_xc n(1) -> H(1) -> P(1)
//
// iterated to self-consistency with DIIS acceleration, yielding the
// polarizability tensor alpha_ij = -Tr(P(1)_j D_i) (Eq. 4) and the
// dielectric constant (Eq. 11). The three grid kernels — response density
// (n1), response potential (V1), response Hamiltonian (H1) — are exactly
// the hotspots the paper ports to the Sunway CPEs; their per-cycle times
// are tracked for the Fig. 13/14 benchmarks.
//
// Lockstep: polarizability() advances the three field axes together. Each
// axis keeps its own P(1), DIIS history, recovery attempt and mixing; per
// iteration the unconverged axes share one Hartree pass over their k
// response densities (fmm::HartreeContext::solve_on_grid), which pays each
// grid pair's geometry once for all k potentials. Every axis's arithmetic
// is that of solving it alone, so the tensor is bitwise that of three
// serial solve_response calls. solve_response(axis) is the one-axis case.

namespace swraman::dfpt {

struct DfptOptions {
  double tol = 1e-7;        // max |P1_out - P1_in|
  int max_iterations = 50;
  int diis_depth = 8;
  double mixing = 0.6;      // linear mixing before DIIS history builds
  // Perturbation frequency (Hartree) of solve_response and
  // polarizability(). 0 = static response; omega > 0 gives the dynamic
  // polarizability alpha(omega) of adiabatic-LDA linear response
  // (denominators (eps_i - eps_a) / ((eps_i - eps_a)^2 - omega^2)).
  double frequency = 0.0;
  // Automatic divergence recovery, mirroring ScfOptions: a non-finite
  // response-density step aborts the cycle, the mixing is halved, the DIIS
  // history flushed, and the cycle restarted — up to this many attempts
  // before ConvergenceError is thrown.
  int recovery_attempts = 3;
};

struct KernelTimes {
  double n1 = 0.0;           // response density, seconds
  double v1 = 0.0;           // response potential (multipole Poisson + fxc)
  double h1 = 0.0;           // response Hamiltonian integration
  double sternheimer = 0.0;  // MO-space update (U matrix, P1 assembly)
  int cycles = 0;            // accumulated DFPT iterations, summed over axes

  [[nodiscard]] double total() const { return n1 + v1 + h1 + sternheimer; }
};

struct ResponseResult {
  linalg::Matrix p1;    // first-order density matrix
  bool converged = false;
  int iterations = 0;
};

class DfptEngine {
 public:
  DfptEngine(const scf::ScfEngine& scf, const scf::GroundState& ground_state,
             DfptOptions options = {});

  // Self-consistent first-order response to a unit field along `axis`
  // (perturbation v_ext(1) = +r_axis, matching ScfOptions::electric_field).
  // Divergence (non-finite response step) triggers automatic recovery per
  // DfptOptions::recovery_attempts; throws ConvergenceError when every
  // attempt diverged. Plain non-convergence still returns converged=false.
  ResponseResult solve_response(int axis);

  // Full polarizability tensor (3 response calculations in lockstep,
  // symmetrized). Throws ConvergenceError when an axis does not converge
  // or exhausts its recovery attempts.
  [[nodiscard]] linalg::Matrix polarizability();

  // Dynamic polarizability at the given frequency (Hartree); must stay
  // below the first KS excitation gap for the response to converge. Leaves
  // the engine's options untouched, also when it throws.
  [[nodiscard]] linalg::Matrix polarizability_at_frequency(double omega);

  // Isotropic polarizability 1/3 tr(alpha).
  static double isotropic(const linalg::Matrix& alpha);

  // Dielectric constant from Eq. 11 for a (cluster-equivalent) volume.
  static linalg::Matrix dielectric_tensor(const linalg::Matrix& alpha,
                                          double volume);

  [[nodiscard]] const KernelTimes& kernel_times() const { return times_; }

 private:
  // The self-consistent responses to unit fields along `axes` at frequency
  // omega, advanced in lockstep; one result per axis, in order. An axis
  // whose step turns non-finite restarts alone (attempt k halves the
  // mixing k-1 times and flushes its DIIS history) while the others go on;
  // throws ConvergenceError when one diverged in every attempt.
  std::vector<ResponseResult> solve_lockstep(const std::vector<int>& axes,
                                             double omega);
  [[nodiscard]] linalg::Matrix polarizability_tensor(double omega);

  const scf::ScfEngine& scf_;
  const scf::GroundState& gs_;
  DfptOptions options_;
  std::array<linalg::Matrix, 3> dipole_;  // dipole integrals per axis
  std::vector<double> fxc_;               // XC kernel at the GS density
  KernelTimes times_;
};

}  // namespace swraman::dfpt
