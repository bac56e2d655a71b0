#pragma once

#include <cstddef>
#include <vector>

#include <functional>

#include "basis/basis_set.hpp"
#include "common/vec3.hpp"
#include "fmm/backend.hpp"
#include "grid/atom_grid.hpp"
#include "grid/batch.hpp"
#include "grid/loadbalance.hpp"
#include "hartree/multipole.hpp"
#include "linalg/matrix.hpp"
#include "scf/grid_kernels.hpp"
#include "xc/lda.hpp"

// Self-consistent all-electron (or pseudized) Kohn-Sham DFT on numeric
// atom-centered grids — the ground-state stage that precedes every DFPT
// calculation in the paper (Fig. 2, upper box). The implementation mirrors
// the FHI-aims structure: batch-wise grid integration for every matrix
// element (the same kernels DFPT reuses), multipole (Delley) electrostatics,
// LDA exchange-correlation, Fermi smearing, and Pulay/DIIS acceleration.

namespace swraman::scf {

struct ScfOptions {
  basis::SpeciesOptions species;
  grid::GridSettings grid;
  grid::BatchingOptions batching;
  xc::Functional functional = xc::Functional::LdaPw92;
  int multipole_lmax = 6;
  // Hartree far-field backend: Direct keeps the dense per-point atom sum
  // (bitwise-stable reference), Fmm forces the octree fast multipole, Auto
  // picks by the cost-model crossover (src/fmm/backend.hpp).
  fmm::HartreeBackend hartree_backend = fmm::HartreeBackend::Direct;
  fmm::FmmOptions fmm;
  double density_tol = 1e-6;     // max |P_new - P_old|
  double energy_tol = 1e-7;      // Hartree
  int max_iterations = 80;
  double smearing = 1e-3;        // Fermi smearing width, Hartree
  int diis_depth = 6;
  double mixing = 0.4;           // linear fallback before DIIS kicks in
  // Automatic divergence recovery: when non-finite numbers appear in the
  // cycle (blow-up, injected NaN), the mixing is halved, the DIIS history
  // flushed, and the cycle restarted — up to this many attempts total
  // before ConvergenceError is thrown.
  int recovery_attempts = 3;
  double s_eigen_floor = 1e-7;   // overlap eigenvalue filter
  Vec3 electric_field{};         // uniform finite field (adds +F.r to v_eff)
};

// Level-2 parallelization hook (paper Fig. 4): when an engine is built
// with a partition, it owns only the integration batches Algorithm 1
// assigns to `rank`, and every grid-reduced quantity (S, T, matrix
// elements, densities) is summed across ranks through `allreduce` — the
// role MPI_Allreduce plays in the paper. The DFPT engine inherits the
// distribution automatically because its three kernels go through
// density_on_grid / integrate_matrix.
struct GridPartition {
  std::size_t rank = 0;
  std::size_t n_ranks = 1;
  // Element-wise sum of the buffer across ranks (collective).
  std::function<void(double*, std::size_t)> allreduce;
  // Optional non-blocking variant: starts the collective and returns a wait
  // functor; the buffer must not be read or written until that functor has
  // run (it fills the buffer with the reduced values). When absent, the
  // engine's *_async entry points fall back to completing the blocking
  // allreduce at start time. Collective-ordering rules follow
  // Communicator::iallreduce: every rank must start its reductions in the
  // same program order.
  std::function<std::function<void()>(double*, std::size_t)> iallreduce;

  [[nodiscard]] bool active() const { return n_ranks > 1; }
};

struct GroundState {
  bool converged = false;
  int iterations = 0;
  double total_energy = 0.0;
  double band_energy = 0.0;
  double nuclear_repulsion = 0.0;
  double fermi_level = 0.0;
  double homo_lumo_gap = 0.0;
  std::vector<double> eigenvalues;
  std::vector<double> occupations;
  linalg::Matrix coefficients;  // column j = MO j (AO coefficients)
  linalg::Matrix density;       // P = C f C^T
  Vec3 dipole;                  // nuclear + electronic, atomic units
};

// Closest two nuclei may come, in bohr: far below any chemical bond
// (~1.4 bohr for H2), far above rounding noise. A closer pair makes the
// engine constructors throw GeometryError naming both atoms.
inline constexpr double kMinNuclearSeparation = 1e-3;

class ScfEngine {
 public:
  // Throws GeometryError when two nuclei lie closer than
  // kMinNuclearSeparation.
  ScfEngine(std::vector<grid::AtomSite> atoms, ScfOptions options);

  // Distributed construction: this rank integrates only its Algorithm-1
  // share of the batches; collective sums go through partition.allreduce.
  ScfEngine(std::vector<grid::AtomSite> atoms, ScfOptions options,
            GridPartition partition);

  // Runs the SCF loop to self-consistency. When a previous density matrix
  // is supplied (same basis dimension — e.g. the equilibrium solution for
  // a displaced geometry in the Hessian / d(alpha)/dR loops), it seeds the
  // initial density instead of the free-atom superposition, typically
  // halving the iteration count. Divergence (non-finite energy/potential)
  // triggers automatic recovery per ScfOptions::recovery_attempts; throws
  // ConvergenceError when every attempt diverged.
  GroundState solve(const linalg::Matrix* initial_density = nullptr);

  // --- building blocks shared with the DFPT engine ---

  [[nodiscard]] const basis::BasisSet& basis() const { return basis_; }
  [[nodiscard]] const grid::MolecularGrid& grid() const { return grid_; }
  [[nodiscard]] const std::vector<grid::Batch>& batches() const {
    return batches_;
  }
  [[nodiscard]] const hartree::MultipoleSolver& poisson() const {
    return hartree_.solver();
  }
  // The backend-dispatching Hartree context (Direct / Fmm / Auto); the
  // v_eff, DFPT v1 and force paths all solve Poisson through it. solve()
  // requests its Direct evaluation plan, which DFPT then reuses.
  [[nodiscard]] const fmm::HartreeContext& hartree() const {
    return hartree_;
  }
  // Requests the Direct evaluation plan within byte_cap bytes for an
  // engine that never solves but evaluates Hartree many times (the
  // ForceEvaluator siblings, which share one solver's budget).
  void request_hartree_plan(std::size_t byte_cap) {
    hartree_.request_plan(byte_cap);
  }
  [[nodiscard]] const linalg::Matrix& overlap() const { return s_; }
  [[nodiscard]] const linalg::Matrix& kinetic() const { return t_; }
  [[nodiscard]] const ScfOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<grid::AtomSite>& atoms() const {
    return grid_.atoms;
  }

  // Electron density on the grid from a density matrix (paper kernel "n1"
  // when fed a response density matrix).
  [[nodiscard]] std::vector<double> density_on_grid(
      const linalg::Matrix& density_matrix) const;

  // Matrix elements of a multiplicative potential given on the grid
  // (paper kernel "H1"): M_uv = integral chi_u v(r) chi_v d3r.
  [[nodiscard]] linalg::Matrix integrate_matrix(
      const std::vector<double>& potential_on_grid) const;

  // Dipole integrals D^axis_uv = integral chi_u r_axis chi_v d3r.
  [[nodiscard]] linalg::Matrix dipole_matrix(int axis) const;

  // --- overlapped (non-blocking-reduction) variants ---
  //
  // Each computes this rank's local contribution into *out, starts the
  // cross-rank reduction through GridPartition::iallreduce, and returns a
  // wait functor. *out must stay alive and untouched until the functor has
  // run; after it, *out holds the same result the blocking variant returns.
  // With no partition (or no iallreduce hook) the returned functor is a
  // cheap no-op and *out is already final — callers need no special case.
  [[nodiscard]] std::function<void()> density_on_grid_async(
      const linalg::Matrix& density_matrix, std::vector<double>* out) const;
  [[nodiscard]] std::function<void()> integrate_matrix_async(
      const std::vector<double>& potential_on_grid, linalg::Matrix* out) const;
  [[nodiscard]] std::function<void()> dipole_matrix_async(
      int axis, linalg::Matrix* out) const;

  // External (nuclear / ionic) potential on the grid points.
  [[nodiscard]] const std::vector<double>& external_potential() const {
    return v_ext_;
  }

  // Nuclear forces for a converged ground state live in scf::ForceEvaluator
  // (scf/forces.hpp): the displaced-Lagrangian evaluation needs sibling
  // engines at perturbed geometries, which one engine cannot own cheaply.

  // Fermi occupations for the given spectrum; returns occupations summing
  // to n_electrons and sets fermi (chemical potential).
  [[nodiscard]] std::vector<double> fermi_occupations(
      const std::vector<double>& eigenvalues, double n_electrons,
      double* fermi) const;

  // Generalized eigensolve H C = S C eps with overlap-eigenvalue filtering
  // (canonical orthogonalization). Returns eigenvalues and AO coefficients.
  void solve_eigenproblem(const linalg::Matrix& h,
                          std::vector<double>& eigenvalues,
                          linalg::Matrix& coefficients) const;

 private:
  void build_matrices();  // S, T, v_ext, batch caches and strips
  // Threads a grid pass runs its batches on: 1 below kParallelPassBatches
  // batches, every host core from there (DESIGN.md §17).
  [[nodiscard]] std::size_t pass_threads() const;
  void reduce(double* data, std::size_t n) const;
  void reduce_matrix(linalg::Matrix& m) const;
  // Starts a non-blocking reduction when the partition provides one
  // (blocking-at-start otherwise); the returned functor completes it.
  [[nodiscard]] std::function<void()> reduce_async(double* data,
                                                   std::size_t n) const;
  [[nodiscard]] std::function<void()> reduce_matrix_async(
      linalg::Matrix& m) const;

  // One full SCF cycle. `attempt` (1-based) scales the recovery response:
  // linear mixing is halved and the damped warm-up lengthened per retry.
  // Sets *diverged when non-finite numbers appeared and the cycle aborted.
  GroundState solve_attempt(const linalg::Matrix* initial_density,
                            int attempt, bool* diverged);

  ScfOptions options_;
  grid::MolecularGrid grid_;
  basis::BasisSet basis_;
  std::vector<grid::Batch> batches_;
  GridPartition partition_;
  std::vector<std::size_t> batch_owner_;
  fmm::HartreeContext hartree_;
  std::vector<BatchData> batch_data_;
  std::size_t max_batch_fns_ = 0;     // largest batch's local functions
  std::size_t max_batch_points_ = 0;  // and points
  linalg::Matrix s_;
  linalg::Matrix t_;
  std::vector<double> v_ext_;
  linalg::Matrix x_;  // canonical orthogonalizer: X^T S X = I (filtered)
};

}  // namespace swraman::scf
