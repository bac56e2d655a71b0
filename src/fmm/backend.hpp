#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/lockcheck.hpp"
#include "grid/atom_grid.hpp"
#include "hartree/multipole.hpp"

// Drop-in Hartree far-field backend (DESIGN.md S16). HartreeContext owns
// the Delley MultipoleSolver and decides how the solved potential is
// evaluated back onto the grid:
//
//   Direct — MultipoleSolver::solve_on_grid verbatim: every atom's spline
//            channels / analytic multipoles summed per grid point, bitwise
//            identical to the pre-FMM code path.
//   Fmm    — octree fast multipole: atom moments are translated up a
//            Morton octree over atom centers (P2M/M2M), exchanged between
//            well-separated cells of a second octree over grid points
//            (M2L, CPE-offloaded), pushed down to target leaves (L2L), and
//            evaluated (L2P) together with the exact near field (P2P,
//            CPE-offloaded, arithmetic identical to Direct per near atom).
//   Auto   — cost-model crossover: the geometry-static interaction lists
//            price both paths in modeled flops and the cheaper one runs.
//
// Trees and interaction lists depend only on the geometry, so they are
// built once per context and reused by every SCF / DFPT solve.
//
// One context may be shared by threads (the serve tier hands one
// ForceEvaluator's displaced engines to every worker). A Direct solve
// writes no context state; the Fmm path's lazily built trees, CPE cluster
// model and stats sit under one mutex.

namespace swraman::sunway {
class CpeCluster;
}  // namespace swraman::sunway

namespace swraman::fmm {

enum class HartreeBackend { Direct, Fmm, Auto };

struct FmmOptions {
  int order = 8;          // expansion truncation p
  double theta = 0.55;    // multipole acceptance criterion, in (0, 1)
  std::size_t source_leaf_size = 8;    // atoms per source leaf
  std::size_t target_leaf_size = 64;   // grid points per target leaf
  bool use_cpe = true;    // run M2L / P2P on the CPE cluster model
  // Accumulate the analytic per-leaf truncation bound during evaluation
  // (tests / diagnostics; adds one bound evaluation per M2L pair).
  bool track_error_bound = false;
};

// Introspection of the last FMM evaluation / Auto decision.
struct FmmStats {
  std::size_t n_source_cells = 0;
  std::size_t n_target_cells = 0;
  std::size_t n_m2l_pairs = 0;
  std::size_t n_p2p_pairs = 0;
  double direct_flops = 0.0;  // modeled dense-evaluation cost
  double fmm_flops = 0.0;     // modeled tree-evaluation cost
  // Max over target leaves of the summed analytic M2L truncation bounds
  // (only filled under FmmOptions::track_error_bound).
  double max_error_bound = 0.0;
  HartreeBackend resolved = HartreeBackend::Direct;  // what actually ran
};

class HartreeContext {
 public:
  HartreeContext(const grid::MolecularGrid& grid, int lmax,
                 HartreeBackend backend, FmmOptions options);
  ~HartreeContext();
  HartreeContext(const HartreeContext&) = delete;
  HartreeContext& operator=(const HartreeContext&) = delete;

  // Poisson solves + evaluation on every grid point through the selected
  // backend, one potential per density, under one "hartree.poisson" span.
  // Direct delegates to MultipoleSolver::solve_on_grid verbatim; Fmm runs
  // one tree pass for every density. Result j is bitwise that of solving
  // density j alone.
  [[nodiscard]] std::vector<std::vector<double>> solve_on_grid(
      std::span<const std::vector<double>> densities) const;
  // The one-density case.
  [[nodiscard]] std::vector<double> solve_on_grid(
      const std::vector<double>& density) const;

  // Requests the solver's evaluation plan of at most byte_cap bytes when
  // this context evaluates through Direct (MultipoleSolver::request_plan);
  // an Fmm context never builds one. Called by engines that iterate
  // (ScfEngine::solve) and for the siblings of a ForceEvaluator.
  void request_plan(
      std::size_t byte_cap = hartree::MultipoleSolver::kPlanByteCap);

  // Tree evaluation of already-solved potentials (bench / test entry;
  // ignores the configured backend). One pass serves every potential: the
  // geometry of each M2L pair, each L2P point and each P2P (point, atom)
  // pair is computed once and combined per potential, so result j is
  // bitwise that of evaluating potential j alone. The CPE model still
  // charges each potential's flops and DMA bytes; the merged M2L and P2P
  // launches save only the per-launch start-up.
  [[nodiscard]] std::vector<std::vector<double>> fmm_on_grid(
      std::span<const hartree::MultipolePotential> pots) const;
  // The one-potential case.
  [[nodiscard]] std::vector<double> fmm_on_grid(
      const hartree::MultipolePotential& potential) const;

  // The wrapped Delley solver (CSI-table construction, lmax, ...).
  [[nodiscard]] const hartree::MultipoleSolver& solver() const {
    return solver_;
  }
  [[nodiscard]] HartreeBackend backend() const { return backend_; }
  [[nodiscard]] const FmmOptions& fmm_options() const { return options_; }
  // Stats of the most recent tree evaluation (fmm_on_grid) on this
  // context; a Direct context's stats are geometry-static (resolved, and
  // under Auto the two modeled costs), set once.
  [[nodiscard]] FmmStats stats() const;

 private:
  struct Geometry;
  // Builds trees + interaction lists on first use (geometry-static).
  // Caller holds mutex_.
  const Geometry& geometry() const;
  [[nodiscard]] HartreeBackend resolve_backend() const;

  const grid::MolecularGrid& grid_;
  hartree::MultipoleSolver solver_;
  HartreeBackend backend_;
  FmmOptions options_;
  // Guards geo_, cluster_ and stats_.
  mutable lockcheck::CheckedMutex mutex_{"fmm.context"};
  mutable std::unique_ptr<Geometry> geo_;
  mutable std::unique_ptr<sunway::CpeCluster> cluster_;
  mutable FmmStats stats_;
};

}  // namespace swraman::fmm
