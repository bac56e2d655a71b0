// FMM crossover benchmark (DESIGN.md S16): growing water clusters priced
// through both Hartree evaluation paths.
//
//   direct   MultipoleSolver::evaluate_on_grid on a planned solver, as
//            an SCF engine runs it — every atom's spline channels /
//            analytic multipoles per grid point, O(points x atoms), over
//            the geometry-static evaluation plan up to its byte cap and
//            pointwise beyond it.
//   fmm      HartreeContext::fmm_on_grid — octree far field (P2M/M2M/
//            M2L/L2L/L2P) plus exact near field (P2P), O(points + atoms)
//            for bounded density.
//
// The Poisson solve itself (linear in system size) is shared: each size
// solves once and times only the evaluation phase — the quadratic term the
// FMM exists to remove, and the one that dominates every SCF iteration at
// cluster scale. The Direct evaluation plan and the FMM geometry (trees +
// interaction lists) are each built on an untimed warm call, matching
// their amortization across the tens of solves of a real SCF/DFPT run on
// a fixed geometry.
//
// The bench regime is the coarse production mesh (n_radial 6, angular
// order 3, Hirshfeld partition): the atoms' outer shell radius — the
// spline validity reach that bounds the near field — is ~4 bohr, so
// well-separated cell pairs appear from a few dozen molecules up. The
// acceptance gate is the paper-shaped claim: a crossover must exist below
// the largest size, and the largest cluster must run >= 1.5x faster
// under FMM.
//
// --json writes swraman-bench-v1 records (one per cluster size plus a
// crossover summary) consumed by scripts/check_perf_json.py.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "common/logging.hpp"
#include "core/molecules.hpp"
#include "fmm/backend.hpp"

namespace {

using namespace swraman;
using Clock = std::chrono::steady_clock;

struct SizeResult {
  std::size_t molecules = 0;
  std::size_t atoms = 0;
  std::size_t points = 0;
  std::size_t planned = 0;  // points the Direct evaluation plan covers
  double direct_s = 0.0;
  double fmm_s = 0.0;
  double speedup = 0.0;
  std::size_t m2l_pairs = 0;
  std::size_t p2p_pairs = 0;
  double max_rel_err = 0.0;
};

double seconds_since(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Superposition of per-atom Gaussians scaled by Z: a smooth, neutral-ish
// stand-in for an SCF density, cheap enough to fill at 648 atoms.
std::vector<double> model_density(const grid::MolecularGrid& g) {
  std::vector<double> n(g.size(), 0.0);
  for (std::size_t p = 0; p < g.size(); ++p) {
    for (const grid::AtomSite& a : g.atoms) {
      const double ex = (a.z > 1) ? 1.8 : 0.9;
      const double r2 = (g.points[p] - a.pos).norm2();
      if (ex * r2 > 30.0) continue;  // exp(-30) ~ 1e-13: below grid noise
      n[p] += static_cast<double>(a.z) * std::pow(ex / kPi, 1.5) *
              std::exp(-ex * r2);
    }
  }
  return n;
}

SizeResult run_size(std::size_t n_molecules, int lmax,
                    const fmm::FmmOptions& fopt) {
  grid::GridSettings gs;
  gs.level = grid::GridLevel::Light;
  gs.n_radial = 6;
  gs.angular_order = 3;
  gs.partition = grid::PartitionScheme::Hirshfeld;
  const std::vector<grid::AtomSite> atoms =
      molecules::water_cluster(n_molecules);
  const grid::MolecularGrid g = grid::build_molecular_grid(atoms, gs);
  const std::vector<double> density = model_density(g);

  const fmm::HartreeContext ctx(g, lmax, fmm::HartreeBackend::Fmm, fopt);
  const hartree::MultipolePotential pot = ctx.solver().solve(density);

  // Direct: the dense evaluation an SCF engine runs. One untimed call
  // builds the plan; the timed call is the steady-state evaluation.
  hartree::MultipoleSolver direct_solver(g, lmax);
  direct_solver.request_plan();
  (void)direct_solver.evaluate_on_grid(pot);
  const auto td = Clock::now();
  const std::vector<double> direct = direct_solver.evaluate_on_grid(pot);
  const double direct_s = seconds_since(td);

  // FMM: one untimed call builds the geometry, the timed call is the
  // steady-state evaluation every subsequent solve pays.
  (void)ctx.fmm_on_grid(pot);
  const auto tf = Clock::now();
  const std::vector<double> fast = ctx.fmm_on_grid(pot);
  const double fmm_s = seconds_since(tf);

  double err = 0.0;
  double vmax = 0.0;
  for (std::size_t p = 0; p < g.size(); ++p) {
    err = std::max(err, std::abs(fast[p] - direct[p]));
    vmax = std::max(vmax, std::abs(direct[p]));
  }

  SizeResult r;
  r.molecules = n_molecules;
  r.atoms = atoms.size();
  r.points = g.size();
  r.planned = direct_solver.planned_points();
  r.direct_s = direct_s;
  r.fmm_s = fmm_s;
  r.speedup = direct_s / fmm_s;
  r.m2l_pairs = ctx.stats().n_m2l_pairs;
  r.p2p_pairs = ctx.stats().n_p2p_pairs;
  r.max_rel_err = (vmax > 0.0) ? err / vmax : 0.0;
  return r;
}

void write_json(const std::string& path, const std::vector<SizeResult>& runs,
                std::size_t crossover_atoms, double speedup_at_max) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"swraman-bench-v1\",\n"
      << "  \"bench\": \"fmm_crossover\",\n  \"records\": [\n";
  for (const SizeResult& r : runs) {
    out << "    {\"series\": \"cluster\", \"molecules\": " << r.molecules
        << ", \"atoms\": " << r.atoms << ", \"points\": " << r.points
        << ", \"direct_s\": " << r.direct_s << ", \"fmm_s\": " << r.fmm_s
        << ", \"speedup\": " << r.speedup
        << ", \"m2l_pairs\": " << r.m2l_pairs
        << ", \"p2p_pairs\": " << r.p2p_pairs
        << ", \"max_rel_err\": " << r.max_rel_err << "},\n";
  }
  out << "    {\"series\": \"crossover\", \"crossover_atoms\": "
      << crossover_atoms << ", \"speedup_at_max\": " << speedup_at_max
      << ", \"max_atoms\": " << runs.back().atoms << "}\n  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::Warn);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  // Production-shaped far-field numerics: lmax 4 atom moments, expansion
  // order matching, theta 0.6. tests/fmm covers the accuracy ladder; the
  // bench runs the configuration a cluster-scale SCF would.
  const int lmax = 4;
  fmm::FmmOptions fopt;
  fopt.order = 4;
  fopt.theta = 0.6;

  std::printf(
      "bench_fmm_crossover: water clusters, grid 6/3 Hirshfeld, lmax %d, "
      "p %d, theta %.2f\n",
      lmax, fopt.order, fopt.theta);
  std::printf(
      "%9s %6s %7s %7s %10s %10s %8s %9s %9s %11s\n", "molecules", "atoms",
      "points", "planned", "direct_s", "fmm_s", "speedup", "m2l", "p2p",
      "max_rel_err");

  std::vector<SizeResult> runs;
  for (std::size_t m : {27u, 64u, 125u, 216u}) {
    const SizeResult r = run_size(m, lmax, fopt);
    std::printf("%9zu %6zu %7zu %7zu %10.4f %10.4f %7.2fx %9zu %9zu %11.2e\n",
                r.molecules, r.atoms, r.points, r.planned, r.direct_s,
                r.fmm_s, r.speedup, r.m2l_pairs, r.p2p_pairs, r.max_rel_err);
    runs.push_back(r);
  }

  std::size_t crossover_atoms = 0;
  for (const SizeResult& r : runs) {
    if (r.speedup > 1.0) {
      crossover_atoms = r.atoms;
      break;
    }
  }
  const double speedup_at_max = runs.back().speedup;
  if (crossover_atoms > 0) {
    std::printf("crossover at %zu atoms; %.2fx at %zu atoms\n",
                crossover_atoms, speedup_at_max, runs.back().atoms);
  }

  if (!json_path.empty()) {
    write_json(json_path, runs, crossover_atoms, speedup_at_max);
  }

  // Acceptance: the O(N) claim must be visible — a crossover below the
  // largest size, >= 1.5x at the largest, and the far field still sane.
  bool ok = true;
  if (crossover_atoms == 0 || crossover_atoms >= runs.back().atoms) {
    std::printf("bench_fmm_crossover: FAIL no crossover below %zu atoms\n",
                runs.back().atoms);
    ok = false;
  }
  if (speedup_at_max < 1.5) {
    std::printf("bench_fmm_crossover: FAIL speedup %.2f < 1.5 at %zu atoms\n",
                speedup_at_max, runs.back().atoms);
    ok = false;
  }
  for (const SizeResult& r : runs) {
    if (r.max_rel_err > 0.05) {
      std::printf("bench_fmm_crossover: FAIL rel err %.2e at %zu atoms\n",
                  r.max_rel_err, r.atoms);
      ok = false;
    }
    if (r.m2l_pairs == 0) {
      std::printf("bench_fmm_crossover: FAIL no M2L pairs at %zu atoms\n",
                  r.atoms);
      ok = false;
    }
  }
  std::printf("bench_fmm_crossover: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
