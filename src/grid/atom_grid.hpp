#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/vec3.hpp"

// Atom-centered all-electron integration grids (paper Sec. 3.1, Fig. 3):
// per-atom radial shells (Becke-mapped Gauss-Chebyshev nodes) carrying
// pruned angular (Lebedev / Gauss-product) grids, glued into a single
// molecular grid by Becke's partition of unity so that
//
//   integral f(r) d3r ~= sum_i w_i f(r_i).

namespace swraman::grid {

struct AtomSite {
  int z = 1;
  Vec3 pos;
};

// `atoms` with Cartesian coordinate `coord` (atom coord / 3, axis
// coord % 3) moved by `step` bohr: the displaced geometry of every
// finite-difference loop (Hessian, d(alpha)/dR, forces, relaxation).
std::vector<AtomSite> displaced(std::vector<AtomSite> atoms,
                                std::size_t coord, double step);

// Grid quality presets mirroring FHI-aims' "light" / "tight" / "really
// tight" defaults (coarser absolute sizes; relative structure preserved).
enum class GridLevel { Light, Tight, ReallyTight };

// Partition-of-unity scheme stitching the atomic grids together. Becke's
// pairwise cell functions are the classical choice; Hirshfeld (stockholder)
// weights from free-atom densities are what FHI-aims actually uses and cost
// O(N) per point instead of O(N^2).
enum class PartitionScheme { Becke, Hirshfeld };

struct GridSettings {
  GridLevel level = GridLevel::Light;
  // Overrides; <= 0 means "use the level default".
  int n_radial = 0;        // radial shells per atom
  int angular_order = 0;   // max angular design order (outer shells)
  bool prune = true;       // reduce angular order near the nucleus
  PartitionScheme partition = PartitionScheme::Becke;
  // Free-atom density evaluator for the Hirshfeld scheme: density(z, r).
  // Defaults to a built-in Slater-type model when unset; the SCF engine
  // wires in the real species densities.
  std::function<double(int, double)> free_atom_density;
};

// One radial integration shell of one atom: a contiguous block of points in
// the flat arrays sharing the same radius, carrying a complete angular
// quadrature (weights sum to 4*pi). The multipole Poisson solver projects
// densities onto Y_lm shell by shell.
struct ShellInfo {
  int atom = 0;
  double radius = 0.0;
  double w_radial = 0.0;         // radial weight including r^2
  int angular_order = 0;         // design order of the shell's angular rule
  std::size_t first_point = 0;
  std::size_t n_points = 0;
};

struct MolecularGrid {
  std::vector<Vec3> points;
  std::vector<double> weights;         // radial x angular x partition
  std::vector<double> partition;       // Becke weight alone (per point)
  std::vector<double> angular_weight;  // angular weight alone (per point)
  std::vector<int> owner_atom;         // atom whose shell generated the point
  std::vector<ShellInfo> shells;
  std::vector<AtomSite> atoms;

  [[nodiscard]] std::size_t size() const { return points.size(); }
};

// Number of radial shells / angular order implied by settings for element z.
int radial_count(const GridSettings& s, int z);
int angular_order(const GridSettings& s);

// Becke partition weight of atom `a` at point r (normalized over atoms),
// with atomic-size adjustments from Bragg-Slater radii.
double becke_weight(const std::vector<AtomSite>& atoms, std::size_t a,
                    const Vec3& r);

// Hirshfeld (stockholder) weight: w_a = n_a^free / sum_b n_b^free using the
// supplied free-atom density model.
double hirshfeld_weight(
    const std::vector<AtomSite>& atoms, std::size_t a, const Vec3& r,
    const std::function<double(int, double)>& free_atom_density);

// Builds the full molecular integration grid.
MolecularGrid build_molecular_grid(const std::vector<AtomSite>& atoms,
                                   const GridSettings& settings);

}  // namespace swraman::grid
