#include "grid/atom_grid.hpp"

#include <cmath>

#include "common/elements.hpp"
#include "common/error.hpp"
#include "common/quadrature.hpp"
#include "grid/angular.hpp"

namespace swraman::grid {

namespace {

// Becke's cell smoothing: f(mu) = 1.5 mu - 0.5 mu^3, iterated three times.
double becke_step(double mu) {
  for (int k = 0; k < 3; ++k) mu = 1.5 * mu - 0.5 * mu * mu * mu;
  return 0.5 * (1.0 - mu);
}

// Atomic-size adjustment (Becke 1988, appendix): shifts the cell boundary
// towards the smaller atom. chi = R_a / R_b from Bragg-Slater radii.
double size_adjusted_mu(double mu, double chi) {
  const double u = (chi - 1.0) / (chi + 1.0);
  double a = u / (u * u - 1.0);
  if (a > 0.5) a = 0.5;
  if (a < -0.5) a = -0.5;
  return mu + a * (1.0 - mu * mu);
}

}  // namespace

int radial_count(const GridSettings& s, int z) {
  if (s.n_radial > 0) return s.n_radial;
  int base = 0;
  switch (s.level) {
    case GridLevel::Light:
      base = 30;
      break;
    case GridLevel::Tight:
      base = 45;
      break;
    case GridLevel::ReallyTight:
      base = 60;
      break;
  }
  // Heavier atoms need more shells to resolve core oscillations.
  if (z > 10) base += 10;
  if (z > 18) base += 10;
  if (z > 36) base += 10;
  return base;
}

int angular_order(const GridSettings& s) {
  if (s.angular_order > 0) return s.angular_order;
  switch (s.level) {
    case GridLevel::Light:
      return 11;
    case GridLevel::Tight:
      return 17;
    case GridLevel::ReallyTight:
      return 23;
  }
  return 11;
}

std::vector<AtomSite> displaced(std::vector<AtomSite> atoms,
                                std::size_t coord, double step) {
  SWRAMAN_REQUIRE(coord < 3 * atoms.size(),
                  "displaced: coordinate out of range");
  atoms[coord / 3].pos[static_cast<int>(coord % 3)] += step;
  return atoms;
}

double becke_weight(const std::vector<AtomSite>& atoms, std::size_t a,
                    const Vec3& r) {
  SWRAMAN_REQUIRE(a < atoms.size(), "becke_weight: atom index");
  const std::size_t n = atoms.size();
  if (n == 1) return 1.0;

  double total = 0.0;
  double target = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double p = 1.0;
    const double ri = distance(r, atoms[i].pos);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double rj = distance(r, atoms[j].pos);
      const double rij = distance(atoms[i].pos, atoms[j].pos);
      double mu = (ri - rj) / rij;
      const double chi = element(atoms[i].z).bragg_radius_bohr /
                         element(atoms[j].z).bragg_radius_bohr;
      mu = size_adjusted_mu(mu, chi);
      p *= becke_step(mu);
    }
    total += p;
    if (i == a) target = p;
  }
  if (total <= 0.0) return 0.0;
  return target / total;
}

double hirshfeld_weight(
    const std::vector<AtomSite>& atoms, std::size_t a, const Vec3& r,
    const std::function<double(int, double)>& free_atom_density) {
  SWRAMAN_REQUIRE(a < atoms.size(), "hirshfeld_weight: atom index");
  if (atoms.size() == 1) return 1.0;
  double total = 0.0;
  double target = 0.0;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const double n =
        free_atom_density(atoms[i].z, distance(r, atoms[i].pos));
    total += n;
    if (i == a) target = n;
  }
  if (total <= 1e-300) {
    // Far from every atom: fall back to the nearest-atom cell.
    std::size_t nearest = 0;
    for (std::size_t i = 1; i < atoms.size(); ++i) {
      if (distance(r, atoms[i].pos) < distance(r, atoms[nearest].pos)) {
        nearest = i;
      }
    }
    return nearest == a ? 1.0 : 0.0;
  }
  return target / total;
}

namespace {

// Slater-type free-atom density model used when no tabulated densities are
// supplied: n(r) ~ Z exp(-2 r / r_bragg), adequate as a stockholder weight.
double model_free_density(int z, double r) {
  const double scale = element(z).bragg_radius_bohr;
  return static_cast<double>(z) * std::exp(-2.0 * r / scale);
}

}  // namespace

MolecularGrid build_molecular_grid(const std::vector<AtomSite>& atoms,
                                   const GridSettings& settings) {
  SWRAMAN_REQUIRE(!atoms.empty(), "build_molecular_grid: no atoms");
  const auto partition_weight = [&](std::size_t a, const Vec3& p) {
    if (settings.partition == PartitionScheme::Becke) {
      return becke_weight(atoms, a, p);
    }
    if (settings.free_atom_density) {
      return hirshfeld_weight(atoms, a, p, settings.free_atom_density);
    }
    return hirshfeld_weight(atoms, a, p, model_free_density);
  };
  MolecularGrid grid;
  grid.atoms = atoms;

  const int ang_order = angular_order(settings);
  const AngularGrid outer = angular_grid_for_order(ang_order);
  // Pruned angular grids: coarse near the nucleus where the integrand is
  // nearly spherical, full order outside.
  const AngularGrid inner = angular_grid_for_order(5);
  const AngularGrid mid = angular_grid_for_order(std::min(ang_order, 11));

  for (std::size_t a = 0; a < atoms.size(); ++a) {
    const AtomSite& atom = atoms[a];
    const double r_m = 0.5 * element(atom.z).bragg_radius_bohr +
                       0.35;  // Becke map scale, clipped away from zero
    const int n_rad = radial_count(settings, atom.z);
    const Quadrature1D rad =
        becke_radial(static_cast<std::size_t>(n_rad), r_m);

    // becke_radial returns descending radii; iterate ascending so the shell
    // list is ordered for the radial Poisson integrals.
    for (std::size_t ir = rad.nodes.size(); ir-- > 0;) {
      const double r = rad.nodes[ir];
      if (r > 12.0) continue;  // beyond any basis-function extent
      const AngularGrid* ang = &outer;
      if (settings.prune) {
        if (r < 0.15 * r_m) {
          ang = &inner;
        } else if (r < 0.6 * r_m) {
          ang = &mid;
        }
      }
      ShellInfo shell;
      shell.atom = static_cast<int>(a);
      shell.radius = r;
      shell.w_radial = rad.weights[ir];
      shell.angular_order = ang->design_order;
      shell.first_point = grid.points.size();
      shell.n_points = ang->points.size();
      for (std::size_t ia = 0; ia < ang->points.size(); ++ia) {
        const Vec3 p = atom.pos + r * ang->points[ia];
        // becke_radial weights already include r^2 and angular weights sum
        // to 4*pi, so their product integrates d3r; the Becke partition
        // weight stitches the atomic grids into one molecular rule. Shells
        // are kept complete (no per-point pruning) so angular projections
        // onto Y_lm stay exact.
        const double part = partition_weight(a, p);
        grid.points.push_back(p);
        grid.weights.push_back(rad.weights[ir] * ang->weights[ia] * part);
        grid.partition.push_back(part);
        grid.angular_weight.push_back(ang->weights[ia]);
        grid.owner_atom.push_back(static_cast<int>(a));
      }
      grid.shells.push_back(shell);
    }
  }
  return grid;
}

}  // namespace swraman::grid
