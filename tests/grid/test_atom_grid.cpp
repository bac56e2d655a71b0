#include "grid/atom_grid.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/constants.hpp"

namespace swraman::grid {

// Names the ctest cases (light, tight, really_tight) instead of dumping the
// enum's bytes; gtest looks it up in the enum's namespace.
static void PrintTo(GridLevel level, std::ostream* os) {
  *os << (level == GridLevel::Light   ? "light"
          : level == GridLevel::Tight ? "tight"
                                      : "really_tight");
}

namespace {

std::vector<AtomSite> h2_sites() {
  return {{1, {0.0, 0.0, 0.0}}, {1, {0.0, 0.0, 1.4}}};
}

TEST(BeckeWeight, PartitionOfUnity) {
  const std::vector<AtomSite> atoms = {
      {1, {0.0, 0.0, 0.0}}, {8, {0.0, 0.0, 1.8}}, {1, {1.4, 0.0, 2.4}}};
  for (const Vec3& r : {Vec3{0.3, 0.2, 0.5}, Vec3{0.0, 0.0, 1.0},
                        Vec3{1.0, -0.5, 2.0}, Vec3{5.0, 5.0, 5.0}}) {
    double sum = 0.0;
    for (std::size_t a = 0; a < atoms.size(); ++a) {
      const double w = becke_weight(atoms, a, r);
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, 1.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(BeckeWeight, DominatedByNearestAtom) {
  const std::vector<AtomSite> atoms = h2_sites();
  EXPECT_GT(becke_weight(atoms, 0, {0.0, 0.0, 0.05}), 0.99);
  EXPECT_GT(becke_weight(atoms, 1, {0.0, 0.0, 1.35}), 0.99);
}

TEST(BeckeWeight, SizeAdjustmentFavorsLargerAtom) {
  // At the geometric midpoint of an O-H bond the larger O atom should own
  // more of the weight than it would in a same-size pair.
  const std::vector<AtomSite> oh = {{8, {0.0, 0.0, 0.0}},
                                    {1, {0.0, 0.0, 1.8}}};
  const std::vector<AtomSite> hh = {{1, {0.0, 0.0, 0.0}},
                                    {1, {0.0, 0.0, 1.8}}};
  const Vec3 mid{0.0, 0.0, 0.9};
  EXPECT_GT(becke_weight(oh, 0, mid), becke_weight(hh, 0, mid));
}

TEST(MolecularGrid, IntegratesGaussianOnHydrogen) {
  const std::vector<AtomSite> atoms = {{1, {0.0, 0.0, 0.0}}};
  const MolecularGrid grid = build_molecular_grid(atoms, {});
  // integral exp(-r^2) d3r = pi^{3/2}.
  double s = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    s += grid.weights[i] * std::exp(-grid.points[i].norm2());
  }
  EXPECT_NEAR(s, std::pow(kPi, 1.5), 1e-5);
}

TEST(MolecularGrid, IntegratesOffCenterDensityOnH2) {
  const MolecularGrid grid = build_molecular_grid(h2_sites(), {});
  // Two unit-norm 1s densities: integral = 2.
  double s = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (const AtomSite& a : grid.atoms) {
      const double r = distance(grid.points[i], a.pos);
      s += grid.weights[i] * std::exp(-2.0 * r) / kPi;
    }
  }
  EXPECT_NEAR(s, 2.0, 1e-4);
}

class GridLevelCase : public ::testing::TestWithParam<GridLevel> {};

TEST_P(GridLevelCase, TighterLevelsHaveMorePointsAndStayAccurate) {
  GridSettings s;
  s.level = GetParam();
  const std::vector<AtomSite> atoms = {{6, {0.0, 0.0, 0.0}}};
  const MolecularGrid grid = build_molecular_grid(atoms, s);
  EXPECT_GT(grid.size(), 100u);
  // Normalized Slater density with carbon-like exponent.
  const double zeta = 3.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double r = grid.points[i].norm();
    sum += grid.weights[i] * std::exp(-2.0 * zeta * r) * zeta * zeta * zeta /
           kPi;
  }
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Levels, GridLevelCase,
                         ::testing::Values(GridLevel::Light, GridLevel::Tight,
                                           GridLevel::ReallyTight));

TEST(MolecularGrid, OwnerAtomsAreValid) {
  const MolecularGrid grid = build_molecular_grid(h2_sites(), {});
  for (int a : grid.owner_atom) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 2);
  }
  EXPECT_EQ(grid.points.size(), grid.weights.size());
  EXPECT_EQ(grid.points.size(), grid.owner_atom.size());
}

}  // namespace
}  // namespace swraman::grid
// -- appended coverage: Hirshfeld (stockholder) partitioning.

namespace swraman::grid {
namespace {

double slater_density(int z, double r) {
  return static_cast<double>(z) * std::exp(-2.0 * r);
}

TEST(HirshfeldWeight, PartitionOfUnity) {
  const std::vector<AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                       {1, {0.0, 0.0, 1.8}},
                                       {1, {1.4, 0.0, 2.4}}};
  for (const Vec3& r : {Vec3{0.2, 0.1, 0.4}, Vec3{0.0, 0.0, 1.0},
                        Vec3{2.0, 1.0, 2.0}}) {
    double sum = 0.0;
    for (std::size_t a = 0; a < atoms.size(); ++a) {
      const double w = hirshfeld_weight(atoms, a, r, slater_density);
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, 1.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(HirshfeldWeight, FarPointFallsBackToNearestAtom) {
  const std::vector<AtomSite> atoms = {{1, {0.0, 0.0, 0.0}},
                                       {1, {0.0, 0.0, 2.0}}};
  // 400 Bohr away: both densities underflow; nearest atom owns the point.
  EXPECT_DOUBLE_EQ(
      hirshfeld_weight(atoms, 1, {0.0, 0.0, 400.0}, slater_density), 1.0);
  EXPECT_DOUBLE_EQ(
      hirshfeld_weight(atoms, 0, {0.0, 0.0, 400.0}, slater_density), 0.0);
}

TEST(HirshfeldGrid, IntegratesDensityLikeBecke) {
  GridSettings hirshfeld;
  hirshfeld.partition = PartitionScheme::Hirshfeld;
  const std::vector<AtomSite> atoms = {{1, {0.0, 0.0, 0.0}},
                                       {1, {0.0, 0.0, 1.4}}};
  const MolecularGrid g = build_molecular_grid(atoms, hirshfeld);
  double q = 0.0;
  for (std::size_t p = 0; p < g.size(); ++p) {
    for (const AtomSite& a : g.atoms) {
      const double r = distance(g.points[p], a.pos);
      q += g.weights[p] * std::exp(-2.0 * r) / kPi;
    }
  }
  EXPECT_NEAR(q, 2.0, 2e-4);
}

}  // namespace
}  // namespace swraman::grid
