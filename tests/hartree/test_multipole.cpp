#include "hartree/multipole.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/spline.hpp"
#include "core/molecules.hpp"
#include "obs/trace.hpp"

namespace swraman::hartree {
namespace {

// Normalized Gaussian density centered at c: V(r) = erf(sqrt(a) |r-c|)/|r-c|.
double gaussian_density(const Vec3& r, const Vec3& c, double a) {
  return std::pow(a / kPi, 1.5) * std::exp(-a * (r - c).norm2());
}

double gaussian_potential(const Vec3& r, const Vec3& c, double a) {
  const double d = (r - c).norm();
  if (d < 1e-8) return 2.0 * std::sqrt(a / kPi);
  return std::erf(std::sqrt(a) * d) / d;
}

grid::MolecularGrid make_grid(const std::vector<grid::AtomSite>& atoms,
                              grid::GridLevel level = grid::GridLevel::Tight) {
  grid::GridSettings s;
  s.level = level;
  return grid::build_molecular_grid(atoms, s);
}

TEST(Multipole, OnCenterGaussianPotential) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 6);

  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.2);
  }
  const MultipolePotential pot = solver.solve(n);
  EXPECT_NEAR(pot.total_charge(), 1.0, 1e-4);

  for (const Vec3& r : {Vec3{0.5, 0.0, 0.0}, Vec3{0.0, 1.0, 0.5},
                        Vec3{2.0, 1.0, -1.0}, Vec3{6.0, 0.0, 0.0}}) {
    EXPECT_NEAR(pot.value(r), gaussian_potential(r, {0, 0, 0}, 1.2), 5e-4)
        << r;
  }
}

TEST(Multipole, OffCenterGaussianNeedsHigherMultipoles) {
  // A Gaussian displaced from the only atomic center exercises l > 0.
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 8);

  const Vec3 c{0.0, 0.0, 0.5};
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], c, 2.0);
  }
  const MultipolePotential pot = solver.solve(n);
  for (const Vec3& r : {Vec3{0.0, 0.0, 3.0}, Vec3{2.0, 0.0, 0.0},
                        Vec3{0.0, -2.5, 1.0}}) {
    EXPECT_NEAR(pot.value(r), gaussian_potential(r, c, 2.0), 5e-3) << r;
  }
}

TEST(Multipole, TwoCenterDensity) {
  const std::vector<grid::AtomSite> atoms = {{1, {0.0, 0.0, 0.0}},
                                             {1, {0.0, 0.0, 1.4}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 6);

  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], atoms[0].pos, 1.5) +
           gaussian_density(g.points[p], atoms[1].pos, 1.5);
  }
  const MultipolePotential pot = solver.solve(n);
  EXPECT_NEAR(pot.total_charge(), 2.0, 2e-4);
  for (const Vec3& r : {Vec3{0.0, 0.0, 0.7}, Vec3{1.5, 0.0, 0.7},
                        Vec3{0.0, 0.0, 4.0}, Vec3{0.0, 3.0, 0.0}}) {
    const double exact = gaussian_potential(r, atoms[0].pos, 1.5) +
                         gaussian_potential(r, atoms[1].pos, 1.5);
    EXPECT_NEAR(pot.value(r), exact, 5e-3) << r;
  }
}

TEST(Multipole, FarFieldIsMonopole) {
  const std::vector<grid::AtomSite> atoms = {{6, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 4);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 0.8);
  }
  const MultipolePotential pot = solver.solve(n);
  for (double r : {15.0, 25.0, 60.0}) {
    EXPECT_NEAR(pot.value({r, 0.0, 0.0}), 1.0 / r, 1e-4 / r);
  }
}

// A water molecule on one grid, with a density that reaches every
// resolved channel.
struct WaterCase {
  grid::MolecularGrid grid;
  std::vector<double> density;
};

WaterCase water_case(const grid::GridSettings& settings,
                     const std::vector<grid::AtomSite>& atoms = {
                         {8, {0.0, 0.0, 0.0}},
                         {1, {1.43, 0.0, 1.11}},
                         {1, {-1.43, 0.0, 1.11}}}) {
  WaterCase w{grid::build_molecular_grid(atoms, settings), {}};
  w.density.resize(w.grid.size());
  for (std::size_t p = 0; p < w.grid.size(); ++p) {
    for (const grid::AtomSite& a : atoms) {
      w.density[p] += gaussian_density(w.grid.points[p],
                                       a.pos + Vec3{0.0, 0.1, 0.2},
                                       a.z > 1 ? 1.1 : 1.7);
    }
  }
  return w;
}

// The three grid shapes the Hartree tests pin: Light, serve (12 shells,
// order 5) and golden water (16 shells, order 7).
std::vector<std::pair<const char*, grid::GridSettings>> plan_grids() {
  grid::GridSettings light;
  light.level = grid::GridLevel::Light;
  grid::GridSettings serve;
  serve.n_radial = 12;
  serve.angular_order = 5;
  grid::GridSettings water;
  water.n_radial = 16;
  water.angular_order = 7;
  return {{"light", light}, {"serve 12/5", serve}, {"water 16/7", water}};
}

std::vector<double> pointwise(const MultipolePotential& pot,
                              const grid::MolecularGrid& g) {
  std::vector<double> v(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) v[p] = pot.value(g.points[p]);
  return v;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Multipole, SolveOnGridMatchesPointwiseEvaluation) {
  // Planned and unplanned evaluation on every grid point are bitwise the
  // pointwise value(), with both near and far (point, atom) pairs present.
  for (const auto& [name, settings] : plan_grids()) {
    SCOPED_TRACE(name);
    const WaterCase w = water_case(settings);
    const grid::MolecularGrid& g = w.grid;
    MultipoleSolver planned(g, 6);
    planned.request_plan();
    const MultipoleSolver unplanned(g, 6);
    const MultipolePotential pot = planned.solve(w.density);
    const std::vector<double> ref = pointwise(pot, g);

    std::size_t near = 0;
    std::size_t far = 0;
    for (std::size_t p = 0; p < g.size(); ++p) {
      for (std::size_t a = 0; a < pot.n_atoms(); ++a) {
        const double r = (g.points[p] - pot.centers()[a]).norm();
        (r <= pot.outer_radius(a) ? near : far) += 1;
      }
    }
    EXPECT_GT(near, 0u);
    EXPECT_GT(far, 0u);

    EXPECT_EQ(planned.planned_points(), 0u);  // built on first evaluation
    EXPECT_TRUE(bitwise_equal(planned.solve_on_grid(w.density), ref));
    EXPECT_EQ(planned.planned_points(), g.size());
    EXPECT_GT(planned.plan_bytes(), 0u);
    EXPECT_LE(planned.plan_bytes(), MultipoleSolver::kPlanByteCap);
    EXPECT_TRUE(bitwise_equal(planned.evaluate_on_grid(pot), ref));
    EXPECT_TRUE(bitwise_equal(unplanned.solve_on_grid(w.density), ref));
    EXPECT_EQ(unplanned.planned_points(), 0u);
    EXPECT_EQ(unplanned.plan_bytes(), 0u);
  }
}

TEST(Multipole, PlanPastTheByteCapFallsBackBitwise) {
  // A 12-molecule water cluster on the serve grid needs more than the
  // plan's byte cap: a prefix of the points is planned, the rest are
  // evaluated pointwise, and both agree bitwise with value().
  grid::GridSettings serve;
  serve.n_radial = 12;
  serve.angular_order = 5;
  const WaterCase w = water_case(serve, molecules::water_cluster(12));
  MultipoleSolver solver(w.grid, 6);
  solver.request_plan();
  const MultipolePotential pot = solver.solve(w.density);
  const std::vector<double> v = solver.evaluate_on_grid(pot);
  EXPECT_GT(solver.planned_points(), 0u);
  EXPECT_LT(solver.planned_points(), w.grid.size());
  EXPECT_LE(solver.plan_bytes(), MultipoleSolver::kPlanByteCap);
  EXPECT_TRUE(bitwise_equal(v, pointwise(pot, w.grid)));
}

TEST(Multipole, ConcurrentFirstEvaluationBuildsPlanOnce) {
  // Threads race the first evaluation of a shared planned solver; the plan
  // is built once (std::call_once) and every output is bitwise the
  // pointwise value().
  grid::GridSettings serve;
  serve.n_radial = 12;
  serve.angular_order = 5;
  const WaterCase w = water_case(serve);
  MultipoleSolver solver(w.grid, 6);
  solver.request_plan();
  const MultipolePotential pot = solver.solve(w.density);
  const std::vector<double> ref = pointwise(pot, w.grid);

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> out(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      out[static_cast<std::size_t>(t)] = solver.evaluate_on_grid(pot);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(solver.planned_points(), w.grid.size());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(bitwise_equal(out[static_cast<std::size_t>(t)], ref))
        << "thread " << t;
  }
}

class MultipoleLmax : public ::testing::TestWithParam<int> {};

TEST_P(MultipoleLmax, ErrorDecreasesWithLmax) {
  // Convergence with lmax for an off-center source (property sweep).
  const int lmax = GetParam();
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, lmax);
  const Vec3 c{0.0, 0.0, 0.4};
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], c, 2.5);
  }
  const MultipolePotential pot = solver.solve(n);
  const Vec3 probe{0.0, 1.5, 1.0};
  const double err =
      std::abs(pot.value(probe) - gaussian_potential(probe, c, 2.5));
  // Tolerance tightens with lmax.
  const double tol = (lmax <= 2) ? 0.05 : (lmax <= 4 ? 0.01 : 3e-3);
  EXPECT_LT(err, tol) << "lmax=" << lmax;
}

INSTANTIATE_TEST_SUITE_P(Orders, MultipoleLmax, ::testing::Values(2, 4, 6, 8));

}  // namespace
}  // namespace swraman::hartree
// -- appended property coverage.

namespace swraman::hartree {
namespace {

TEST(Multipole, SolverIsLinearInTheDensity) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
  const MultipoleSolver solver(g, 4);
  std::vector<double> n1(g.size());
  std::vector<double> n2(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n1[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.0);
    n2[p] = gaussian_density(g.points[p], {0, 0, 0.3}, 2.0);
  }
  std::vector<double> combo(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    combo[p] = 2.0 * n1[p] - 0.5 * n2[p];
  }
  const MultipolePotential pa = solver.solve(n1);
  const MultipolePotential pb = solver.solve(n2);
  const MultipolePotential pc = solver.solve(combo);
  // Exactly linear up to the channel noise-floor filter (the |rho| <
  // 1e-10 max threshold in the solver is deliberately nonlinear).
  for (const Vec3& r : {Vec3{0.5, 0.2, 1.0}, Vec3{2.0, -1.0, 0.0}}) {
    EXPECT_NEAR(pc.value(r), 2.0 * pa.value(r) - 0.5 * pb.value(r), 1e-8);
  }
  EXPECT_NEAR(pc.total_charge(),
              2.0 * pa.total_charge() - 0.5 * pb.total_charge(), 1e-8);
}

// Reference evaluation of one atom's terms with one CubicSpline per lm
// channel, each built from the table's knots and that channel's column.
// The far field is the analytic multipole sum on the same moments. Terms
// accumulate into v, the running sum value() keeps across atoms.
void per_channel_atom_terms(const MultipolePotential& pot,
                            const std::vector<CubicSpline>& splines,
                            std::size_t atom, const Vec3& point, double& v) {
  if (splines.empty()) return;
  const Vec3 d = point - pot.centers()[atom];
  const double r = std::max(d.norm(), 1e-8);
  grid::YlmWorkspace ws;
  std::vector<double> y;
  grid::real_ylm(d, pot.lmax(), y, ws);
  if (r <= pot.outer_radius(atom)) {
    for (std::size_t lm = 0; lm < splines.size(); ++lm) {
      v += splines[lm].value(r) * y[lm];
    }
    return;
  }
  double rpow = r;
  std::size_t lm = 0;
  for (int l = 0; l <= pot.lmax(); ++l) {
    const double pref = kFourPi / (2.0 * l + 1.0) / rpow;
    for (int m = -l; m <= l; ++m, ++lm) {
      v += pref * pot.moment(atom, lm) * y[lm];
    }
    rpow *= r;
  }
}

// The shared-interval, resolved-channel evaluation against one CubicSpline
// per channel over all n_lm(lmax) channels, on one grid whose shells
// resolve channels up to l_res.
void check_shared_interval_bitwise(const grid::GridSettings& settings,
                                   int l_res) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                             {1, {0.3, -0.2, 1.8}}};
  const grid::MolecularGrid g = grid::build_molecular_grid(atoms, settings);
  const MultipoleSolver solver(g, 6);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0.0, 0.1, 0.2}, 1.1) +
           gaussian_density(g.points[p], atoms[1].pos, 1.7);
  }
  const MultipolePotential pot = solver.solve(n);
  const std::size_t n_lm = grid::n_lm(pot.lmax());

  std::vector<std::vector<CubicSpline>> splines(pot.n_atoms());
  for (std::size_t a = 0; a < pot.n_atoms(); ++a) {
    ASSERT_EQ(pot.l_res(a), l_res) << "atom " << a;
    const MultipolePotential::RadialTable& t = pot.table(a);
    ASSERT_GE(t.knots.size(), 2u);
    ASSERT_EQ(t.values.size(), t.knots.size() * n_lm);
    ASSERT_EQ(t.second.size(), t.knots.size() * n_lm);
    // The off-center densities reach every resolved channel: some l_res
    // moment is nonzero, so the solve did not stop short.
    const std::size_t n_live = grid::n_lm(l_res);
    bool top_live = false;
    for (std::size_t lm = grid::n_lm(l_res - 1); lm < n_live; ++lm) {
      top_live = top_live || pot.moment(a, lm) != 0.0;
    }
    EXPECT_TRUE(top_live) << "atom " << a;
    // Channels above l_res are exactly zero, in the tables and moments.
    for (std::size_t lm = n_live; lm < n_lm; ++lm) {
      SCOPED_TRACE("atom " + std::to_string(a) + " lm " + std::to_string(lm));
      EXPECT_EQ(pot.moment(a, lm), 0.0);
      for (std::size_t k = 0; k < t.knots.size(); ++k) {
        EXPECT_EQ(t.values[k * n_lm + lm], 0.0);
        EXPECT_EQ(t.second[k * n_lm + lm], 0.0);
      }
    }
    for (std::size_t lm = 0; lm < n_lm; ++lm) {
      std::vector<double> column(t.knots.size());
      for (std::size_t k = 0; k < t.knots.size(); ++k) {
        column[k] = t.values[k * n_lm + lm];
      }
      splines[a].emplace_back(t.knots, column);
    }
  }

  // Atom 0 sits at the origin, so a point on the x axis is at distance
  // exactly x from it: that pins the knot-exact and outer-radius regimes.
  const std::vector<double>& knots = pot.table(0).knots;
  const double outer = pot.outer_radius(0);
  std::vector<Vec3> points = {
      {0.5 * knots.front(), 0.0, 0.0},              // below the first knot
      {0.0, 0.0, 1e-12},                            // clamped r = 1e-8
      {knots.front(), 0.0, 0.0},                    // first knot
      {knots[knots.size() / 2], 0.0, 0.0},          // interior knot
      {outer, 0.0, 0.0},                            // outer radius
      {0.5 * (knots[3] + knots[4]), 0.2, -0.1},     // between knots
      {1.1, -0.4, 0.9},                             // between both atoms
      {0.35, -0.15, 1.75},                          // near atom 1
      {1.5 * outer, 0.0, 0.0},                      // far field of atom 0
      {0.0, 3.0 * outer, -2.0 * outer},             // far field of both
  };
  for (std::size_t k = 1; k + 1 < knots.size(); k += 7) {
    points.push_back({knots[k], 0.0, 0.0});
  }
  // Radial sweeps off the symmetry axes, through both atoms' spline
  // spheres. A one-ulp change in a single channel is usually rounded away
  // in the channel sum, so it takes many interior points to expose one.
  const Vec3 dirs[] = {{0.41, -0.23, 0.88}, {-0.7, 0.6, 0.39},
                       {0.12, 0.95, -0.29}, {-0.5, -0.5, -0.71}};
  for (const Vec3& u : dirs) {
    for (int k = 1; k <= 128; ++k) {
      points.push_back(u * (outer * k / 128.0));
    }
  }
  ASSERT_EQ((Vec3{knots.front(), 0.0, 0.0}.norm()), knots.front());
  ASSERT_EQ((Vec3{outer, 0.0, 0.0}.norm()), outer);

  MultipolePotential::Workspace ws;
  for (const Vec3& r : points) {
    double ref = 0.0;
    for (std::size_t a = 0; a < pot.n_atoms(); ++a) {
      double term = 0.0;
      per_channel_atom_terms(pot, splines[a], a, r, term);
      EXPECT_EQ(pot.value_atom(a, r, ws), term) << "atom " << a << " at " << r;
      per_channel_atom_terms(pot, splines[a], a, r, ref);
    }
    EXPECT_EQ(pot.value(r), ref) << r;
    EXPECT_EQ(pot.value(r, ws), ref) << r;
  }
}

TEST(Multipole, SharedIntervalMatchesPerChannelSplineBitwise) {
  // Light resolves l <= 5 of lmax 6; the serve (12 shells, order 5) and
  // golden-water (16 shells, order 7) grids resolve l <= 2 and l <= 3.
  grid::GridSettings light;
  light.level = grid::GridLevel::Light;
  grid::GridSettings serve;
  serve.n_radial = 12;
  serve.angular_order = 5;
  grid::GridSettings water;
  water.n_radial = 16;
  water.angular_order = 7;
  {
    SCOPED_TRACE("light");
    check_shared_interval_bitwise(light, 5);
  }
  {
    SCOPED_TRACE("serve 12/5");
    check_shared_interval_bitwise(serve, 2);
  }
  {
    SCOPED_TRACE("water 16/7");
    check_shared_interval_bitwise(water, 3);
  }
}

TEST(Multipole, SpanReportsResolvedChannels) {
  // The hartree.multipole span carries the channel work of the solve:
  // three atoms on the serve grid resolve l <= 2, 9 channels each.
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                             {1, {1.4, 0.0, 1.1}},
                                             {1, {-1.4, 0.0, 1.1}}};
  grid::GridSettings serve;
  serve.n_radial = 12;
  serve.angular_order = 5;
  const grid::MolecularGrid g = grid::build_molecular_grid(atoms, serve);
  const MultipoleSolver solver(g, 6);
  obs::reset_for_testing();
  obs::set_enabled(true);
  const MultipolePotential pot =
      solver.solve(std::vector<double>(g.size(), 0.0));
  obs::set_enabled(false);
  std::size_t spans = 0;
  for (const obs::SpanRecord& rec : obs::snapshot()) {
    if (rec.name != "hartree.multipole") continue;
    ++spans;
    double channels = -1.0;
    double lmax = -1.0;
    for (const obs::Attr& a : rec.attrs) {
      if (a.key == "channels") channels = a.num;
      if (a.key == "lmax") lmax = a.num;
    }
    EXPECT_EQ(channels, 27.0);
    EXPECT_EQ(lmax, 6.0);
  }
  EXPECT_EQ(spans, 1u);
  for (std::size_t a = 0; a < pot.n_atoms(); ++a) EXPECT_EQ(pot.l_res(a), 2);
  obs::reset_for_testing();
}

TEST(Multipole, PoissonSpanReportsThePlan) {
  // One solve_on_grid is one hartree.poisson span (the plan build adds
  // none), carrying the plan's coverage and size.
  grid::GridSettings serve;
  serve.n_radial = 12;
  serve.angular_order = 5;
  const WaterCase w = water_case(serve);
  MultipoleSolver solver(w.grid, 6);
  solver.request_plan();
  obs::reset_for_testing();
  obs::set_enabled(true);
  (void)solver.solve_on_grid(w.density);
  obs::set_enabled(false);
  std::size_t spans = 0;
  for (const obs::SpanRecord& rec : obs::snapshot()) {
    if (rec.name != "hartree.poisson") continue;
    ++spans;
    double planned = -1.0;
    double bytes = -1.0;
    for (const obs::Attr& a : rec.attrs) {
      if (a.key == "planned_points") planned = a.num;
      if (a.key == "plan_bytes") bytes = a.num;
    }
    EXPECT_EQ(planned, static_cast<double>(w.grid.size()));
    EXPECT_EQ(bytes, static_cast<double>(solver.plan_bytes()));
  }
  EXPECT_EQ(spans, 1u);
  obs::reset_for_testing();
}

TEST(Multipole, ZeroDensityGivesZeroPotential) {
  const std::vector<grid::AtomSite> atoms = {{1, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
  const MultipoleSolver solver(g, 4);
  const MultipolePotential pot =
      solver.solve(std::vector<double>(g.size(), 0.0));
  EXPECT_DOUBLE_EQ(pot.total_charge(), 0.0);
  EXPECT_DOUBLE_EQ(pot.value({1.0, 1.0, 1.0}), 0.0);
}

}  // namespace
}  // namespace swraman::hartree

// Counting global operator new: the per-point evaluation micro-regression
// below pins the workspace hoisting (no heap traffic per value() call on
// the hot Hartree evaluation path). Counting only; allocation behavior is
// unchanged, so the rest of the binary is unaffected.
namespace {
std::atomic<std::size_t> g_allocation_count{0};

// noinline keeps GCC's new/delete pairing analysis from flagging the
// malloc/free backing as mismatched across inlined call sites.
[[gnu::noinline]] void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void counted_release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { counted_release(p); }
void operator delete(void* p, std::size_t) noexcept { counted_release(p); }
void operator delete[](void* p) noexcept { counted_release(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_release(p); }

namespace swraman::hartree {
namespace {

TEST(Multipole, ValueDoesNotAllocatePerPoint) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                             {1, {0.0, 0.0, 1.8}}};
  const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
  const MultipoleSolver solver(g, 6);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.2);
  }
  const MultipolePotential pot = solver.solve(n);

  // First calls size the (thread_local / explicit) workspaces.
  MultipolePotential::Workspace ws;
  double acc = pot.value({1.0, 0.5, -0.3}) + pot.value({1.0, 0.5, -0.3}, ws);
  std::vector<double> ylm;
  grid::real_ylm({1.0, 0.5, -0.3}, 6, ylm);

  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 256; ++i) {
    const Vec3 r{0.3 + 0.02 * i, -0.7, 0.4};
    acc += pot.value(r);
    acc += pot.value(r, ws);
    acc += pot.value_atom(0, r, ws);
    // The convenience overload runs on a thread-local workspace.
    grid::real_ylm(r, 6, ylm);
    acc += ylm[3];
  }
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), before)
      << "per-point evaluation must not touch the heap (acc=" << acc << ")";
}

}  // namespace
}  // namespace swraman::hartree
