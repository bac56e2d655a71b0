#include "scf/scf_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "robustness/fault.hpp"
#include "scf/forces.hpp"

namespace swraman::grid {
// Names the ctest cases (light, tight, really_tight) instead of dumping the
// enum's bytes; gtest looks it up in the enum's namespace.
static void PrintTo(GridLevel level, std::ostream* os) {
  *os << (level == GridLevel::Light   ? "light"
          : level == GridLevel::Tight ? "tight"
                                      : "really_tight");
}
}  // namespace swraman::grid

namespace swraman::scf {
namespace {

std::vector<grid::AtomSite> h2(double bond = 1.4) {
  return {{1, {0.0, 0.0, 0.0}}, {1, {0.0, 0.0, bond}}};
}

std::vector<grid::AtomSite> water() {
  const double oh = 0.9572 * kBohrPerAngstrom;
  const double half = 0.5 * 104.5 * kPi / 180.0;
  return {{8, {0.0, 0.0, 0.0}},
          {1, {oh * std::sin(half), 0.0, oh * std::cos(half)}},
          {1, {-oh * std::sin(half), 0.0, oh * std::cos(half)}}};
}

TEST(ScfEngine, HydrogenAtomMatchesAtomicSolver) {
  ScfOptions opt;
  const ScfEngine eng({{1, {0.0, 0.0, 0.0}}}, opt);
  // Molecular machinery on a single atom must land near the radial
  // solver's LDA reference (-0.4457 Ha; the confined species basis and
  // finite grid shift it slightly).
  // Smearing puts one electron in a doubly-degenerate level: fine in
  // restricted KS.
  GroundState gs = const_cast<ScfEngine&>(eng).solve();
  EXPECT_TRUE(gs.converged);
  EXPECT_NEAR(gs.total_energy, -0.4457, 0.03);
}

TEST(ScfEngine, H2GroundState) {
  ScfEngine eng(h2(), {});
  const GroundState gs = eng.solve();
  EXPECT_TRUE(gs.converged);
  EXPECT_LT(gs.iterations, 40);
  // Minimal+pol NAO basis: E between the atomic limit and the
  // complete-basis LDA value (-1.137).
  EXPECT_LT(gs.total_energy, -1.00);
  EXPECT_GT(gs.total_energy, -1.20);
  // Homonuclear: no dipole.
  EXPECT_NEAR(gs.dipole.norm(), 0.0, 1e-3);
  EXPECT_GT(gs.homo_lumo_gap, 0.3);
}

// Coincident nuclei are rejected before a grid or basis is built on them,
// with an error naming both atoms (not an eigensolver failure deep in the
// overlap set-up).
TEST(ScfEngine, RejectsCoincidentNucleiUpFront) {
  const auto message = [](const std::vector<grid::AtomSite>& atoms) {
    try {
      const ScfEngine eng(atoms, {});
      ADD_FAILURE() << "the engine accepted coincident nuclei";
    } catch (const GeometryError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message(h2(0.0)).find("nuclei 0 and 1"), std::string::npos);
  std::vector<grid::AtomSite> atoms = water();
  atoms.push_back(atoms[1]);
  atoms.back().pos[0] += 0.5 * kMinNuclearSeparation;
  EXPECT_NE(message(atoms).find("nuclei 1 and 3"), std::string::npos);
  // Ten times the floor is still an engine (a meaningless one).
  EXPECT_NO_THROW(ScfEngine(h2(10.0 * kMinNuclearSeparation), {}));
}

// One NaN in the density matrix on the iteration that would converge: only
// the max_abs step check stands between it and a "converged" result, since
// the grid passes need not multiply it into the grid density.
TEST(ScfEngine, PoisonedDensityMatrixTakesRecoveryPath) {
  fault::ScopedFaults guard;
  GroundState clean;
  {
    ScfEngine eng(h2(), {});
    clean = eng.solve();
  }
  ASSERT_TRUE(clean.converged);
  fault::FaultSpec spec;
  spec.fire_at = clean.iterations;
  fault::FaultInjector::instance().configure(fault::kScfPoisonDensityMatrix,
                                             spec);
  ScfEngine eng(h2(), {});
  const GroundState gs = eng.solve();
  EXPECT_EQ(fault::FaultInjector::instance()
                .stats(fault::kScfPoisonDensityMatrix)
                .fires,
            1u);
  EXPECT_TRUE(gs.converged);
  for (std::size_t i = 0; i < gs.density.rows(); ++i) {
    for (std::size_t j = 0; j < gs.density.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(gs.density(i, j))) << i << "," << j;
    }
  }
  // The restarted cycle converges to the same ground state.
  EXPECT_NEAR(gs.total_energy, clean.total_energy, 1e-6);
}

TEST(ScfEngine, H2BindingCurveHasMinimum) {
  double e_short = 0.0, e_eq = 0.0, e_long = 0.0;
  {
    ScfEngine eng(h2(1.0), {});
    e_short = eng.solve().total_energy;
  }
  {
    ScfEngine eng(h2(1.45), {});
    e_eq = eng.solve().total_energy;
  }
  {
    ScfEngine eng(h2(2.2), {});
    e_long = eng.solve().total_energy;
  }
  EXPECT_LT(e_eq, e_short);
  EXPECT_LT(e_eq, e_long);
}

TEST(ScfEngine, ElectronCountFromDensityMatrix) {
  ScfEngine eng(water(), {});
  const GroundState gs = eng.solve();
  // Tr(P S) = number of electrons.
  EXPECT_NEAR(linalg::trace_product(gs.density, eng.overlap()), 10.0, 1e-6);
  // The grid-integrated density also carries 10 electrons.
  const std::vector<double> n = eng.density_on_grid(gs.density);
  double q = 0.0;
  for (std::size_t p = 0; p < eng.grid().size(); ++p) {
    q += eng.grid().weights[p] * n[p];
  }
  EXPECT_NEAR(q, 10.0, 5e-3);
}

TEST(ScfEngine, WaterGroundState) {
  ScfEngine eng(water(), {});
  const GroundState gs = eng.solve();
  EXPECT_TRUE(gs.converged);
  // LDA water: about -75.9 Ha at basis-set convergence.
  EXPECT_NEAR(gs.total_energy, -75.85, 0.15);
  // Dipole along +z (C2v axis pointing at the hydrogens), about 1.4-1.9 D.
  EXPECT_GT(gs.dipole.z, 0.4);
  EXPECT_LT(gs.dipole.z, 0.85);
  EXPECT_NEAR(gs.dipole.x, 0.0, 1e-3);
  EXPECT_NEAR(gs.dipole.y, 0.0, 1e-3);
  EXPECT_GT(gs.homo_lumo_gap, 0.2);
}

TEST(ScfEngine, OverlapIsPositiveDefiniteAndNormalized) {
  ScfEngine eng(h2(), {});
  const linalg::Matrix& s = eng.overlap();
  for (std::size_t i = 0; i < s.rows(); ++i) {
    EXPECT_NEAR(s(i, i), 1.0, 2e-2) << "diagonal " << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_LT(std::abs(s(i, j)), 1.0) << i << "," << j;
    }
  }
}

TEST(ScfEngine, KineticEnergyPositive) {
  ScfEngine eng(water(), {});
  const GroundState gs = eng.solve();
  const double ts = linalg::trace_product(gs.density, eng.kinetic());
  EXPECT_GT(ts, 0.0);
  // Virial-like sanity: kinetic comparable to |total| for LDA water.
  EXPECT_GT(ts, 40.0);
  EXPECT_LT(ts, 110.0);
}

TEST(ScfEngine, FiniteFieldShiftsDipole) {
  ScfOptions plus;
  plus.electric_field = {0.0, 0.0, 0.005};
  ScfOptions minus;
  minus.electric_field = {0.0, 0.0, -0.005};
  ScfEngine ep(h2(), plus);
  ScfEngine em(h2(), minus);
  const GroundState gp = ep.solve();
  const GroundState gm = em.solve();
  // Polarizability alpha_zz = d(mu_z)/dF_z must be positive.
  const double alpha = (gp.dipole.z - gm.dipole.z) / 0.01;
  EXPECT_GT(alpha, 1.0);
  EXPECT_LT(alpha, 30.0);
}

TEST(ScfEngine, DipoleMatrixMatchesGridIntegral) {
  ScfEngine eng(h2(), {});
  const linalg::Matrix d = eng.dipole_matrix(2);
  // <chi_0 | z | chi_0> for the 1s on atom 0 at origin: the density is
  // symmetric around z=0, so the matrix element is ~0... the atom sits at
  // z=0 so <z> = 0; for the atom at z=1.4, <z> = 1.4.
  double diag_atom1 = 0.0;
  for (std::size_t k = 0; k < eng.basis().size(); ++k) {
    const auto& fn = eng.basis().functions()[k];
    if (fn.atom == 1 && fn.l == 0) diag_atom1 = d(k, k);
  }
  EXPECT_NEAR(diag_atom1, 1.4, 5e-2);
}

class ScfGridLevel : public ::testing::TestWithParam<grid::GridLevel> {};

TEST_P(ScfGridLevel, EnergyStableAcrossGridLevels) {
  ScfOptions opt;
  opt.grid.level = GetParam();
  ScfEngine eng(h2(), opt);
  const GroundState gs = eng.solve();
  EXPECT_TRUE(gs.converged);
  EXPECT_NEAR(gs.total_energy, -1.07, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Levels, ScfGridLevel,
                         ::testing::Values(grid::GridLevel::Light,
                                           grid::GridLevel::Tight));

TEST(ScfEngine, GtoBackendAgreesRoughlyWithNao) {
  ScfOptions gto;
  gto.species.backend = basis::Backend::Gto;
  ScfEngine nao_eng(h2(), {});
  ScfEngine gto_eng(h2(), gto);
  const double e_nao = nao_eng.solve().total_energy;
  const double e_gto = gto_eng.solve().total_energy;
  // Different radial representations, same physics: within ~0.1 Ha.
  EXPECT_NEAR(e_nao, e_gto, 0.1);
}

}  // namespace
}  // namespace swraman::scf
// -- appended coverage: SCF restart from a previous density matrix.

namespace swraman::scf {
namespace {

TEST(ScfEngine, DirectSolversAndForceSiblingsHoldEvaluationPlans) {
  // solve() requests the Direct evaluation plan; the ForceEvaluator's
  // displaced siblings request theirs at an equal share of one
  // kPlanByteCap, built by the first forces() call; an Fmm engine holds
  // none.
  ScfOptions opt;
  opt.species.tier = basis::Tier::Minimal;
  opt.grid.level = grid::GridLevel::Light;
  ScfEngine direct(h2(), opt);
  EXPECT_EQ(direct.poisson().planned_points(), 0u);
  const GroundState gs = direct.solve();
  EXPECT_EQ(direct.poisson().planned_points(), direct.grid().size());
  EXPECT_GT(direct.poisson().plan_bytes(), 0u);

  const ForceEvaluator forces(h2(), opt);
  constexpr std::size_t kSiblings = 2 * 3 * 2;
  for (std::size_t i = 0; i < kSiblings; ++i) {
    EXPECT_EQ(forces.displaced(i).poisson().planned_points(), 0u) << i;
  }
  (void)forces.forces(gs);
  for (std::size_t i = 0; i < kSiblings; ++i) {
    const hartree::MultipoleSolver& solver = forces.displaced(i).poisson();
    EXPECT_EQ(solver.planned_points(), forces.displaced(i).grid().size())
        << i;
    EXPECT_GT(solver.plan_bytes(), 0u) << i;
    EXPECT_LE(solver.plan_bytes(),
              hartree::MultipoleSolver::kPlanByteCap / kSiblings)
        << i;
  }

  ScfOptions fmm_opt = opt;
  fmm_opt.hartree_backend = fmm::HartreeBackend::Fmm;
  ScfEngine fmm(h2(), fmm_opt);
  (void)fmm.solve();
  EXPECT_EQ(fmm.poisson().planned_points(), 0u);
  EXPECT_EQ(fmm.poisson().plan_bytes(), 0u);
}

TEST(ForceEvaluator, ConcurrentFirstForcesAreBitwise) {
  // Three threads call forces() on one fresh evaluator, so they race the
  // siblings' plan builds (std::call_once per solver); each result is
  // bitwise that of a serial call on another fresh evaluator.
  ScfOptions opt;
  opt.species.tier = basis::Tier::Minimal;
  opt.grid.level = grid::GridLevel::Light;
  ScfEngine engine(h2(), opt);
  const GroundState gs = engine.solve();
  const Vec3 field{0.0, 0.0, 1e-2};
  const std::vector<double> ref = ForceEvaluator(h2(), opt).forces(gs, field);

  const ForceEvaluator shared(h2(), opt);
  constexpr int kThreads = 3;
  std::vector<std::vector<double>> out(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      out[static_cast<std::size_t>(t)] = shared.forces(gs, field);
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::vector<double>& f : out) {
    ASSERT_EQ(f.size(), ref.size());
    EXPECT_EQ(std::memcmp(f.data(), ref.data(), ref.size() * sizeof(double)),
              0);
  }
}

// The Fermi search as it stood before its early exit and exp shortcuts:
// 200 bisection steps, every occupation through exp.
std::vector<double> fermi_reference(const std::vector<double>& eigenvalues,
                                    double n_electrons, double smearing,
                                    double* fermi) {
  const double kt = std::max(smearing, 1e-8);
  const auto count = [&](double mu) {
    double n = 0.0;
    for (double e : eigenvalues) {
      n += 2.0 / (1.0 + std::exp((e - mu) / kt));
    }
    return n;
  };
  double lo = eigenvalues.front() - 10.0;
  double hi = eigenvalues.back() + 10.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (count(mid) < n_electrons) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double mu = 0.5 * (lo + hi);
  *fermi = mu;
  std::vector<double> occ(eigenvalues.size());
  for (std::size_t i = 0; i < occ.size(); ++i) {
    occ[i] = 2.0 / (1.0 + std::exp((eigenvalues[i] - mu) / kt));
  }
  return occ;
}

// fermi_occupations reads only the engine's smearing.
ScfEngine fermi_engine(double smearing) {
  ScfOptions opt;
  opt.species.tier = basis::Tier::Minimal;
  opt.grid.level = grid::GridLevel::Light;
  opt.smearing = smearing;
  return ScfEngine(h2(), opt);
}

TEST(ScfFermi, OccupationsSumToElectronCount) {
  const ScfEngine engine = fermi_engine(1e-3);
  const std::vector<double> eps{-20.1, -1.3, -0.7, -0.52, -0.49, 0.1, 0.4};
  for (double n_elec : {2.0, 6.0, 8.0, 10.0}) {
    double mu = 0.0;
    const std::vector<double> occ =
        engine.fermi_occupations(eps, n_elec, &mu);
    double sum = 0.0;
    for (double f : occ) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 2.0);
      sum += f;
    }
    EXPECT_NEAR(sum, n_elec, 1e-9) << n_elec;
  }
}

TEST(ScfFermi, DegenerateHomosShareEqually) {
  // Three degenerate levels hold the last 2 of 8 electrons: 2/3 each.
  const ScfEngine engine = fermi_engine(1e-3);
  const std::vector<double> eps{-10.0, -1.0, -0.5, -0.3, -0.3, -0.3, 0.5};
  double mu = 0.0;
  const std::vector<double> occ = engine.fermi_occupations(eps, 8.0, &mu);
  EXPECT_EQ(occ[3], occ[4]);
  EXPECT_EQ(occ[4], occ[5]);
  EXPECT_NEAR(occ[3], 2.0 / 3.0, 1e-9);
  EXPECT_EQ(occ[0], 2.0);
  EXPECT_EQ(occ[6], 0.0);
}

TEST(ScfFermi, BitwiseTheTwoHundredStepSearch) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> level(-5.0, 3.0);
  std::uniform_real_distribution<double> tiny(0.0, 1e-9);
  for (double smearing : {1e-3, 0.05, 1e-8}) {
    const ScfEngine engine = fermi_engine(smearing);
    for (int t = 0; t < 60; ++t) {
      std::vector<double> eps(4 + static_cast<std::size_t>(t % 9));
      for (double& e : eps) e = level(rng);
      std::sort(eps.begin(), eps.end());
      const std::size_t homo = eps.size() / 2;
      if (t % 4 == 1) {
        // Near-gapless: the LUMO sits within 1e-9 Ha of the HOMO.
        eps[homo] = eps[homo - 1] + tiny(rng);
      } else if (t % 4 == 2) {
        eps.front() = -1e4;  // a deep core level
      }
      std::sort(eps.begin(), eps.end());
      const double n_elec = 2.0 * static_cast<double>(homo);
      double mu = 0.0;
      double mu_ref = 0.0;
      const std::vector<double> occ =
          engine.fermi_occupations(eps, n_elec, &mu);
      const std::vector<double> ref =
          fermi_reference(eps, n_elec, smearing, &mu_ref);
      EXPECT_EQ(std::memcmp(&mu, &mu_ref, sizeof(double)), 0)
          << "smearing " << smearing << " case " << t;
      ASSERT_EQ(occ.size(), ref.size());
      EXPECT_EQ(std::memcmp(occ.data(), ref.data(), ref.size() * sizeof(double)),
                0)
          << "smearing " << smearing << " case " << t;
    }
  }
}

TEST(ScfRestart, SameEnergyFewerIterations) {
  const auto eq = water();
  ScfEngine eq_engine(eq, {});
  const GroundState eq_gs = eq_engine.solve();

  // Displaced geometry, cold start vs restart from the equilibrium density.
  auto moved = eq;
  moved[1].pos.x += 0.02;
  ScfEngine cold_engine(moved, {});
  const GroundState cold = cold_engine.solve();
  ScfEngine warm_engine(moved, {});
  const GroundState warm = warm_engine.solve(&eq_gs.density);

  EXPECT_TRUE(cold.converged);
  EXPECT_TRUE(warm.converged);
  EXPECT_NEAR(warm.total_energy, cold.total_energy, 1e-7);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(ScfRestart, WrongDimensionFallsBackToSuperposition) {
  ScfEngine engine(water(), {});
  const linalg::Matrix junk(3, 3, 1.0);  // wrong basis dimension
  const GroundState gs = engine.solve(&junk);
  EXPECT_TRUE(gs.converged);
  EXPECT_NEAR(gs.total_energy, -75.8084, 2e-3);
}

}  // namespace
}  // namespace swraman::scf
