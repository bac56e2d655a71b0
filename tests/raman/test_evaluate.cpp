// The displaced-geometry evaluator (raman/evaluate.hpp): one call asking
// for alpha and forces together gives bitwise what two single-purpose
// calls give, a seeded call is bitwise the engine's own seeded solve, and
// every level-1 loop reports a non-converged SCF as ConvergenceError.

#include "raman/evaluate.hpp"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "raman/bec.hpp"
#include "raman/raman.hpp"
#include "raman/vibrations.hpp"
#include "scf/scf_engine.hpp"

namespace swraman::raman {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

scf::ScfOptions fast_scf() {
  scf::ScfOptions o;
  o.species.tier = basis::Tier::Minimal;
  o.grid.n_radial = 16;
  o.grid.angular_order = 7;
  return o;
}

std::vector<grid::AtomSite> h2() {
  return {{1, {0.0, 0.0, 0.0}}, {1, {0.0, 0.0, 1.45}}};
}

TEST(Evaluate, AlphaAndForcesTogetherMatchSeparateCallsBitwise) {
  scf::ScfOptions opt = fast_scf();
  opt.electric_field = field_vector(1, 1e-2);
  const scf::ForceEvaluator forces(h2(), opt);
  const dfpt::DfptOptions dfpt;

  const auto shared = [&]() -> const scf::ForceEvaluator& { return forces; };
  Wants both;
  both.alpha = &dfpt;
  both.forces = shared;
  Wants alpha_only;
  alpha_only.alpha = &dfpt;
  Wants forces_only;
  forces_only.forces = shared;
  const GeometryRecord together = evaluate(h2(), opt, both);
  const GeometryRecord alpha = evaluate(h2(), opt, alpha_only);
  const GeometryRecord force = evaluate(h2(), opt, forces_only);

  EXPECT_TRUE(alpha.forces.empty());
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(bits(together.alpha[i]), bits(alpha.alpha[i])) << i;
    EXPECT_EQ(force.alpha[i], 0.0) << i;
  }
  ASSERT_EQ(together.forces.size(), 6u);
  ASSERT_EQ(force.forces.size(), 6u);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_EQ(bits(together.forces[k]), bits(force.forces[k])) << k;
  }
  for (const GeometryRecord* r : {&alpha, &force}) {
    EXPECT_EQ(bits(r->energy), bits(together.energy));
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(bits(r->dipole[i]), bits(together.dipole[i])) << i;
    }
  }
}

TEST(Evaluate, SeededCallIsTheEnginesSeededSolveBitwise) {
  const scf::ScfOptions opt = fast_scf();
  linalg::Matrix seed;
  Wants keep;
  keep.density = &seed;
  const GeometryRecord eq = evaluate(h2(), opt, keep);
  ASSERT_EQ(seed.rows(), seed.cols());
  ASSERT_GT(seed.rows(), 0u);

  const std::vector<grid::AtomSite> moved = grid::displaced(h2(), 5, 0.01);
  const GeometryRecord got = evaluate(moved, opt, {}, &seed);
  scf::ScfEngine engine(moved, opt);
  const scf::GroundState want = engine.solve(&seed);
  ASSERT_TRUE(want.converged);
  EXPECT_EQ(bits(got.energy), bits(want.total_energy));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bits(got.dipole[i]), bits(want.dipole[static_cast<int>(i)]));
  }
  EXPECT_NE(bits(got.energy), bits(eq.energy));
}

// One SCF iteration never converges.
scf::ScfOptions one_iteration() {
  scf::ScfOptions o = fast_scf();
  o.max_iterations = 1;
  return o;
}

TEST(Evaluate, NonConvergedScfThrowsConvergenceError) {
  EXPECT_THROW((void)evaluate(h2(), one_iteration()), ConvergenceError);
}

// Every level-1 loop surfaces a non-converged SCF as ConvergenceError,
// whichever retry policy it runs.
TEST(LevelOne, NonConvergedScfThrowsConvergenceError) {
  VibrationOptions vib;
  vib.scf = one_iteration();
  EXPECT_THROW((void)energy_hessian(h2(), vib), ConvergenceError);

  RamanOptions raman;
  raman.vibrations = vib;
  RamanCalculator calc(h2(), raman);
  EXPECT_THROW((void)calc.polarizability_derivatives(), ConvergenceError);

  BecOptions bec;
  bec.vibrations = vib;
  BecCalculator bcalc(h2(), bec);
  EXPECT_THROW((void)bcalc.field_records(), ConvergenceError);
}

}  // namespace
}  // namespace swraman::raman
