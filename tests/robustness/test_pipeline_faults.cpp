// End-to-end fault-tolerance coverage: the stack must produce the same
// physics with faults injected (retried DMA, dropped RMA messages, dead
// CPEs, forced SCF/DFPT divergence) as without, and a killed Raman run
// must resume from its checkpoint re-evaluating only the missing
// geometries.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dfpt/dfpt_engine.hpp"
#include "raman/raman.hpp"
#include "robustness/fault.hpp"
#include "scf/scf_engine.hpp"
#include "sunway/cpe_cluster.hpp"
#include "sunway/rma_reduce.hpp"

namespace swraman {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using fault::ScopedFaults;

// Coarse-but-stable settings keep the many SCF solutions in these tests
// cheap; both the clean and the faulty run use the same settings, so the
// comparisons are exact up to the injected-fault recovery.
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

std::vector<grid::AtomSite> water() {
  return {{8, {0.0, 0.0, 0.2217}},
          {1, {0.0, 1.4309, -0.8867}},
          {1, {0.0, -1.4309, -0.8867}}};
}

raman::RamanOptions fast_raman() {
  raman::RamanOptions o;
  o.vibrations.scf = fast_scf();
  // Tight response tolerance: a recovered DFPT cycle must land on the
  // same polarizability to well under the 1e-8 the activity comparison
  // demands after the 1/(2*0.01) finite-difference amplification.
  o.dfpt.tol = 1e-10;
  return o;
}

// --- Sunway layer -------------------------------------------------------

TEST(SunwayFaults, DmaRetriesAreChargedAndSurvivable) {
  ScopedFaults guard;
  FaultInjector::instance().set_seed(17);
  FaultSpec spec;
  spec.probability = 0.05;
  FaultInjector::instance().configure(fault::kDmaFail, spec);

  sunway::CpeCluster cluster(sunway::sw26010pro());
  std::vector<double> src(1024, 1.5);
  std::vector<double> sums(64, 0.0);
  cluster.run([&](sunway::CpeContext& ctx) {
    const auto [lo, hi] = ctx.my_slice(src.size());
    std::vector<double> ldm(hi - lo);
    ctx.dma_get(ldm.data(), src.data() + lo, hi - lo);
    double s = 0.0;
    for (const double v : ldm) s += v;
    ctx.dma_put(&s, &sums[static_cast<std::size_t>(ctx.id())], 1);
  });
  // Numerics unaffected by the retried transfers.
  const double total = std::accumulate(sums.begin(), sums.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 1024 * 1.5);
  // Failed attempts occupied the DMA engine: more transfers than the
  // fault-free 2 per CPE.
  EXPECT_GT(cluster.total().dma_transfers, 128.0);
}

TEST(SunwayFaults, PersistentDmaFailureThrowsTimeout) {
  ScopedFaults guard;
  FaultSpec spec;
  spec.probability = 1.0;
  FaultInjector::instance().configure(fault::kDmaFail, spec);
  sunway::CpeCluster cluster(sunway::sw26010pro());
  double x = 0.0;
  EXPECT_THROW(cluster.run([&](sunway::CpeContext& ctx) {
    double ldm = 0.0;
    ctx.dma_get(&ldm, &x, 1);
  }),
               TimeoutError);
}

TEST(SunwayFaults, DeadCpeWorkIsAdoptedBySurvivors) {
  ScopedFaults guard;
  FaultSpec spec;
  spec.fire_at = 3;  // the third CPE rolled dies on the first launch
  FaultInjector::instance().configure(fault::kCpeDeath, spec);

  sunway::CpeCluster cluster(sunway::sw26010pro());
  std::vector<double> out(64, 0.0);
  const auto kernel = [&](sunway::CpeContext& ctx) {
    out[static_cast<std::size_t>(ctx.id())] =
        static_cast<double>(ctx.id()) + 1.0;
    ctx.charge_flops(10.0);
  };
  cluster.run(kernel);
  EXPECT_EQ(cluster.n_dead(), 1);
  // Every logical CPE's result is present — the dead CPE's slice was
  // re-run by a survivor under the dead CPE's logical id.
  for (std::size_t id = 0; id < 64; ++id) {
    EXPECT_DOUBLE_EQ(out[id], static_cast<double>(id) + 1.0) << "id " << id;
  }
  // The adopter was charged for the extra run: total flops unchanged, one
  // counter slot empty (the dead CPE's own) and one doubled.
  EXPECT_DOUBLE_EQ(cluster.total().flops, 640.0);
  const auto& per = cluster.per_cpe();
  int empty = 0;
  int doubled = 0;
  for (const auto& c : per) {
    if (c.flops == 0.0) ++empty;
    if (c.flops == 20.0) ++doubled;
  }
  EXPECT_EQ(empty, 1);
  EXPECT_EQ(doubled, 1);

  // Death is sticky across launches until reset().
  cluster.run(kernel);
  EXPECT_EQ(cluster.n_dead(), 1);
  cluster.reset();
  EXPECT_EQ(cluster.n_dead(), 0);
}

TEST(SunwayFaults, AllCpesDeadRaisesFaultInjected) {
  ScopedFaults guard;
  FaultSpec spec;
  spec.probability = 1.0;
  FaultInjector::instance().configure(fault::kCpeDeath, spec);
  sunway::CpeCluster cluster(sunway::sw26010pro());
  EXPECT_THROW(cluster.run([](sunway::CpeContext&) {}), FaultInjected);
}

TEST(SunwayFaults, RmaDropsAreRetransmittedExactly) {
  ScopedFaults guard;
  FaultInjector::instance().set_seed(23);
  FaultSpec spec;
  spec.probability = 0.05;
  FaultInjector::instance().configure(fault::kRmaDrop, spec);

  std::vector<std::vector<sunway::Contribution>> contributions(8);
  for (std::size_t cpe = 0; cpe < 8; ++cpe) {
    for (std::size_t k = 0; k < 200; ++k) {
      contributions[cpe].push_back(
          {(cpe * 97 + k * 13) % 500, 0.25 * static_cast<double>(cpe + k)});
    }
  }
  std::vector<double> expected(500, 0.0);
  sunway::serial_array_reduction(contributions, expected);

  std::vector<double> got(500, 0.0);
  const sunway::RmaReduceStats stats =
      sunway::rma_array_reduction(contributions, got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    // fp associativity: routed accumulation order differs from serial.
    EXPECT_NEAR(got[i], expected[i], 1e-9) << "index " << i;
  }
  // Retransmissions happened and were charged against the mesh.
  EXPECT_GT(stats.rma_retransmits, 0.0);
  EXPECT_GT(stats.rma_messages, stats.updates / 64.0);
}

// --- Numerics layer -----------------------------------------------------

TEST(NumericsFaults, ScfRecoversFromInjectedDivergence) {
  const auto atoms = h2();
  scf::GroundState clean;
  {
    ScopedFaults guard;
    scf::ScfEngine engine(atoms, fast_scf());
    clean = engine.solve();
    ASSERT_TRUE(clean.converged);
  }
  ScopedFaults guard;
  FaultSpec spec;
  spec.fire_at = 3;  // poison the density mid-cycle, once
  FaultInjector::instance().configure(fault::kScfDiverge, spec);
  scf::ScfEngine engine(atoms, fast_scf());
  const scf::GroundState recovered = engine.solve();
  EXPECT_TRUE(recovered.converged);
  EXPECT_EQ(FaultInjector::instance().stats(fault::kScfDiverge).fires, 1u);
  // The restarted cycle converges to the same ground state.
  EXPECT_NEAR(recovered.total_energy, clean.total_energy, 1e-6);
}

TEST(NumericsFaults, ScfExhaustedRecoveryThrowsConvergenceError) {
  ScopedFaults guard;
  FaultSpec spec;
  spec.probability = 1.0;  // every attempt diverges immediately
  FaultInjector::instance().configure(fault::kScfDiverge, spec);
  scf::ScfEngine engine(h2(), fast_scf());
  EXPECT_THROW(engine.solve(), ConvergenceError);
}

TEST(NumericsFaults, DfptRecoversFromInjectedDivergence) {
  const auto atoms = h2();
  scf::ScfOptions so = fast_scf();
  scf::ScfEngine engine(atoms, so);
  const scf::GroundState gs = engine.solve();
  ASSERT_TRUE(gs.converged);
  dfpt::DfptOptions dopt;
  dopt.tol = 1e-10;

  linalg::Matrix clean;
  {
    ScopedFaults guard;
    dfpt::DfptEngine dfpt(engine, gs, dopt);
    clean = dfpt.polarizability();
  }
  ScopedFaults guard;
  FaultSpec spec;
  spec.fire_at = 1;  // first response iteration blows up
  FaultInjector::instance().configure(fault::kDfptDiverge, spec);
  dfpt::DfptEngine dfpt(engine, gs, dopt);
  const linalg::Matrix recovered = dfpt.polarizability();
  EXPECT_EQ(FaultInjector::instance().stats(fault::kDfptDiverge).fires, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(recovered(i, j), clean(i, j), 1e-8)
          << "alpha(" << i << "," << j << ")";
    }
  }
}

TEST(NumericsFaults, DfptLockstepRecoveryRestartsOnlyTheHitAxis) {
  // The axes advance in lockstep on one thread, so the rolls go axis 0,
  // axis 1, axis 2 per iteration: at=2 poisons axis 1 on its first
  // iteration. Axis 1 restarts alone; axes 0 and 2 never notice.
  const auto atoms = h2();
  scf::ScfEngine engine(atoms, fast_scf());
  const scf::GroundState gs = engine.solve();
  ASSERT_TRUE(gs.converged);
  dfpt::DfptOptions dopt;
  dopt.tol = 1e-10;

  linalg::Matrix clean;
  {
    ScopedFaults guard;
    dfpt::DfptEngine dfpt(engine, gs, dopt);
    clean = dfpt.polarizability();
  }
  ScopedFaults guard;
  FaultSpec spec;
  spec.fire_at = 2;
  FaultInjector::instance().configure(fault::kDfptDiverge, spec);
  dfpt::DfptEngine dfpt(engine, gs, dopt);
  const linalg::Matrix recovered = dfpt.polarizability();
  EXPECT_EQ(FaultInjector::instance().stats(fault::kDfptDiverge).fires, 1u);
  // alpha(i, j) after symmetrizing reads the responses of axes i and j.
  auto bits = [](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != 1 && j != 1) {
        EXPECT_EQ(bits(recovered(i, j)), bits(clean(i, j)))
            << "alpha(" << i << "," << j << ") of unpoisoned axes";
      } else {
        EXPECT_NEAR(recovered(i, j), clean(i, j), 1e-8)
            << "alpha(" << i << "," << j << ")";
      }
    }
  }
}

TEST(NumericsFaults, FailedDynamicCallLeavesTheEngineStatic) {
  // A dynamic call that throws must not leave its frequency behind: the
  // next static polarizability on the same engine is a fresh engine's.
  scf::ScfEngine engine(h2(), fast_scf());
  const scf::GroundState gs = engine.solve();
  ASSERT_TRUE(gs.converged);
  dfpt::DfptEngine dfpt(engine, gs);
  {
    ScopedFaults guard;
    FaultSpec spec;
    spec.probability = 1.0;
    FaultInjector::instance().configure(fault::kDfptDiverge, spec);
    EXPECT_THROW((void)dfpt.polarizability_at_frequency(0.05),
                 ConvergenceError);
  }
  const linalg::Matrix after = dfpt.polarizability();
  dfpt::DfptEngine fresh(engine, gs);
  const linalg::Matrix ref = fresh.polarizability();
  EXPECT_EQ(std::memcmp(after.data(), ref.data(), 9 * sizeof(double)), 0);
}

TEST(NumericsFaults, DfptExhaustedRecoveryThrowsConvergenceError) {
  scf::ScfEngine engine(h2(), fast_scf());
  const scf::GroundState gs = engine.solve();
  ASSERT_TRUE(gs.converged);
  ScopedFaults guard;
  FaultSpec spec;
  spec.probability = 1.0;
  FaultInjector::instance().configure(fault::kDfptDiverge, spec);
  dfpt::DfptEngine dfpt(engine, gs);
  EXPECT_THROW(dfpt.polarizability(), ConvergenceError);
}

// --- Full pipeline ------------------------------------------------------

raman::RamanSpectrum clean_water_spectrum() {
  static const raman::RamanSpectrum spec = [] {
    ScopedFaults guard;
    raman::RamanCalculator calc(water(), fast_raman());
    return calc.compute();
  }();
  return spec;
}

TEST(PipelineFaults, WaterRamanMatchesFaultFreeUnderInjectedFaults) {
  const raman::RamanSpectrum clean = clean_water_spectrum();
  ASSERT_FALSE(clean.modes.empty());

  ScopedFaults guard;
  FaultInjector& inj = FaultInjector::instance();
  inj.set_seed(5);
  // The ISSUE's acceptance scenario: ~1% DMA failures, ~1% RMA drops, one
  // CPE death, one DFPT divergence. The sunway sites stay armed for any
  // kernel the pipeline touches; the DFPT divergence forces an actual
  // recovery inside the displaced-geometry loop.
  inj.configure_from_string(
      "sunway.dma.fail:p=0.01;sunway.rma.drop:p=0.01;"
      "sunway.cpe.death:at=1;dfpt.diverge:at=1");

  raman::RamanCalculator calc(water(), fast_raman());
  const raman::RamanSpectrum faulty = calc.compute();
  EXPECT_EQ(inj.stats(fault::kDfptDiverge).fires, 1u);

  ASSERT_EQ(faulty.modes.size(), clean.modes.size());
  EXPECT_EQ(faulty.n_polarizabilities, clean.n_polarizabilities);
  for (std::size_t m = 0; m < clean.modes.size(); ++m) {
    // The Hessian path is untouched, so frequencies are bit-identical;
    // activities go through the recovered DFPT solution and must agree
    // to 1e-8.
    EXPECT_DOUBLE_EQ(faulty.modes[m].frequency_cm,
                     clean.modes[m].frequency_cm);
    EXPECT_NEAR(faulty.modes[m].activity, clean.modes[m].activity, 1e-8)
        << "mode " << m;
    EXPECT_NEAR(faulty.modes[m].depolarization,
                clean.modes[m].depolarization, 1e-8);
  }
}

TEST(PipelineFaults, CheckpointResumeRecomputesOnlyMissingGeometries) {
  const std::string path = ::testing::TempDir() + "raman_resume_ckpt.txt";
  std::remove(path.c_str());
  const auto atoms = h2();  // 3N = 6 coordinates, 12 displaced geometries

  raman::RamanOptions opt = fast_raman();
  raman::RamanSpectrum clean;
  {
    ScopedFaults guard;
    raman::RamanCalculator calc(atoms, opt);
    clean = calc.compute();
    EXPECT_EQ(calc.n_polarizabilities(), 12);
  }

  opt.checkpoint_path = path;
  {
    // First run is killed after 5 freshly computed geometries.
    ScopedFaults guard;
    FaultSpec spec;
    spec.fire_at = 5;
    FaultInjector::instance().configure(fault::kRamanKill, spec);
    raman::RamanCalculator calc(atoms, opt);
    EXPECT_THROW(calc.compute(), FaultInjected);
    EXPECT_EQ(calc.n_polarizabilities(), 5);
  }
  {
    // The restarted run replays the checkpoint and evaluates only the
    // 12 - 5 missing geometries, reproducing the clean spectrum exactly.
    ScopedFaults guard;
    raman::RamanCalculator calc(atoms, opt);
    const raman::RamanSpectrum resumed = calc.compute();
    EXPECT_EQ(calc.n_polarizabilities(), 7);
    ASSERT_EQ(resumed.modes.size(), clean.modes.size());
    for (std::size_t m = 0; m < clean.modes.size(); ++m) {
      EXPECT_DOUBLE_EQ(resumed.modes[m].frequency_cm,
                       clean.modes[m].frequency_cm);
      EXPECT_NEAR(resumed.modes[m].activity, clean.modes[m].activity, 1e-10);
      EXPECT_NEAR(resumed.modes[m].ir_intensity, clean.modes[m].ir_intensity,
                  1e-10);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swraman
