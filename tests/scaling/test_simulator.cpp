#include "scaling/simulator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/workload.hpp"

namespace swraman::scaling {
namespace {

MachineModel sunway_machine() {
  MachineModel m;
  m.node = sunway::sw26010pro();
  return m;
}

RamanJob rbd_job() { return core::make_dfpt_job(core::rbd_protein()); }

TEST(GeometryJitter, DeterministicAndBounded) {
  for (std::size_t id = 0; id < 2000; ++id) {
    const double j = geometry_jitter(id);
    EXPECT_GE(j, -1.0);
    EXPECT_LE(j, 1.0);
    EXPECT_DOUBLE_EQ(j, geometry_jitter(id));
  }
  // Not constant.
  EXPECT_NE(geometry_jitter(1), geometry_jitter(2));
}

TEST(Simulator, IterationTimeDecreasesWithGroupSize) {
  const ScalabilitySimulator sim(rbd_job(), sunway_machine());
  const double t64 = sim.dfpt_iteration_time(64);
  const double t128 = sim.dfpt_iteration_time(128);
  const double t256 = sim.dfpt_iteration_time(256);
  EXPECT_GT(t64, t128);
  EXPECT_GT(t128, t256);
  // Not super-linear: halving processes cannot better-than-halve time.
  EXPECT_LT(t64, 2.2 * t128);
}

TEST(Simulator, StrongScalingMatchesPaperShape) {
  const ScalabilitySimulator sim(rbd_job(), sunway_machine(), 256);
  const std::vector<ScalingPoint> pts =
      sim.strong_scaling({10240, 20480, 51200, 153600, 300800});
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_EQ(pts.back().n_cores, 19552000u);  // the paper's headline count
  // Efficiency stays >= 80% up to 300,800 processes (paper: 84.5%).
  for (const ScalingPoint& p : pts) {
    EXPECT_GE(p.efficiency, 0.78) << p.n_processes;
    EXPECT_LE(p.efficiency, 1.001) << p.n_processes;
  }
  EXPECT_NEAR(pts.back().efficiency, 0.845, 0.07);
  // ~25x speedup from 10,240 to 300,800 processes.
  EXPECT_NEAR(pts.back().speedup, 25.0, 3.0);
  // Monotone time decrease.
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i].time_seconds, pts[i - 1].time_seconds);
  }
}

TEST(Simulator, WeakScalingMatchesPaperShape) {
  const ScalabilitySimulator sim(rbd_job(), sunway_machine(), 256);
  const std::vector<ScalingPoint> pts =
      sim.weak_scaling({2560, 10240, 48640, 138240, 300800});
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts.front().efficiency, 1.0);
  // Monotone efficiency decay ending near the paper's 84.4%.
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i].efficiency, pts[i - 1].efficiency + 1e-12);
  }
  EXPECT_NEAR(pts.back().efficiency, 0.844, 0.06);
  // Times grow mildly (paper: 22345 -> 26472 s, +18%).
  EXPECT_GT(pts.back().time_seconds, pts.front().time_seconds);
  EXPECT_LT(pts.back().time_seconds, 1.4 * pts.front().time_seconds);
}

TEST(Simulator, SunwayVsXeonPerProcessRatio) {
  // Fig. 14: 9.7x at 64 tasks falling to ~7.8x at 256.
  const RamanJob job = rbd_job();
  MachineModel cpu;
  cpu.cpu = true;
  cpu.node = sunway::xeon_e5_2692v2();
  cpu.node.n_pes = 1;
  cpu.node.node_mem_bw_gbs /= 12.0;
  cpu.cores_per_process = 1;
  const ScalabilitySimulator sw(job, sunway_machine());
  const ScalabilitySimulator xe(job, cpu);
  const double r64 = xe.dfpt_iteration_time(64) / sw.dfpt_iteration_time(64);
  const double r256 =
      xe.dfpt_iteration_time(256) / sw.dfpt_iteration_time(256);
  EXPECT_NEAR(r64, 9.7, 1.5);
  EXPECT_NEAR(r256, 7.8, 1.2);
  EXPECT_GT(r64, r256);  // the declining trend
}

TEST(Simulator, MoreGroupsRaiseContention) {
  const ScalabilitySimulator sim(rbd_job(), sunway_machine());
  EXPECT_GT(sim.dfpt_iteration_time(256, 1000),
            sim.dfpt_iteration_time(256, 1));
}

TEST(Simulator, RejectsBadInput) {
  EXPECT_THROW(ScalabilitySimulator(rbd_job(), sunway_machine(), 0), Error);
  const ScalabilitySimulator sim(rbd_job(), sunway_machine());
  EXPECT_THROW(static_cast<void>(sim.simulate(0)), Error);
  EXPECT_THROW(sim.strong_scaling({}), Error);
}

}  // namespace
}  // namespace swraman::scaling
