#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sunway/cost_model.hpp"
#include "sunway/cpe_cluster.hpp"
#include "sunway/ldm.hpp"

namespace swraman::sunway {
namespace {

TEST(LdmArena, AllocatesWithinCapacity) {
  LdmArena ldm(256 * 1024);
  double* a = ldm.allocate<double>(1000);
  ASSERT_NE(a, nullptr);
  a[999] = 3.0;
  EXPECT_DOUBLE_EQ(a[999], 3.0);
  EXPECT_GE(ldm.used(), 8000u);
  EXPECT_LE(ldm.used(), 8192u);
}

TEST(LdmArena, ThrowsOnOverflow) {
  LdmArena ldm(1024);
  EXPECT_NO_THROW(ldm.allocate<double>(100));
  EXPECT_THROW(ldm.allocate<double>(100), Error);
}

TEST(LdmArena, ResetReclaimsSpace) {
  LdmArena ldm(1024);
  ldm.allocate<double>(100);
  ldm.reset();
  EXPECT_EQ(ldm.used(), 0u);
  EXPECT_NO_THROW(ldm.allocate<double>(100));
  // Peak survives reset.
  EXPECT_GE(ldm.peak(), 800u);
}

TEST(CostModel, VariantsImproveMonotonically) {
  // A CSI-like workload: compute-heavy with moderate streaming.
  KernelWorkload w;
  w.name = "csi";
  w.elements = 1e6;
  w.flops_per_element = 700;
  w.stream_bytes_per_element = 180;
  w.irregular_bytes_per_element = 60;
  w.vectorizable_fraction = 0.7;
  const ArchParams sw = sw26010pro();

  const double t_mpe = modeled_time(w, sw, Variant::MpeScalar);
  const double t_tile = modeled_time(w, sw, Variant::CpeTiled);
  const double t_db = modeled_time(w, sw, Variant::CpeTiledDb);
  const double t_simd = modeled_time(w, sw, Variant::CpeTiledDbSimd);
  EXPECT_GT(t_mpe, t_tile);
  EXPECT_GE(t_tile, t_db);
  EXPECT_GE(t_db, t_simd);
  // The overall ballpark of Fig. 12: an order of magnitude or two.
  EXPECT_GT(t_mpe / t_simd, 5.0);
  EXPECT_LT(t_mpe / t_simd, 200.0);
}

TEST(CostModel, DoubleBufferingOverlapsTransfers) {
  // DMA-dominated workload: double buffering hides the compute entirely.
  KernelWorkload w;
  w.elements = 1e6;
  w.flops_per_element = 10;
  w.stream_bytes_per_element = 800;
  const ArchParams sw = sw26010pro();
  const double t_tile = modeled_time(w, sw, Variant::CpeTiled);
  const double t_db = modeled_time(w, sw, Variant::CpeTiledDb);
  EXPECT_LT(t_db, t_tile);
}

TEST(CostModel, SimdHelpsComputeBoundOnly) {
  KernelWorkload compute_bound;
  compute_bound.elements = 1e6;
  compute_bound.flops_per_element = 2000;
  compute_bound.stream_bytes_per_element = 16;
  compute_bound.vectorizable_fraction = 0.9;
  KernelWorkload mem_bound = compute_bound;
  mem_bound.flops_per_element = 5;
  mem_bound.stream_bytes_per_element = 2000;

  const ArchParams sw = sw26010pro();
  const double gain_compute =
      modeled_time(compute_bound, sw, Variant::CpeTiledDb) /
      modeled_time(compute_bound, sw, Variant::CpeTiledDbSimd);
  const double gain_mem = modeled_time(mem_bound, sw, Variant::CpeTiledDb) /
                          modeled_time(mem_bound, sw, Variant::CpeTiledDbSimd);
  EXPECT_GT(gain_compute, 1.5);
  EXPECT_NEAR(gain_mem, 1.0, 1e-9);
}

TEST(CostModel, CpuPerProcessComparison) {
  KernelWorkload w;
  w.elements = 1e7;
  w.flops_per_element = 500;
  w.stream_bytes_per_element = 100;
  // Fig. 14 compares equal MPI-task counts: one Sunway process drives a
  // full core group, one Tianhe-2 process is a single Xeon core (sharing
  // the node's memory bandwidth among 12).
  ArchParams core = xeon_e5_2692v2();
  core.n_pes = 1;
  core.node_mem_bw_gbs /= 12.0;
  const double t_core = modeled_cpu_time(w, core);
  const double t_sw =
      modeled_time(w, sw26010pro(), Variant::CpeTiledDbSimd);
  EXPECT_GT(t_core, 0.0);
  // Per-process: the CG wins by a high-single-digit factor (paper: 7.8-9.7).
  EXPECT_GT(t_core / t_sw, 3.0);
  EXPECT_LT(t_core / t_sw, 40.0);
}

TEST(CostModel, AllreduceModelShape) {
  const ArchParams sw = sw26010pro();
  const double bytes = 8e6;
  // Fig. 15 "before": reduce-scatter + allgather with the local reduction
  // on the MPE; "after": CPE-offloaded pipelined reduction.
  const AllreduceModel before{false};
  const AllreduceModel after{true};
  for (std::size_t p : {256, 1024}) {
    const double t_before = modeled_allreduce_time(bytes, p, sw, before);
    const double t_after = modeled_allreduce_time(bytes, p, sw, after);
    EXPECT_GT(t_before / t_after, 1.5) << "p=" << p;
    EXPECT_LT(t_before / t_after, 6.0) << "p=" << p;
  }
  // Speedup grows with process count (paper Fig. 15's trend).
  const double s256 = modeled_allreduce_time(bytes, 256, sw, before) /
                      modeled_allreduce_time(bytes, 256, sw, after);
  const double s1024 = modeled_allreduce_time(bytes, 1024, sw, before) /
                       modeled_allreduce_time(bytes, 1024, sw, after);
  EXPECT_GT(s1024, s256);
  // Single rank costs nothing.
  EXPECT_DOUBLE_EQ(modeled_allreduce_time(bytes, 1, sw, after), 0.0);
}

TEST(CpeCluster, CountsAggregateAcrossCpes) {
  CpeCluster cluster(sw26010pro());
  cluster.run([](CpeContext& ctx) {
    ctx.charge_flops(100.0);
    std::vector<double> host(64, 1.0);
    ctx.ldm().reset();
    double* tile = ctx.ldm().allocate<double>(64);
    ctx.dma_get(tile, host.data(), 64);
  });
  const CpeCounters total = cluster.total();
  EXPECT_DOUBLE_EQ(total.flops, 6400.0);
  EXPECT_DOUBLE_EQ(total.dma_bytes, 64.0 * 64 * 8);
  EXPECT_DOUBLE_EQ(total.dma_transfers, 64.0);
  const KernelWorkload w = cluster.workload("test", 6400.0, 0.5);
  EXPECT_DOUBLE_EQ(w.flops_per_element, 1.0);
}

TEST(CpeCluster, SliceCoversRangeExactly) {
  CpeCluster cluster(sw26010pro());
  std::vector<int> hits(1000, 0);
  cluster.run([&](CpeContext& ctx) {
    const auto [lo, hi] = ctx.my_slice(1000);
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace swraman::sunway
