#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "sunway/check/shadow.hpp"
#include "sunway/double_buffer.hpp"
#include "sunway/kernels.hpp"

// The flip side of the seeded-violation suite: every paper kernel and
// the Algorithm-3 pipelined reduction respect the protocol, so a fully
// checked execution (deferred DMA, tile registry, quiesce-at-finish)
// must finish with zero violations AND bit-identical numerics.

namespace swraman::sunway {
namespace {

std::vector<Vec3> probe_points(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  std::vector<Vec3> pts(n);
  for (Vec3& p : pts) p = {dist(rng), dist(rng), dist(rng) + 1.0};
  return pts;
}

TEST(CheckClean, ReduceLocalPipelinedAllShapes) {
  check::ScopedChecking checking;
  const struct {
    std::size_t count;
    std::size_t ldm;
  } shapes[] = {{10000, 4096}, {4096, 4096}, {4097, 4096}, {1023, 4096},
                {100, 4096},   {3, 16},      {65536, 8192}};
  for (const auto& c : shapes) {
    std::mt19937 rng(static_cast<unsigned>(c.count));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> dst(c.count);
    std::vector<double> src(c.count);
    std::vector<double> expected(c.count);
    for (std::size_t i = 0; i < c.count; ++i) {
      dst[i] = dist(rng);
      src[i] = dist(rng);
      expected[i] = dst[i] + src[i];
    }
    CpeContext ctx(0, 64, sw26010pro(), "reduce_local_pipelined");
    reduce_local_pipelined(ctx, dst.data(), src.data(), c.count, c.ldm);
    ctx.finish();
    for (std::size_t i = 0; i < c.count; ++i) {
      ASSERT_DOUBLE_EQ(dst[i], expected[i])
          << "count=" << c.count << " index " << i;
    }
  }
  EXPECT_EQ(check::total_violations(), 0u);
  EXPECT_EQ(swcheck::live_transfers(), 0);
}

TEST(CheckClean, Kernel1RealSpacePotential) {
  check::ScopedChecking checking;
  // Compact two-atom CSI table (synthetic spline channels are enough to
  // exercise the tiled CPE path; numerics must match the host exactly).
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                             {1, {0.0, 0.0, 1.8}}};
  grid::GridSettings s;
  s.level = grid::GridLevel::Light;
  const grid::MolecularGrid g = grid::build_molecular_grid(atoms, s);
  const hartree::MultipoleSolver solver(g, 4);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = std::pow(1.3 / kPi, 1.5) * std::exp(-1.3 * g.points[p].norm2());
  }
  const hartree::MultipolePotential pot = solver.solve(n);
  const CsiTables t = build_csi_tables(pot);

  const std::vector<Vec3> pts = probe_points(400, 9);
  std::vector<double> host(pts.size());
  std::vector<double> cpe(pts.size());
  real_space_potential(t, pts.data(), pts.size(), host.data(),
                       ExecMode::Simd);
  CpeCluster cluster(sw26010pro());
  real_space_potential_cpe(cluster, t, pts.data(), pts.size(), cpe.data(),
                           ExecMode::Simd);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_DOUBLE_EQ(cpe[i], host[i]) << i;
  }
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(CheckClean, Kernel2ReciprocalPotential) {
  check::ScopedChecking checking;
  const hartree::EwaldSystem sys = hartree::rock_salt_cell(3.0, 1.0);
  const hartree::Ewald ewald(sys, 1.0, 8.0, 9.0);
  const ReciprocalTables t = build_reciprocal_tables(ewald);
  const std::vector<Vec3> pts = probe_points(200, 23);
  std::vector<double> host(pts.size());
  std::vector<double> cpe(pts.size());
  reciprocal_potential(t, pts.data(), pts.size(), host.data());
  CpeCluster cluster(sw26010pro());
  reciprocal_potential_cpe(cluster, t, pts.data(), pts.size(), cpe.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_DOUBLE_EQ(cpe[i], host[i]) << i;
  }
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(CheckClean, BatchKernelsN1AndH1) {
  check::ScopedChecking checking;
  CpeCluster c1(sw26010pro());
  CpeCluster c2(sw26010pro());
  const std::vector<BatchShape> batches(50, {40, 200});
  const KernelWorkload n1 = run_density_batches(c1, batches);
  const KernelWorkload h1 = run_hamiltonian_batches(c2, batches);
  EXPECT_GT(n1.total_flops(), 0.0);
  EXPECT_GT(h1.total_flops(), 0.0);
  EXPECT_EQ(check::total_violations(), 0u);
  EXPECT_EQ(swcheck::live_shadow_tiles(), 0);
  EXPECT_EQ(swcheck::live_transfers(), 0);
}

}  // namespace
}  // namespace swraman::sunway
