#include "sunway/kernels.hpp"

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "common/constants.hpp"

namespace swraman::sunway {

// Names the ctest cases (scalar, simd) instead of dumping the enum's bytes;
// gtest looks it up in the enum's namespace.
static void PrintTo(ExecMode mode, std::ostream* os) {
  *os << (mode == ExecMode::Simd ? "simd" : "scalar");
}

namespace {

// A solved multipole potential of a two-center Gaussian density.
struct Fixture {
  grid::MolecularGrid g;
  hartree::MultipolePotential pot;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                               {1, {0.0, 0.0, 1.8}}};
    grid::GridSettings s;
    s.level = grid::GridLevel::Tight;
    Fixture fx{grid::build_molecular_grid(atoms, s), {}};
    const hartree::MultipoleSolver solver(fx.g, 6);
    std::vector<double> n(fx.g.size());
    for (std::size_t p = 0; p < fx.g.size(); ++p) {
      n[p] = std::pow(1.3 / kPi, 1.5) *
                 std::exp(-1.3 * fx.g.points[p].norm2()) +
             std::pow(0.9 / kPi, 1.5) *
                 std::exp(-0.9 * (fx.g.points[p] - Vec3{0, 0, 1.8}).norm2());
    }
    fx.pot = solver.solve(n);
    return fx;
  }();
  return f;
}

std::vector<Vec3> probe_points(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  std::vector<Vec3> pts(n);
  for (Vec3& p : pts) p = {dist(rng), dist(rng), dist(rng) + 1.0};
  return pts;
}

TEST(CsiKernel, TablesMatchPotentialChannels) {
  const CsiTables t = build_csi_tables(fixture().pot);
  EXPECT_EQ(t.atoms.size(), 2u);
  EXPECT_EQ(t.n_lm, 49u);
  EXPECT_GT(t.coeff_bytes(), 10000u);
}

class CsiMode : public ::testing::TestWithParam<ExecMode> {};

TEST_P(CsiMode, MatchesMultipolePotential) {
  const ExecMode mode = GetParam();
  const CsiTables t = build_csi_tables(fixture().pot);
  const std::vector<Vec3> pts = probe_points(200, 5);
  std::vector<double> out(pts.size());
  real_space_potential(t, pts.data(), pts.size(), out.data(), mode);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double ref = fixture().pot.value(pts[i]);
    EXPECT_NEAR(out[i], ref, 1e-9 + 1e-9 * std::abs(ref)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CsiMode,
                         ::testing::Values(ExecMode::Scalar, ExecMode::Simd));

TEST(CsiKernel, CpeExecutionMatchesHost) {
  const CsiTables t = build_csi_tables(fixture().pot);
  const std::vector<Vec3> pts = probe_points(500, 9);
  std::vector<double> host(pts.size());
  std::vector<double> cpe(pts.size());
  real_space_potential(t, pts.data(), pts.size(), host.data(),
                       ExecMode::Simd);
  CpeCluster cluster(sw26010pro());
  real_space_potential_cpe(cluster, t, pts.data(), pts.size(), cpe.data(),
                           ExecMode::Simd);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(cpe[i], host[i]);
  }
  // Operation counting happened.
  const CpeCounters total = cluster.total();
  EXPECT_GT(total.flops, 0.0);
  EXPECT_GT(total.dma_bytes, 0.0);
}

TEST(ReciprocalKernel, MatchesEwaldReciprocal) {
  const hartree::EwaldSystem sys = hartree::zinc_blende_cell(4.0, 0.8);
  const hartree::Ewald ewald(sys, 1.0, 8.0, 8.0);
  const ReciprocalTables t = build_reciprocal_tables(ewald);
  const std::vector<Vec3> pts = probe_points(50, 17);
  std::vector<double> out(pts.size());
  reciprocal_potential(t, pts.data(), pts.size(), out.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    // The gather permutation only reorders the sum.
    EXPECT_NEAR(out[i], ewald.reciprocal(pts[i]), 1e-10);
  }
}

TEST(ReciprocalKernel, CpeExecutionMatchesHost) {
  const hartree::EwaldSystem sys = hartree::rock_salt_cell(3.0, 1.0);
  const hartree::Ewald ewald(sys, 1.0, 8.0, 9.0);
  const ReciprocalTables t = build_reciprocal_tables(ewald);
  const std::vector<Vec3> pts = probe_points(300, 23);
  std::vector<double> host(pts.size());
  std::vector<double> cpe(pts.size());
  reciprocal_potential(t, pts.data(), pts.size(), host.data());
  CpeCluster cluster(sw26010pro());
  reciprocal_potential_cpe(cluster, t, pts.data(), pts.size(), cpe.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(cpe[i], host[i], 1e-11 + 1e-11 * std::abs(host[i]));
  }
}

TEST(BatchKernels, WorkloadsScaleWithBatchShapes) {
  CpeCluster c1(sw26010pro());
  CpeCluster c2(sw26010pro());
  const std::vector<BatchShape> small(50, {40, 200});
  const std::vector<BatchShape> large(50, {80, 200});
  const KernelWorkload w_small = run_density_batches(c1, small);
  const KernelWorkload w_large = run_density_batches(c2, large);
  EXPECT_GT(w_large.total_flops(), 3.0 * w_small.total_flops());

  CpeCluster c3(sw26010pro());
  const KernelWorkload h = run_hamiltonian_batches(c3, small);
  EXPECT_GT(h.total_flops(), 0.0);
  EXPECT_GT(c3.total().rma_bytes, 0.0);  // the scatter-add reduction
}

TEST(BatchKernels, LdmCapacityRespectedForWideBatches) {
  CpeCluster cluster(sw26010pro());
  // 2000 functions x 300 points would blow 256 KB without row tiling.
  const std::vector<BatchShape> wide(4, {2000, 300});
  EXPECT_NO_THROW(run_density_batches(cluster, wide));
}

}  // namespace
}  // namespace swraman::sunway
