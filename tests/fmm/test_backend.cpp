#include "fmm/backend.hpp"

#include <cmath>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/threads.hpp"
#include "core/molecules.hpp"
#include "grid/atom_grid.hpp"
#include "obs/obs.hpp"

// The drop-in contract of the FMM Hartree backend, on a real molecular
// grid: Direct is bitwise the plain solver, Fmm agrees with Direct within
// its own tracked analytic bound across the (order, theta) sweep, the CPE
// offload is arithmetically identical to the host path, and Auto follows
// the cost model.

namespace swraman::fmm {
namespace {

const grid::MolecularGrid& cluster_grid() {
  // Coarse radial mesh: the outer shell radius (~4 bohr here) is the
  // far-field validity reach, so a 27-molecule cluster already has plenty
  // of well-separated (M2L) cell pairs next to a substantial near field.
  static const grid::MolecularGrid g = [] {
    grid::GridSettings s;
    s.level = grid::GridLevel::Light;
    s.n_radial = 6;
    s.angular_order = 3;
    return grid::build_molecular_grid(molecules::water_cluster(27), s);
  }();
  return g;
}

// Superposition of per-atom normalized Gaussians scaled by Z — smooth,
// atom-centered, and multipole-rich enough to exercise every channel.
const std::vector<double>& cluster_density() {
  static const std::vector<double> n = [] {
    const grid::MolecularGrid& g = cluster_grid();
    std::vector<double> d(g.size(), 0.0);
    for (std::size_t p = 0; p < g.size(); ++p) {
      for (const grid::AtomSite& a : g.atoms) {
        const double ex = (a.z > 1) ? 1.8 : 0.9;
        d[p] += static_cast<double>(a.z) * std::pow(ex / kPi, 1.5) *
                std::exp(-ex * (g.points[p] - a.pos).norm2());
      }
    }
    return d;
  }();
  return n;
}

TEST(HartreeBackendDispatch, DirectIsBitwiseThePlainSolver) {
  const HartreeContext ctx(cluster_grid(), 6, HartreeBackend::Direct,
                           FmmOptions{});
  const std::vector<double> via_ctx = ctx.solve_on_grid(cluster_density());
  const std::vector<double> plain =
      ctx.solver().solve_on_grid(cluster_density());
  ASSERT_EQ(via_ctx.size(), plain.size());
  EXPECT_EQ(std::memcmp(via_ctx.data(), plain.data(),
                        plain.size() * sizeof(double)),
            0);
  EXPECT_EQ(ctx.stats().resolved, HartreeBackend::Direct);
}

TEST(HartreeBackendDispatch, ConcurrentDirectSolvesAreRaceFreeAndBitwise) {
  // The serve tier shares one ForceEvaluator, and with it each displaced
  // engine's Direct context, across its workers. A Direct solve writes no
  // context state, so concurrent solves are race-free (the suite runs
  // under TSan in tier-1) and bitwise the plain solver.
  const HartreeContext ctx(cluster_grid(), 6, HartreeBackend::Direct,
                           FmmOptions{});
  const std::vector<double> ref =
      ctx.solver().solve_on_grid(cluster_density());
  std::vector<double> out[2];
  std::thread workers[2];
  for (int t = 0; t < 2; ++t) {
    workers[t] = std::thread(
        [&ctx, &out, t] { out[t] = ctx.solve_on_grid(cluster_density()); });
  }
  for (std::thread& w : workers) w.join();
  for (const std::vector<double>& v : out) {
    ASSERT_EQ(v.size(), ref.size());
    EXPECT_EQ(std::memcmp(v.data(), ref.data(), ref.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(ctx.stats().resolved, HartreeBackend::Direct);
  EXPECT_EQ(ctx.solver().planned_points(), 0u);  // none was requested
}

TEST(HartreeBackendDispatch, OnlyDirectContextsBuildAnEvaluationPlan) {
  HartreeContext fmm(cluster_grid(), 6, HartreeBackend::Fmm, FmmOptions{});
  fmm.request_plan();
  (void)fmm.solve_on_grid(cluster_density());
  EXPECT_EQ(fmm.solver().planned_points(), 0u);
  EXPECT_EQ(fmm.solver().plan_bytes(), 0u);

  HartreeContext direct(cluster_grid(), 6, HartreeBackend::Direct,
                        FmmOptions{});
  direct.request_plan();
  const std::vector<double> planned = direct.solve_on_grid(cluster_density());
  EXPECT_GT(direct.solver().planned_points(), 0u);
  const std::vector<double> plain =
      fmm.solver().solve_on_grid(cluster_density());
  ASSERT_EQ(planned.size(), plain.size());
  EXPECT_EQ(std::memcmp(planned.data(), plain.data(),
                        plain.size() * sizeof(double)),
            0);
}

struct SweepCase {
  int order;
  double theta;
};

// Names the ctest case (e.g. p4_theta0.45) instead of dumping the struct's
// bytes, padding included.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "p" << c.order << "_theta" << c.theta;
}

class FmmVsDirect : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FmmVsDirect, AgreesWithinTheTrackedAnalyticBound) {
  const SweepCase sc = GetParam();
  const int lmax = std::min(sc.order, 6);
  FmmOptions opt;
  opt.order = sc.order;
  opt.theta = sc.theta;
  opt.track_error_bound = true;
  const HartreeContext ctx(cluster_grid(), lmax, HartreeBackend::Fmm, opt);

  const std::vector<double> direct =
      ctx.solver().solve_on_grid(cluster_density());
  const std::vector<double> fast = ctx.solve_on_grid(cluster_density());
  ASSERT_EQ(fast.size(), direct.size());

  double err = 0.0;
  double vmax = 0.0;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    err = std::max(err, std::abs(fast[i] - direct[i]));
    vmax = std::max(vmax, std::abs(direct[i]));
  }
  const FmmStats& st = ctx.stats();
  EXPECT_EQ(st.resolved, HartreeBackend::Fmm);
  EXPECT_GT(st.n_m2l_pairs, 0u);
  EXPECT_GT(st.n_p2p_pairs, 0u);
  // The observed far-field error must sit under the analytic truncation
  // bound (the whole point of threading p / theta through the bound)...
  EXPECT_GT(st.max_error_bound, 0.0);
  EXPECT_LE(err, st.max_error_bound + 1e-14);
  // ...and the accuracy must be usable, not vacuous. The slowest-decaying
  // contribution is the degree-lmax atom moments (error ~ theta^{p+1-l}),
  // so at p = 8 with lmax = 6 the relative error sits around 1e-5.
  if (sc.order >= 8) {
    EXPECT_LT(err, 1e-4 * vmax);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrderThetaSweep, FmmVsDirect,
    ::testing::Values(SweepCase{4, 0.45}, SweepCase{4, 0.65},
                      SweepCase{6, 0.45}, SweepCase{6, 0.65},
                      SweepCase{8, 0.45}, SweepCase{8, 0.65}));

TEST(HartreeBackendDispatch, TrackedBoundTightensWithOrder) {
  double prev = 0.0;
  for (int p : {4, 8}) {
    FmmOptions opt;
    opt.order = p;
    opt.track_error_bound = true;
    const HartreeContext ctx(cluster_grid(), 4, HartreeBackend::Fmm, opt);
    (void)ctx.solve_on_grid(cluster_density());
    if (p == 4) {
      prev = ctx.stats().max_error_bound;
    } else {
      EXPECT_LT(ctx.stats().max_error_bound, prev);
    }
  }
}

TEST(HartreeBackendDispatch, CpeOffloadMatchesHostPathBitwise) {
  // The CPE lambdas run the same arithmetic in the same order as the host
  // fallback (LDM staging is memcpy); any divergence is a kernel bug.
  FmmOptions cpe;
  cpe.use_cpe = true;
  FmmOptions host;
  host.use_cpe = false;
  const HartreeContext a(cluster_grid(), 6, HartreeBackend::Fmm, cpe);
  const HartreeContext b(cluster_grid(), 6, HartreeBackend::Fmm, host);
  const std::vector<double> va = a.solve_on_grid(cluster_density());
  const std::vector<double> vb = b.solve_on_grid(cluster_density());
  ASSERT_EQ(va.size(), vb.size());
  EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0);
}

TEST(HartreeBackendDispatch, MultiDensityPassIsBitwiseSinglePasses) {
  // One tree pass for k densities gives each potential the bits of its own
  // pass, and charges the CPE model the flops and DMA bytes of the k
  // single passes; the host path agrees with the CPE path.
  const grid::MolecularGrid& g = cluster_grid();
  std::vector<std::vector<double>> dens(3, cluster_density());
  for (std::size_t p = 0; p < g.size(); ++p) {
    const Vec3& x = g.points[p];
    dens[1][p] *= 0.5 + 0.3 * std::tanh(0.2 * (x.x - x.z));
    dens[2][p] *= -0.7 * std::cos(0.3 * x.y) + 0.1;
  }
  FmmOptions host;
  host.use_cpe = false;
  const HartreeContext ctx(g, 6, HartreeBackend::Fmm, FmmOptions{});
  const HartreeContext host_ctx(g, 6, HartreeBackend::Fmm, host);
  auto counter = [](const char* name) {
    const std::map<std::string, double> c =
        obs::Registry::instance().counter_values();
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  obs::reset_for_testing();
  obs::set_enabled(true);
  const double flops_before = counter("sunway.kernel.flops");
  const double bytes_before = counter("sunway.dma.bytes");
  std::vector<std::vector<double>> single;
  for (const std::vector<double>& n : dens) single.push_back(ctx.solve_on_grid(n));
  const double flops_single = counter("sunway.kernel.flops") - flops_before;
  const double bytes_single = counter("sunway.dma.bytes") - bytes_before;
  EXPECT_GT(flops_single, 0.0);
  for (std::size_t k = 1; k <= dens.size(); ++k) {
    const double flops0 = counter("sunway.kernel.flops");
    const double bytes0 = counter("sunway.dma.bytes");
    const std::vector<std::vector<double>> multi =
        ctx.solve_on_grid(std::span(dens.data(), k));
    const double flops = counter("sunway.kernel.flops") - flops0;
    const double bytes = counter("sunway.dma.bytes") - bytes0;
    ASSERT_EQ(multi.size(), k);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(std::memcmp(multi[j].data(), single[j].data(),
                            single[j].size() * sizeof(double)),
                0)
          << "k=" << k << " j=" << j;
    }
    if (k == dens.size()) {
      EXPECT_EQ(flops, flops_single);
      EXPECT_EQ(bytes, bytes_single);
    }
  }
  obs::set_enabled(false);
  obs::reset_for_testing();
  const std::vector<std::vector<double>> on_host = host_ctx.solve_on_grid(dens);
  for (std::size_t j = 0; j < dens.size(); ++j) {
    EXPECT_EQ(std::memcmp(on_host[j].data(), single[j].data(),
                          single[j].size() * sizeof(double)),
              0)
        << "host j=" << j;
  }
}

TEST(HartreeBackendDispatch, L2lOnEveryCoreIsBitwiseTheInlinePass) {
  // At top level the downward pass runs L2L level by level on every core;
  // inside a threads:: task the same pass runs inline on one thread. Both
  // give the same bits, for a multi-potential pass too.
  const grid::MolecularGrid& g = cluster_grid();
  std::vector<std::vector<double>> dens(2, cluster_density());
  for (std::size_t p = 0; p < g.size(); ++p) {
    dens[1][p] *= 0.5 + 0.3 * std::tanh(0.2 * (g.points[p].x - g.points[p].z));
  }
  const HartreeContext top(g, 6, HartreeBackend::Fmm, FmmOptions{});
  const HartreeContext nested(g, 6, HartreeBackend::Fmm, FmmOptions{});
  ASSERT_FALSE(threads::in_task());
  const std::vector<std::vector<double>> want = top.solve_on_grid(dens);
  std::vector<std::vector<double>> got;
  threads::fork_join(1, [&](std::size_t) {
    EXPECT_TRUE(threads::in_task());
    got = nested.solve_on_grid(dens);
  });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(got[j].size(), want[j].size());
    EXPECT_EQ(std::memcmp(got[j].data(), want[j].data(),
                          want[j].size() * sizeof(double)),
              0)
        << "potential " << j;
  }
}

TEST(HartreeBackendDispatch, AutoFollowsTheCostModel) {
  const HartreeContext ctx(cluster_grid(), 6, HartreeBackend::Auto,
                           FmmOptions{});
  const std::vector<double> v = ctx.solve_on_grid(cluster_density());
  ASSERT_EQ(v.size(), cluster_grid().size());
  const FmmStats& st = ctx.stats();
  EXPECT_GT(st.direct_flops, 0.0);
  EXPECT_GT(st.fmm_flops, 0.0);
  const HartreeBackend expect = st.fmm_flops < st.direct_flops
                                    ? HartreeBackend::Fmm
                                    : HartreeBackend::Direct;
  EXPECT_EQ(st.resolved, expect);
}

TEST(HartreeBackendDispatch, FmmOrderBelowLmaxIsRejected) {
  FmmOptions opt;
  opt.order = 4;
  EXPECT_THROW(HartreeContext(cluster_grid(), 6, HartreeBackend::Fmm, opt),
               std::exception);
}

}  // namespace
}  // namespace swraman::fmm
