#include "fmm/kernel.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "fmm/traversal.hpp"
#include "fmm/tree.hpp"
#include "grid/ylm.hpp"

// Operator-chain exactness against direct 1/r sums of random point charges,
// plus the analytic truncation bound the backend threads through p / theta.
// Point charges are the sharpest probe: each carries moments of every
// degree, so any phase or normalization slip in one translation shows up
// immediately in the evaluated potential.

namespace swraman::fmm {
namespace {

struct Charges {
  std::vector<Vec3> x;
  std::vector<double> q;

  [[nodiscard]] double direct(const Vec3& t) const {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) v += q[i] / (t - x[i]).norm();
    return v;
  }
};

Charges ball_charges(const Vec3& c, double radius, int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Charges ch;
  for (int i = 0; i < n; ++i) {
    ch.x.push_back({c.x + radius * u(rng), c.y + radius * u(rng),
                    c.z + radius * u(rng)});
    ch.q.push_back(u(rng));
  }
  return ch;
}

TEST(FmmKernel, MonopoleReducesToCoulomb) {
  const FmmKernel K(6);
  FmmKernel::Workspace ws;
  std::vector<Cplx> M(nm_count(6), Cplx{});
  K.p2m(2.5, {0.0, 0.0, 0.0}, M.data(), ws);
  for (const Vec3& d : {Vec3{3.0, 0.0, 0.0}, Vec3{1.0, -2.0, 0.5}}) {
    EXPECT_NEAR(K.m2p(M.data(), d, ws), 2.5 / d.norm(), 1e-14);
  }
}

// The full Greengard chain at p = 12 on charges in a ball of radius ~0.7:
// every translated evaluation must agree with the direct sum to machine
// precision at well-separated targets (the series converge geometrically,
// so at p = 12 the truncation tail is below the double noise floor here).
TEST(FmmKernel, TranslationChainMatchesDirectSum) {
  const int p = 12;
  const FmmKernel K(p);
  FmmKernel::Workspace ws;
  const Vec3 c1{0.1, -0.2, 0.05};
  const Charges ch = ball_charges(c1, 0.4, 20, 1234);
  const std::size_t nm = nm_count(p);

  std::vector<Cplx> M1(nm, Cplx{});
  for (std::size_t i = 0; i < ch.x.size(); ++i) {
    K.p2m(ch.q[i], ch.x[i] - c1, M1.data(), ws);
  }

  const Vec3 far{5.0, 4.0, -3.0};
  EXPECT_NEAR(K.m2p(M1.data(), far - c1, ws), ch.direct(far), 1e-11);

  // M2M: shift the multipole to a nearby center.
  const Vec3 c2{-0.3, 0.25, 0.4};
  std::vector<Cplx> M2(nm, Cplx{});
  K.m2m(M1.data(), c1 - c2, M2.data(), ws);
  EXPECT_NEAR(K.m2p(M2.data(), far - c2, ws), ch.direct(far), 1e-9);

  // M2L: local expansion about a well-separated center.
  const Vec3 ct{6.0, 5.0, -4.0};
  std::vector<Cplx> L1(nm, Cplx{});
  K.m2l(M1.data(), c1 - ct, L1.data(), ws);
  const Vec3 t1{6.3, 4.8, -4.2};
  EXPECT_NEAR(K.l2p(L1.data(), t1 - ct, ws), ch.direct(t1), 1e-11);

  // L2L: push the local expansion to a child center.
  const Vec3 ct2{6.2, 4.9, -4.1};
  std::vector<Cplx> L2(nm, Cplx{});
  K.l2l(L1.data(), ct2 - ct, L2.data(), ws);
  EXPECT_NEAR(K.l2p(L2.data(), t1 - ct2, ws), ch.direct(t1), 1e-11);
}

TEST(FmmKernel, OperatorsAccumulateLinearly) {
  // Running p2m twice with half the charge equals one full-charge p2m;
  // m2l of the summed multipole equals the sum of the m2l's.
  const int p = 8;
  const FmmKernel K(p);
  FmmKernel::Workspace ws;
  const std::size_t nm = nm_count(p);
  const Vec3 d{0.3, -0.2, 0.4};
  std::vector<Cplx> Ma(nm, Cplx{}), Mb(nm, Cplx{});
  K.p2m(1.0, d, Ma.data(), ws);
  K.p2m(0.5, d, Mb.data(), ws);
  K.p2m(0.5, d, Mb.data(), ws);
  for (std::size_t i = 0; i < nm; ++i) {
    EXPECT_NEAR(std::abs(Ma[i] - Mb[i]), 0.0, 1e-14);
  }
}

// Converting an atom's real Delley moments must reproduce the same complex
// multipole that p2m builds from the underlying charges (up to the lmax
// truncation): this is the contract that makes a cell multipole agree with
// MultipolePotential's analytic far field.
TEST(FmmKernel, DelleyMomentConversionMatchesPointMoments) {
  const int p = 12;
  const int lmax = 6;
  const FmmKernel K(p);
  FmmKernel::Workspace ws;
  const Vec3 c1{0.1, -0.2, 0.05};
  const Charges ch = ball_charges(c1, 0.4, 20, 1234);
  const std::size_t nm = nm_count(p);

  std::vector<Cplx> M1(nm, Cplx{});
  for (std::size_t i = 0; i < ch.x.size(); ++i) {
    K.p2m(ch.q[i], ch.x[i] - c1, M1.data(), ws);
  }

  // Real moments q_lm = sum_i q_i r_i^l Y_lm(r_i) in the repo convention.
  std::vector<double> qlm(grid::n_lm(lmax), 0.0);
  std::vector<double> y;
  for (std::size_t i = 0; i < ch.x.size(); ++i) {
    const Vec3 d = ch.x[i] - c1;
    grid::real_ylm(d, lmax, y);
    double rl = 1.0;
    for (int l = 0; l <= lmax; ++l) {
      for (int m = -l; m <= l; ++m) {
        qlm[grid::lm_index(l, m)] += ch.q[i] * rl * y[grid::lm_index(l, m)];
      }
      rl *= d.norm();
    }
  }
  std::vector<Cplx> Ma(nm, Cplx{});
  K.atom_moments_to_multipole(qlm.data(), lmax, Ma.data());
  for (int l = 0; l <= lmax; ++l) {
    for (int m = -l; m <= l; ++m) {
      EXPECT_NEAR(std::abs(Ma[nm_index(l, m)] - M1[nm_index(l, m)]), 0.0,
                  1e-13)
          << "l=" << l << " m=" << m;
    }
  }
}

TEST(FmmKernel, ErrorBoundDominatesObservedErrorAndDecaysWithOrder) {
  const Vec3 c1{0.0, 0.0, 0.0};
  const Charges ch = ball_charges(c1, 0.5, 30, 77);
  double ra = 0.0;
  double qa = 0.0;  // aggregate absolute monopole: the abs_moment for l = 0
  for (std::size_t i = 0; i < ch.x.size(); ++i) {
    ra = std::max(ra, (ch.x[i] - c1).norm());
    qa += std::abs(ch.q[i]);
  }
  const Vec3 ct{4.0, 1.0, -2.0};
  const double rb = 0.6;
  const double dist = (ct - c1).norm();

  std::mt19937 rng(99);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<Vec3> targets;
  for (int i = 0; i < 40; ++i) {
    const Vec3 t{ct.x + rb * u(rng) / 1.8, ct.y + rb * u(rng) / 1.8,
                 ct.z + rb * u(rng) / 1.8};
    if ((t - ct).norm() <= rb) targets.push_back(t);
  }
  ASSERT_GE(targets.size(), 10u);

  double prev_bound = std::numeric_limits<double>::infinity();
  for (int p : {4, 6, 8, 12}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const FmmKernel K(p);
    FmmKernel::Workspace ws;
    std::vector<Cplx> M(nm_count(p), Cplx{});
    for (std::size_t i = 0; i < ch.x.size(); ++i) {
      K.p2m(ch.q[i], ch.x[i] - c1, M.data(), ws);
    }
    std::vector<Cplx> L(nm_count(p), Cplx{});
    K.m2l(M.data(), c1 - ct, L.data(), ws);
    double err = 0.0;
    for (const Vec3& t : targets) {
      err = std::max(err, std::abs(K.l2p(L.data(), t - ct, ws) -
                                   ch.direct(t)));
    }
    const double bound = m2l_error_bound({qa}, ra, rb, dist, p);
    EXPECT_TRUE(std::isfinite(bound));
    EXPECT_GT(bound, 0.0);
    EXPECT_LE(err, bound);
    EXPECT_LT(bound, prev_bound);
    prev_bound = bound;
  }
}

TEST(FmmKernel, ErrorBoundIsInfiniteWhenCellsOverlap) {
  // gap = dist - ra - rb <= 0 violates the MAC precondition: no finite
  // statement is possible and the bound must say so.
  const double b = m2l_error_bound({1.0}, 1.0, 1.0, 1.5, 6);
  EXPECT_TRUE(std::isinf(b));
}

TEST(FmmKernel, FlopModelsScaleWithOrder) {
  const FmmKernel k4(4);
  const FmmKernel k8(8);
  EXPECT_GT(k4.m2l_flops(), 0.0);
  EXPECT_GT(k8.m2l_flops(), k4.m2l_flops());
  EXPECT_GT(k8.l2p_flops(), k4.l2p_flops());
}

// The downward pass must run parents before children: each cell's local
// ends as its own M2L sum plus its parent's final local, translated. The
// reference is a serial top-down pass in cell order (the octree lays
// parents out before children); l2l_pass runs level by level on every
// core. With M2L contributions at three or more levels, a pass that
// translates a child before its parent has received the grandparent's
// local (deepest level first, say) drops far fields and fails here.
TEST(FmmL2lPass, EveryLocalMatchesASerialTopDownPass) {
  const int p = 4;
  const FmmKernel K(p);
  const std::size_t nm = nm_count(p);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  // Targets and sources fill the same cube, so well-separated pairs form
  // at several levels of the target tree.
  std::vector<Vec3> target_pts(1500);
  std::vector<Vec3> source_pts(120);
  for (Vec3& x : target_pts) x = {8.0 * u(rng), 8.0 * u(rng), 8.0 * u(rng)};
  for (Vec3& x : source_pts) x = {8.0 * u(rng), 8.0 * u(rng), 8.0 * u(rng)};
  OctreeOptions target_opt;
  target_opt.leaf_size = 8;
  OctreeOptions source_opt;
  source_opt.leaf_size = 4;
  const Octree targets(target_pts, {}, target_opt);
  const Octree sources(source_pts, {}, source_opt);
  const InteractionLists lists = traverse(targets, sources, 0.6);
  const std::vector<Cell>& tcells = targets.cells();
  const std::vector<Cell>& scells = sources.cells();
  std::set<int> m2l_levels;
  for (const CellPair& pr : lists.m2l) {
    m2l_levels.insert(tcells[pr.target].level);
  }
  ASSERT_GE(m2l_levels.size(), 3u);

  // Two potentials, each an M2L sum of one random charge per source cell.
  const std::size_t n_pots = 2;
  std::vector<Cplx> locals(n_pots * tcells.size() * nm, Cplx{});
  FmmKernel::Workspace ws;
  std::vector<Cplx> M(nm);
  for (std::size_t j = 0; j < n_pots; ++j) {
    for (const CellPair& pr : lists.m2l) {
      std::fill(M.begin(), M.end(), Cplx{});
      K.p2m(u(rng), {0.2 * u(rng), 0.2 * u(rng), 0.2 * u(rng)}, M.data(), ws);
      K.m2l(M.data(), scells[pr.source].center - tcells[pr.target].center,
            &locals[(j * tcells.size() + pr.target) * nm], ws);
    }
  }
  std::vector<Cplx> want = locals;
  for (std::size_t j = 0; j < n_pots; ++j) {
    Cplx* loc = &want[j * tcells.size() * nm];
    for (std::size_t ci = 1; ci < tcells.size(); ++ci) {
      const Cell& c = tcells[ci];
      ASSERT_LT(c.parent, ci);
      K.l2l(&loc[c.parent * nm], c.center - tcells[c.parent].center,
            &loc[ci * nm], ws);
    }
  }

  l2l_pass(K, targets, n_pots, locals.data());
  for (std::size_t j = 0; j < n_pots; ++j) {
    for (std::size_t ci = 0; ci < tcells.size(); ++ci) {
      const std::size_t at = (j * tcells.size() + ci) * nm;
      EXPECT_EQ(std::memcmp(&locals[at], &want[at], nm * sizeof(Cplx)), 0)
          << "potential " << j << ", cell " << ci << " at level "
          << tcells[ci].level;
    }
  }
}

}  // namespace
}  // namespace swraman::fmm
