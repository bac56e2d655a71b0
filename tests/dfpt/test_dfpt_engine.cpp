#include "dfpt/dfpt_engine.hpp"

#include <cmath>
#include <cstring>
#include <deque>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "core/molecules.hpp"
#include "linalg/lu.hpp"
#include "xc/lda.hpp"

namespace swraman::dfpt {
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

TEST(DfptEngine, RequiresConvergedGroundState) {
  scf::ScfOptions opt;
  opt.max_iterations = 1;
  scf::ScfEngine eng(h2(), opt);
  const scf::GroundState gs = eng.solve();
  ASSERT_FALSE(gs.converged);
  EXPECT_THROW(DfptEngine(eng, gs), Error);
}

TEST(DfptEngine, H2PolarizabilityAnisotropy) {
  scf::ScfEngine eng(h2(), {});
  const scf::GroundState gs = eng.solve();
  DfptEngine dfpt(eng, gs);
  const linalg::Matrix alpha = dfpt.polarizability();
  // Parallel (zz, along the bond) exceeds perpendicular; both positive.
  EXPECT_GT(alpha(2, 2), alpha(0, 0));
  EXPECT_GT(alpha(0, 0), 0.0);
  EXPECT_NEAR(alpha(0, 0), alpha(1, 1), 1e-4);
  // Off-diagonals vanish by symmetry.
  EXPECT_NEAR(alpha(0, 1), 0.0, 1e-4);
  EXPECT_NEAR(alpha(0, 2), 0.0, 1e-4);
}

// The central DFPT correctness property: the self-consistent response must
// reproduce the numerical derivative of the finite-field dipole moment.
class DfptVsFiniteField : public ::testing::TestWithParam<int> {};

TEST_P(DfptVsFiniteField, WaterMatchesFiniteField) {
  const int axis = GetParam();
  scf::ScfEngine eng(water(), {});
  const scf::GroundState gs = eng.solve();
  DfptEngine dfpt(eng, gs);
  const ResponseResult res = dfpt.solve_response(axis);
  EXPECT_TRUE(res.converged);

  const double f = 2e-3;
  scf::ScfOptions plus;
  plus.electric_field[axis] = f;
  scf::ScfOptions minus;
  minus.electric_field[axis] = -f;
  scf::ScfEngine ep(water(), plus);
  scf::ScfEngine em(water(), minus);
  const Vec3 dp = ep.solve().dipole;
  const Vec3 dm = em.solve().dipole;

  // alpha_(axis,axis) from DFPT vs central difference.
  linalg::Matrix alpha_col(3, 1);
  const double dfpt_val =
      -linalg::trace_product(res.p1, eng.dipole_matrix(axis));
  (void)alpha_col;
  const double ff_val = (dp[axis] - dm[axis]) / (2.0 * f);
  EXPECT_NEAR(dfpt_val, ff_val, 5e-3 * std::abs(ff_val) + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Axes, DfptVsFiniteField, ::testing::Values(0, 1, 2));

TEST(DfptEngine, WaterPolarizabilityTensorShape) {
  scf::ScfEngine eng(water(), {});
  const scf::GroundState gs = eng.solve();
  DfptEngine dfpt(eng, gs);
  const linalg::Matrix alpha = dfpt.polarizability();
  // C2v water in the xz plane: tensor diagonal, all components positive.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(alpha(i, i), 2.0);
    EXPECT_LT(alpha(i, i), 20.0);
    for (int j = 0; j < i; ++j) {
      EXPECT_NEAR(alpha(i, j), 0.0, 1e-3);
    }
  }
  const double iso = DfptEngine::isotropic(alpha);
  EXPECT_GT(iso, 4.0);
  EXPECT_LT(iso, 12.0);
}

TEST(DfptEngine, KernelTimesAreAccumulated) {
  scf::ScfEngine eng(h2(), {});
  const scf::GroundState gs = eng.solve();
  DfptEngine dfpt(eng, gs);
  (void)dfpt.solve_response(2);
  const KernelTimes& kt = dfpt.kernel_times();
  EXPECT_GT(kt.cycles, 1);
  EXPECT_GT(kt.total(), 0.0);
  EXPECT_GE(kt.n1, 0.0);
  EXPECT_GE(kt.v1, 0.0);
  EXPECT_GE(kt.h1, 0.0);
}

TEST(DfptEngine, DielectricTensorFromPolarizability) {
  linalg::Matrix alpha = linalg::Matrix::identity(3);
  alpha *= 10.0;
  const double volume = 100.0;
  const linalg::Matrix eps = DfptEngine::dielectric_tensor(alpha, volume);
  EXPECT_NEAR(eps(0, 0), 1.0 + kFourPi * 10.0 / 100.0, 1e-12);
  EXPECT_NEAR(eps(0, 1), 0.0, 1e-12);
  EXPECT_THROW(DfptEngine::dielectric_tensor(alpha, 0.0), Error);
}

TEST(DfptEngine, ResponseScalesLinearlyAcrossBackends) {
  // GTO backend yields a polarizability in the same range as NAO (Fig. 11
  // agreement at the physics level).
  scf::ScfOptions gto;
  gto.species.backend = basis::Backend::Gto;
  scf::ScfEngine nao_eng(h2(), {});
  scf::ScfEngine gto_eng(h2(), gto);
  const scf::GroundState nao_gs = nao_eng.solve();
  const scf::GroundState gto_gs = gto_eng.solve();
  DfptEngine nao_dfpt(nao_eng, nao_gs);
  DfptEngine gto_dfpt(gto_eng, gto_gs);
  const double a_nao = nao_dfpt.polarizability()(2, 2);
  const double a_gto = gto_dfpt.polarizability()(2, 2);
  EXPECT_NEAR(a_nao, a_gto, 0.35 * a_nao);
}

}  // namespace
}  // namespace swraman::dfpt
// -- appended coverage: dynamic (frequency-dependent) polarizability.

namespace swraman::dfpt {
namespace {

TEST(DynamicPolarizability, StaticLimitAndDispersion) {
  scf::ScfEngine eng(h2(), {});
  const scf::GroundState gs = eng.solve();
  DfptEngine dfpt(eng, gs);
  const linalg::Matrix a_static = dfpt.polarizability();
  const linalg::Matrix a_zero = dfpt.polarizability_at_frequency(0.0);
  EXPECT_NEAR((a_static - a_zero).max_abs(), 0.0, 1e-8);

  // Normal dispersion: alpha grows with omega below the first excitation.
  const linalg::Matrix a_01 = dfpt.polarizability_at_frequency(0.05);
  const linalg::Matrix a_02 = dfpt.polarizability_at_frequency(0.10);
  EXPECT_GT(a_01(2, 2), a_static(2, 2));
  EXPECT_GT(a_02(2, 2), a_01(2, 2));
  // Well below resonance the dispersion is modest.
  EXPECT_LT(a_02(2, 2), 2.0 * a_static(2, 2));
}

TEST(DynamicPolarizability, RejectsNegativeFrequency) {
  scf::ScfEngine eng(h2(), {});
  const scf::GroundState gs = eng.solve();
  DfptEngine dfpt(eng, gs);
  EXPECT_THROW(dfpt.polarizability_at_frequency(-0.1), Error);
}

}  // namespace
}  // namespace swraman::dfpt
// -- lockstep axes: bitwise the serial response cycles.

namespace swraman::dfpt {
namespace {

// The response cycle of one axis as solve_response ran it before the axes
// moved into lockstep: its own single-density Hartree solve every
// iteration, no fault rolls (the engine's recovery is not exercised here).
linalg::Matrix serial_response(const scf::ScfEngine& eng,
                               const scf::GroundState& gs, int axis,
                               double omega, const DfptOptions& opt) {
  const std::size_t nbf = eng.basis().size();
  const linalg::Matrix d = eng.dipole_matrix(axis);
  const std::vector<double> n0 = eng.density_on_grid(gs.density);
  std::vector<double> fxc(n0.size());
  for (std::size_t p = 0; p < n0.size(); ++p) {
    fxc[p] = xc::evaluate(eng.options().functional, n0[p]).f;
  }
  const linalg::Matrix& c = gs.coefficients;
  std::vector<std::size_t> occ;
  std::vector<std::size_t> vir;
  for (std::size_t j = 0; j < gs.eigenvalues.size(); ++j) {
    if (gs.occupations[j] > 1.0) {
      occ.push_back(j);
    } else if (gs.occupations[j] < 1e-6) {
      vir.push_back(j);
    }
  }
  linalg::Matrix c_vir(nbf, vir.size());
  for (std::size_t a = 0; a < vir.size(); ++a) {
    for (std::size_t mu = 0; mu < nbf; ++mu) c_vir(mu, a) = c(mu, vir[a]);
  }
  linalg::Matrix c_occ(nbf, occ.size());
  for (std::size_t i = 0; i < occ.size(); ++i) {
    for (std::size_t mu = 0; mu < nbf; ++mu) c_occ(mu, i) = c(mu, occ[i]);
  }

  linalg::Matrix p1(nbf, nbf);
  linalg::Matrix h1 = d;
  std::deque<linalg::Matrix> hist_p;
  std::deque<linalg::Matrix> hist_r;
  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    const linalg::Matrix g = linalg::at_b(c, h1 * c);
    linalg::Matrix u(vir.size(), occ.size());
    for (std::size_t a = 0; a < vir.size(); ++a) {
      for (std::size_t i = 0; i < occ.size(); ++i) {
        const double delta = gs.eigenvalues[occ[i]] - gs.eigenvalues[vir[a]];
        const double denom2 = delta * delta - omega * omega;
        if (std::abs(delta) < 1e-8 || std::abs(denom2) < 1e-10) continue;
        u(a, i) = g(vir[a], occ[i]) * delta / denom2 * gs.occupations[occ[i]];
      }
    }
    const linalg::Matrix w = c_vir * u;
    linalg::Matrix p1_new = linalg::a_bt(w, c_occ);
    p1_new += p1_new.transposed();
    const double dp = (p1_new - p1).max_abs();

    hist_p.push_back(p1_new);
    hist_r.push_back(p1_new - p1);
    if (static_cast<int>(hist_p.size()) > opt.diis_depth) {
      hist_p.pop_front();
      hist_r.pop_front();
    }
    const std::size_t m = hist_p.size();
    bool extrapolated = false;
    if (m >= 2) {
      linalg::Matrix b(m + 1, m + 1);
      std::vector<double> rhs(m + 1, 0.0);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          b(i, j) = linalg::trace_product(hist_r[i], hist_r[j].transposed());
        }
        b(i, m) = -1.0;
        b(m, i) = -1.0;
      }
      rhs[m] = -1.0;
      const linalg::Lu lu(b);
      if (!lu.singular()) {
        linalg::Matrix mix(nbf, nbf);
        const std::vector<double> coef = lu.solve(rhs);
        for (std::size_t i = 0; i < m; ++i) {
          linalg::Matrix term = hist_p[i];
          term *= coef[i];
          mix += term;
        }
        p1 = std::move(mix);
        extrapolated = true;
      }
    }
    if (!extrapolated) {
      linalg::Matrix mix = p1;
      mix *= (1.0 - opt.mixing);
      linalg::Matrix add = p1_new;
      add *= opt.mixing;
      mix += add;
      p1 = std::move(mix);
    }
    if (dp < opt.tol) return p1;

    const std::vector<double> n1 = eng.density_on_grid(p1);
    std::vector<double> v1 = eng.hartree().solve_on_grid(n1);
    for (std::size_t p = 0; p < v1.size(); ++p) v1[p] += fxc[p] * n1[p];
    h1 = d;
    h1 += eng.integrate_matrix(v1);
  }
  ADD_FAILURE() << "serial reference did not converge on axis " << axis;
  return p1;
}

// polarizability() assembled from three serial responses.
linalg::Matrix serial_alpha(const scf::ScfEngine& eng,
                            const scf::GroundState& gs, double omega,
                            const DfptOptions& opt) {
  linalg::Matrix alpha(3, 3);
  for (int j = 0; j < 3; ++j) {
    const linalg::Matrix p1 = serial_response(eng, gs, j, omega, opt);
    for (int i = 0; i < 3; ++i) {
      alpha(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          -linalg::trace_product(p1, eng.dipole_matrix(i));
    }
  }
  alpha.symmetrize();
  return alpha;
}

bool bitwise_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

void expect_lockstep_is_serial(const std::vector<grid::AtomSite>& atoms,
                               const scf::ScfOptions& so) {
  scf::ScfEngine eng(atoms, so);
  const scf::GroundState gs = eng.solve();
  ASSERT_TRUE(gs.converged);
  if (so.hartree_backend == fmm::HartreeBackend::Fmm) {
    // The tree pass has both a far field (M2L) and a near field (P2P).
    EXPECT_GT(eng.hartree().stats().n_m2l_pairs, 0u);
    EXPECT_GT(eng.hartree().stats().n_p2p_pairs, 0u);
  }
  const DfptOptions opt;
  for (double omega : {0.0, 0.05}) {
    DfptEngine dfpt(eng, gs, opt);
    const linalg::Matrix alpha =
        omega == 0.0 ? dfpt.polarizability()
                     : dfpt.polarizability_at_frequency(omega);
    const linalg::Matrix ref = serial_alpha(eng, gs, omega, opt);
    EXPECT_TRUE(bitwise_equal(alpha, ref)) << "omega = " << omega;
  }
}

TEST(DfptLockstep, H2DirectIsBitwiseTheSerialAxes) {
  expect_lockstep_is_serial(h2(), {});
}

TEST(DfptLockstep, WaterDirectIsBitwiseTheSerialAxes) {
  expect_lockstep_is_serial(water(), {});
}

TEST(DfptLockstep, WaterClusterFmmIsBitwiseTheSerialAxes) {
  // The cluster benchmark's settings, on a smaller cluster.
  scf::ScfOptions so;
  so.species.tier = basis::Tier::Minimal;
  so.grid.n_radial = 14;
  so.grid.angular_order = 7;
  so.grid.partition = grid::PartitionScheme::Hirshfeld;
  so.multipole_lmax = 4;
  so.hartree_backend = fmm::HartreeBackend::Fmm;
  so.fmm.order = 4;
  so.fmm.theta = 0.6;
  expect_lockstep_is_serial(molecules::water_cluster(4), so);
}

TEST(DfptLockstep, SingleAxisIsTheSerialResponse) {
  scf::ScfEngine eng(water(), {});
  const scf::GroundState gs = eng.solve();
  DfptOptions opt;
  opt.frequency = 0.05;
  DfptEngine dfpt(eng, gs, opt);
  const ResponseResult res = dfpt.solve_response(1);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(bitwise_equal(res.p1, serial_response(eng, gs, 1, 0.05, opt)));
}

}  // namespace
}  // namespace swraman::dfpt
