#include "grid/ylm.hpp"

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "grid/angular.hpp"

namespace swraman::grid {
namespace {

TEST(Ylm, LowOrderClosedForms) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    Vec3 u{dist(rng), dist(rng), dist(rng)};
    if (u.norm() < 1e-3) continue;
    u = u / u.norm();
    const std::vector<double> y = real_ylm(u, 2);

    EXPECT_NEAR(y[lm_index(0, 0)], std::sqrt(1.0 / kFourPi), 1e-12);
    const double c1 = std::sqrt(3.0 / kFourPi);
    EXPECT_NEAR(y[lm_index(1, -1)], c1 * u.y, 1e-12);
    EXPECT_NEAR(y[lm_index(1, 0)], c1 * u.z, 1e-12);
    EXPECT_NEAR(y[lm_index(1, 1)], c1 * u.x, 1e-12);

    const double c2 = 0.5 * std::sqrt(15.0 / kPi);
    EXPECT_NEAR(y[lm_index(2, -2)], c2 * u.x * u.y, 1e-12);
    EXPECT_NEAR(y[lm_index(2, -1)], c2 * u.y * u.z, 1e-12);
    EXPECT_NEAR(y[lm_index(2, 1)], c2 * u.x * u.z, 1e-12);
    EXPECT_NEAR(y[lm_index(2, 0)],
                0.25 * std::sqrt(5.0 / kPi) * (3.0 * u.z * u.z - 1.0), 1e-12);
    EXPECT_NEAR(y[lm_index(2, 2)],
                0.25 * std::sqrt(15.0 / kPi) * (u.x * u.x - u.y * u.y), 1e-12);
  }
}

TEST(Ylm, NorthPoleIsFinite) {
  const std::vector<double> y = real_ylm({0.0, 0.0, 1.0}, 8);
  for (double v : y) EXPECT_TRUE(std::isfinite(v));
  // Only m = 0 components survive at the pole.
  for (int l = 1; l <= 8; ++l) {
    for (int m = -l; m <= l; ++m) {
      if (m != 0) EXPECT_NEAR(y[lm_index(l, m)], 0.0, 1e-12);
    }
  }
}

class YlmOrthonormality : public ::testing::TestWithParam<int> {};

TEST_P(YlmOrthonormality, QuadratureOrthonormal) {
  const int lmax = GetParam();
  // Product grid exact to 2*lmax integrates all Y_lm * Y_l'm' products.
  const AngularGrid g = product_grid(2 * lmax);
  const std::size_t nlm = n_lm(lmax);
  std::vector<double> overlap(nlm * nlm, 0.0);
  std::vector<double> y;
  for (std::size_t i = 0; i < g.points.size(); ++i) {
    real_ylm(g.points[i], lmax, y);
    for (std::size_t a = 0; a < nlm; ++a)
      for (std::size_t b = 0; b <= a; ++b)
        overlap[a * nlm + b] += g.weights[i] * y[a] * y[b];
  }
  for (std::size_t a = 0; a < nlm; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      EXPECT_NEAR(overlap[a * nlm + b], a == b ? 1.0 : 0.0, 1e-10)
          << "lmax=" << lmax << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, YlmOrthonormality,
                         ::testing::Values(0, 1, 2, 4, 6, 8));

TEST(Ylm, UnnormalizedDirectionGivesSameValues) {
  const Vec3 u{0.3, -0.4, 0.87};
  const std::vector<double> a = real_ylm(u, 4);
  const std::vector<double> b = real_ylm(u * 7.5, 4);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Ylm, AdditionTheorem) {
  // sum_m Y_lm(u)^2 = (2l+1)/(4 pi) for any direction.
  const Vec3 u{0.6, 0.0, 0.8};
  const std::vector<double> y = real_ylm(u, 6);
  for (int l = 0; l <= 6; ++l) {
    double s = 0.0;
    for (int m = -l; m <= l; ++m) {
      const double v = y[lm_index(l, m)];
      s += v * v;
    }
    EXPECT_NEAR(s, (2.0 * l + 1.0) / kFourPi, 1e-11);
  }
}

TEST(RealYlm, CachedConstantsAreBitwise) {
  // One workspace reused across changing lmax (the recurrence constants are
  // built up to the largest lmax seen and must serve every smaller one)
  // against a fresh workspace per call.
  const std::vector<Vec3> dirs = {{0.3, -0.4, 0.87},
                                  {0.0, 0.0, 1.0},
                                  {-1.2, 0.5, -0.1},
                                  {0.0, 2.0, 0.0},
                                  {0.0, 0.0, 0.0}};
  YlmWorkspace reused;
  std::vector<double> y_reused;
  for (int lmax : {6, 2, 8, 6}) {
    for (const Vec3& u : dirs) {
      real_ylm(u, lmax, y_reused, reused);
      YlmWorkspace fresh;
      std::vector<double> y_fresh;
      real_ylm(u, lmax, y_fresh, fresh);
      ASSERT_EQ(y_reused.size(), n_lm(lmax));
      for (std::size_t i = 0; i < y_fresh.size(); ++i) {
        EXPECT_EQ(y_reused[i], y_fresh[i])
            << "lmax=" << lmax << " u=" << u << " i=" << i;
      }
      // The convenience overloads share one thread-local workspace.
      const std::vector<double> y_conv = real_ylm(u, lmax);
      for (std::size_t i = 0; i < y_fresh.size(); ++i) {
        EXPECT_EQ(y_conv[i], y_fresh[i])
            << "lmax=" << lmax << " u=" << u << " i=" << i;
      }
    }
  }
}

TEST(RealYlm, LowerLmaxIsBitwisePrefix) {
  // The Hartree evaluation stops each atom at its resolved channel l and
  // relies on real_ylm(u, l) being exactly the head of real_ylm(u, L).
  // One workspace serves every call, so lmax moves both up and down
  // between calls on the same cached constants.
  const std::vector<Vec3> dirs = {{0.3, -0.4, 0.87},  {0.0, 0.0, 1.0},
                                  {0.0, 0.0, -2.5},   {-1.2, 0.5, -0.1},
                                  {0.0, 2.0, 0.0},    {1e-9, -3e-9, 0.2},
                                  {0.0, 0.0, 0.0}};
  YlmWorkspace ws;
  std::vector<double> lo;
  std::vector<double> hi;
  for (const Vec3& u : dirs) {
    for (int big = 0; big <= 8; ++big) {
      real_ylm(u, big, hi, ws);
      for (int l = big; l >= 0; --l) {
        real_ylm(u, l, lo, ws);
        ASSERT_EQ(lo.size(), n_lm(l));
        for (std::size_t i = 0; i < lo.size(); ++i) {
          EXPECT_EQ(lo[i], hi[i])
              << "l=" << l << " L=" << big << " u=" << u << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace swraman::grid
