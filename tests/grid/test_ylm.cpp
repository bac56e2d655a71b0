#include "grid/ylm.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/error.hpp"
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
      if (m != 0) {
        EXPECT_NEAR(y[lm_index(l, m)], 0.0, 1e-12);
      }
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

// The recurrence as written before its constants moved into the
// process-wide table: scratch and constants built per call, each constant
// by its original expression. real_ylm must reproduce it bit for bit.
std::vector<double> reference_ylm(const Vec3& u, int lmax) {
  auto tri = [](int l, int m) {
    return static_cast<std::size_t>(l * (l + 1) / 2 + m);
  };
  const std::size_t nl = static_cast<std::size_t>(lmax + 1);
  std::vector<double> diag(nl, 0.0), sub(nl, 0.0);
  std::vector<double> ra(tri(lmax + 1, 0), 0.0), rb(tri(lmax + 1, 0), 0.0);
  std::vector<double> q(tri(lmax + 1, 0), 0.0), cm(nl, 0.0), sm(nl, 0.0);
  for (int m = 1; m <= lmax; ++m) {
    diag[m] = std::sqrt((2.0 * m + 1.0) / (2.0 * m));
  }
  for (int m = 0; m < lmax; ++m) sub[m] = std::sqrt(2.0 * m + 3.0);
  for (int m = 0; m <= lmax; ++m) {
    for (int l = m + 2; l <= lmax; ++l) {
      ra[tri(l, m)] =
          std::sqrt((4.0 * l * l - 1.0) / (static_cast<double>(l) * l - m * m));
      rb[tri(l, m)] = std::sqrt(
          (static_cast<double>(l - 1) * (l - 1) - m * m) /
          (4.0 * static_cast<double>(l - 1) * (l - 1) - 1.0));
    }
  }

  const double r = u.norm();
  double c = 1.0;
  double s = 0.0;
  double cphi = 1.0;
  double sphi = 0.0;
  if (r > 0.0) {
    c = u.z / r;
    const double rho = std::hypot(u.x, u.y);
    s = rho / r;
    if (rho > 0.0) {
      cphi = u.x / rho;
      sphi = u.y / rho;
    }
  }
  q[tri(0, 0)] = std::sqrt(1.0 / kFourPi);
  for (int m = 1; m <= lmax; ++m) {
    q[tri(m, m)] = diag[m] * s * q[tri(m - 1, m - 1)];
  }
  for (int m = 0; m < lmax; ++m) {
    q[tri(m + 1, m)] = sub[m] * c * q[tri(m, m)];
  }
  for (int m = 0; m <= lmax; ++m) {
    for (int l = m + 2; l <= lmax; ++l) {
      q[tri(l, m)] = ra[tri(l, m)] *
                     (c * q[tri(l - 1, m)] - rb[tri(l, m)] * q[tri(l - 2, m)]);
    }
  }
  cm[0] = 1.0;
  sm[0] = 0.0;
  for (int m = 1; m <= lmax; ++m) {
    cm[m] = cm[m - 1] * cphi - sm[m - 1] * sphi;
    sm[m] = sm[m - 1] * cphi + cm[m - 1] * sphi;
  }
  std::vector<double> out(n_lm(lmax));
  const double sqrt2 = std::sqrt(2.0);
  for (int l = 0; l <= lmax; ++l) {
    out[lm_index(l, 0)] = q[tri(l, 0)];
    for (int m = 1; m <= l; ++m) {
      const double qlm = q[tri(l, m)];
      out[lm_index(l, m)] = sqrt2 * qlm * cm[m];
      out[lm_index(l, -m)] = sqrt2 * qlm * sm[m];
    }
  }
  return out;
}

TEST(RealYlm, ConstantsTableMatchesReferenceRecurrenceBitwise) {
  std::vector<Vec3> dirs = {{0.0, 0.0, 0.0},      {0.0, 0.0, 1.0},
                            {0.0, 0.0, -1.0},     {1.0, 0.0, 0.0},
                            {-1.0, 0.0, 0.0},     {0.0, 1.0, 0.0},
                            {0.0, -1.0, 0.0},     {3e-13, -7e-13, 1e-12},
                            {1e-12, 0.0, 0.0},    {0.0, 0.0, -1e-12},
                            {4e5, -7e5, 1e6},     {0.0, 1e6, 0.0},
                            {1e6, 1e6, -1e6}};
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int i = 0; i < 512; ++i) {
    dirs.push_back({dist(rng), dist(rng), dist(rng)});
  }
  for (int lmax = 0; lmax <= kYlmMaxDegree; ++lmax) {
    for (const Vec3& u : dirs) {
      const std::vector<double> ref = reference_ylm(u, lmax);
      const std::vector<double> got = real_ylm(u, lmax);
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                            ref.size() * sizeof(double)),
                0)
          << "lmax=" << lmax << " u=" << u;
    }
  }
}

TEST(RealYlm, DegreeAboveTheTableIsRejected) {
  std::vector<double> y;
  EXPECT_THROW(real_ylm({0.3, -0.4, 0.87}, kYlmMaxDegree + 1, y), Error);
  EXPECT_THROW(real_ylm({0.3, -0.4, 0.87}, -1, y), Error);
}

TEST(RealYlm, LowerLmaxIsBitwisePrefix) {
  // The Hartree evaluation stops each atom at its resolved channel l and
  // relies on real_ylm(u, l) being exactly the head of real_ylm(u, L).
  // lmax moves both up and down between calls on the shared constants.
  const std::vector<Vec3> dirs = {{0.3, -0.4, 0.87},  {0.0, 0.0, 1.0},
                                  {0.0, 0.0, -2.5},   {-1.2, 0.5, -0.1},
                                  {0.0, 2.0, 0.0},    {1e-9, -3e-9, 0.2},
                                  {0.0, 0.0, 0.0}};
  std::vector<double> lo;
  std::vector<double> hi;
  for (const Vec3& u : dirs) {
    for (int big = 0; big <= 8; ++big) {
      real_ylm(u, big, hi);
      for (int l = big; l >= 0; --l) {
        real_ylm(u, l, lo);
        ASSERT_EQ(lo.size(), n_lm(l));
        for (std::size_t i = 0; i < lo.size(); ++i) {
          EXPECT_EQ(lo[i], hi[i])
              << "l=" << l << " L=" << big << " u=" << u << " i=" << i;
        }
      }
    }
  }
}

TEST(RealYlm, PointerFormIsBitwiseTheVectorForm) {
  // The per-point hot loops write into caller storage through the pointer
  // form. It must give the vector form's bits and write exactly n_lm(l)
  // entries, across rising and falling lmax.
  const std::vector<Vec3> dirs = {{0.3, -0.4, 0.87},  {0.0, 0.0, 1.0},
                                  {0.0, 0.0, -2.5},   {-1.2, 0.5, -0.1},
                                  {0.0, 2.0, 0.0},    {1e-9, -3e-9, 0.2},
                                  {0.0, 0.0, 0.0}};
  const double sentinel = std::numeric_limits<double>::quiet_NaN();
  for (const Vec3& u : dirs) {
    for (int l : {0, 3, 8, 1, 5, 2, 7, 4, 6}) {
      std::vector<double> out(n_lm(8) + 1, sentinel);
      real_ylm(u, l, out.data());
      std::vector<double> ref;
      real_ylm(u, l, ref);
      ASSERT_EQ(ref.size(), n_lm(l));
      EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                            ref.size() * sizeof(double)),
                0)
          << "l=" << l << " u=" << u;
      for (std::size_t i = ref.size(); i < out.size(); ++i) {
        EXPECT_TRUE(std::isnan(out[i])) << "wrote past n_lm(" << l << ")";
      }
    }
  }
}

}  // namespace
}  // namespace swraman::grid
