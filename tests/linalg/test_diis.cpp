#include "linalg/diis.hpp"

#include <cstring>
#include <deque>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "linalg/lu.hpp"

namespace swraman::linalg {
namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) s += a[k] * b[k];
  return s;
}

// The bordered Pulay system of a window, every overlap computed afresh.
std::vector<double> fresh_coefficients(
    const std::deque<std::vector<double>>& window) {
  const std::size_t m = window.size();
  if (m < 2) return {};
  Matrix sys(m + 1, m + 1);
  std::vector<double> rhs(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) sys(i, j) = dot(window[i], window[j]);
    sys(i, m) = -1.0;
    sys(m, i) = -1.0;
  }
  rhs[m] = -1.0;
  const Lu lu(sys);
  if (lu.singular()) return {};
  std::vector<double> c = lu.solve(rhs);
  c.resize(m);
  return c;
}

TEST(DiisGram, SlidingWindowIsBitwiseAFreshSolve) {
  // Twelve residuals through a window of four: after every push and drop
  // the kept overlaps give bitwise the coefficients of a fresh system.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  constexpr std::size_t kDepth = 4;
  std::deque<std::vector<double>> window;
  DiisGram gram;
  EXPECT_TRUE(gram.coefficients().empty());
  for (int step = 0; step < 12; ++step) {
    std::vector<double> r(9);
    for (double& x : r) x = u(rng) * static_cast<double>(1 + step % 5);
    window.push_back(r);
    std::vector<double> row;
    for (const std::vector<double>& w : window) row.push_back(dot(w, r));
    gram.push(std::move(row));
    if (window.size() > kDepth) {
      window.pop_front();
      gram.pop_front();
    }
    ASSERT_EQ(gram.size(), window.size());
    const std::vector<double> got = gram.coefficients();
    const std::vector<double> want = fresh_coefficients(window);
    ASSERT_EQ(got.size(), window.size() < 2 ? 0u : window.size())
        << "step " << step;
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "step " << step;
  }
}

TEST(DiisGram, RejectsARowOfTheWrongLength) {
  DiisGram gram;
  gram.push({1.0});
  EXPECT_THROW(gram.push({1.0}), Error);
  gram.pop_front();
  gram.pop_front();  // empty: no-op
  EXPECT_EQ(gram.size(), 0u);
}

}  // namespace
}  // namespace swraman::linalg
