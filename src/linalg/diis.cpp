#include "linalg/diis.hpp"

#include <utility>

#include "common/error.hpp"
#include "linalg/lu.hpp"

namespace swraman::linalg {

void DiisGram::push(std::vector<double> row) {
  SWRAMAN_REQUIRE(row.size() == rows_.size() + 1,
                  "DiisGram: row must cover the window and the new residual");
  for (std::size_t i = 0; i < rows_.size(); ++i) rows_[i].push_back(row[i]);
  rows_.push_back(std::move(row));
}

void DiisGram::pop_front() {
  if (rows_.empty()) return;
  rows_.pop_front();
  for (std::vector<double>& row : rows_) row.erase(row.begin());
}

std::vector<double> DiisGram::coefficients() const {
  const std::size_t m = rows_.size();
  if (m < 2) return {};
  Matrix sys(m + 1, m + 1);
  std::vector<double> rhs(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) sys(i, j) = rows_[i][j];
    sys(i, m) = -1.0;
    sys(m, i) = -1.0;
  }
  rhs[m] = -1.0;
  const Lu lu(std::move(sys));
  if (lu.singular()) return {};
  std::vector<double> c = lu.solve(rhs);
  c.pop_back();  // the Lagrange multiplier
  return c;
}

}  // namespace swraman::linalg
