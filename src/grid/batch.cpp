#include "grid/batch.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace swraman::grid {

namespace {

Vec3 center_of_mass(const std::vector<Vec3>& points,
                    const std::vector<std::size_t>& ids) {
  Vec3 c;
  for (std::size_t id : ids) c += points[id];
  return c * (1.0 / static_cast<double>(ids.size()));
}

}  // namespace

Vec3 principal_axis(const std::vector<Vec3>& points,
                    const std::vector<std::size_t>& ids) {
  SWRAMAN_REQUIRE(!ids.empty(), "principal_axis: empty point set");
  const Vec3 com = center_of_mass(points, ids);

  // 3x3 covariance.
  double c[3][3] = {};
  for (std::size_t id : ids) {
    const Vec3 d = points[id] - com;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) c[i][j] += d[i] * d[j];
  }

  // Power iteration — the dominant eigenvector is the cut-plane normal.
  Vec3 v{1.0, 0.577, 0.317};  // arbitrary, unlikely to be orthogonal
  for (int iter = 0; iter < 50; ++iter) {
    Vec3 w{c[0][0] * v.x + c[0][1] * v.y + c[0][2] * v.z,
           c[1][0] * v.x + c[1][1] * v.y + c[1][2] * v.z,
           c[2][0] * v.x + c[2][1] * v.y + c[2][2] * v.z};
    const double n = w.norm();
    if (n < 1e-30) return {0.0, 0.0, 1.0};  // degenerate cloud: any normal
    w *= 1.0 / n;
    if ((w - v).norm() < 1e-12) return w;
    v = w;
  }
  return v;
}

std::vector<Batch> make_batches(const MolecularGrid& grid,
                                const BatchingOptions& options) {
  SWRAMAN_REQUIRE(options.target_batch_size >= 1, "batch: target size >= 1");
  SWRAMAN_TRACE_SPAN(span, "grid.make_batches");
  std::vector<Batch> batches;
  if (grid.points.empty()) return batches;
  if (span.active()) {
    span.attr("points", static_cast<double>(grid.points.size()));
    span.attr("target_batch_size",
              static_cast<double>(options.target_batch_size));
  }

  const std::size_t limit = static_cast<std::size_t>(
      std::ceil(options.slack * static_cast<double>(options.target_batch_size)));

  std::vector<std::vector<std::size_t>> work;
  work.emplace_back(grid.points.size());
  std::iota(work.back().begin(), work.back().end(), 0);

  while (!work.empty()) {
    std::vector<std::size_t> ids = std::move(work.back());
    work.pop_back();

    if (ids.size() <= limit) {
      Batch b;
      b.center = center_of_mass(grid.points, ids);
      b.point_ids = std::move(ids);
      batches.push_back(std::move(b));
      continue;
    }

    // Cut plane: through the center of mass, normal along the principal
    // axis; median split yields two even halves (paper Sec. 3.1).
    const Vec3 normal = principal_axis(grid.points, ids);
    std::vector<double> proj(ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      proj[k] = dot(grid.points[ids[k]], normal);
    }
    std::vector<std::size_t> order(ids.size());
    std::iota(order.begin(), order.end(), 0);
    const std::size_t half = ids.size() / 2;
    std::nth_element(order.begin(), order.begin() + static_cast<long>(half),
                     order.end(), [&proj](std::size_t a, std::size_t b) {
                       return proj[a] < proj[b];
                     });

    std::vector<std::size_t> lo;
    std::vector<std::size_t> hi;
    lo.reserve(half);
    hi.reserve(ids.size() - half);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      (k < half ? lo : hi).push_back(ids[order[k]]);
    }
    work.push_back(std::move(lo));
    work.push_back(std::move(hi));
  }
  if (span.active()) span.attr("batches", static_cast<double>(batches.size()));
  return batches;
}

}  // namespace swraman::grid
