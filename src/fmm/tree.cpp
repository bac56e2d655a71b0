#include "fmm/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace swraman::fmm {

namespace {

// Spreads the low 21 bits of v three apart (magic-number bit dilation).
std::uint64_t dilate3(std::uint64_t v) {
  v &= 0x1fffff;
  v = (v | (v << 32)) & 0x1f00000000ffffULL;
  v = (v | (v << 16)) & 0x1f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}

}  // namespace

std::uint64_t morton_key(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return dilate3(x) | (dilate3(y) << 1) | (dilate3(z) << 2);
}

Octree::Octree(const std::vector<Vec3>& positions,
               const std::vector<double>& extent,
               const OctreeOptions& options) {
  SWRAMAN_REQUIRE(!positions.empty(), "Octree: empty point set");
  SWRAMAN_REQUIRE(extent.empty() || extent.size() == positions.size(),
                  "Octree: extent size mismatch");

  // Bounding cube: tight AABB, then the largest edge padded slightly so
  // boundary points quantize strictly inside [0, 2^21).
  Vec3 lo = positions[0];
  Vec3 hi = positions[0];
  for (const Vec3& p : positions) {
    for (int c = 0; c < 3; ++c) {
      lo[c] = std::min(lo[c], p[c]);
      hi[c] = std::max(hi[c], p[c]);
    }
  }
  box_center_ = {0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y),
                 0.5 * (lo.z + hi.z)};
  double edge = std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z});
  edge = std::max(edge, 1e-12) * (1.0 + 1e-9);
  box_half_ = 0.5 * edge;

  // Quantize to 21-bit lattice coordinates and Morton-sort.
  const std::size_t n = positions.size();
  constexpr double kScale = static_cast<double>(1u << 21);
  std::vector<std::uint64_t> raw(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t q[3];
    for (int c = 0; c < 3; ++c) {
      double t = (positions[i][c] - (box_center_[c] - box_half_)) /
                 (2.0 * box_half_);
      t = std::min(std::max(t, 0.0), 1.0 - 1e-12);
      q[c] = static_cast<std::uint32_t>(t * kScale);
    }
    raw[i] = morton_key(q[0], q[1], q[2]);
  }
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&raw](std::size_t a, std::size_t b) {
                     return raw[a] < raw[b];
                   });
  keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) keys_[i] = raw[order_[i]];

  Cell root;
  root.center = box_center_;
  root.half = box_half_;
  root.first_body = 0;
  root.n_bodies = n;
  root.level = 0;
  cells_.push_back(root);
  build_cell(0, 0, n, positions, extent, options);

  level_begin_.assign(static_cast<std::size_t>(depth_) + 2, 0);
  for (const Cell& c : cells_) {
    ++level_begin_[static_cast<std::size_t>(c.level) + 1];
  }
  for (std::size_t l = 1; l < level_begin_.size(); ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }
  std::vector<std::size_t> fill(level_begin_.begin(), level_begin_.end() - 1);
  level_cells_.resize(cells_.size());
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    level_cells_[fill[static_cast<std::size_t>(cells_[ci].level)]++] = ci;
  }
}

void Octree::build_cell(std::size_t cell, std::size_t lo, std::size_t hi,
                        const std::vector<Vec3>& positions,
                        const std::vector<double>& extent,
                        const OctreeOptions& options) {
  // Geometric bounding radius (convergence) and extent-inflated reach
  // (far-field validity) over the member bodies, from the cube center.
  {
    Cell& c = cells_[cell];
    double r = 0.0;
    double reach = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t b = order_[i];
      const double d = (positions[b] - c.center).norm();
      r = std::max(r, d);
      reach = std::max(reach, d + (extent.empty() ? 0.0 : extent[b]));
    }
    c.radius = r;
    c.reach = reach;
    depth_ = std::max(depth_, c.level);
  }

  const int level = cells_[cell].level;
  if (hi - lo <= options.leaf_size || level >= options.max_depth) {
    ++n_leaves_;
    return;
  }

  // Children are the runs of equal 3-bit Morton digits at this level.
  // Digit for level L sits at bit 3*(20-L) (keys have 21 digit levels).
  const int shift = 3 * (20 - level);
  const std::size_t first_child = cells_.size();
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t run = lo;
  while (run < hi) {
    const std::uint64_t digit = (keys_[run] >> shift) & 7u;
    std::size_t end = run + 1;
    while (end < hi && ((keys_[end] >> shift) & 7u) == digit) ++end;
    ranges.emplace_back(run, end);
    run = end;
  }
  cells_[cell].first_child = first_child;
  cells_[cell].n_children = static_cast<int>(ranges.size());
  const Vec3 pc = cells_[cell].center;
  const double ch = 0.5 * cells_[cell].half;
  for (const auto& [rlo, rhi] : ranges) {
    const std::uint64_t digit = (keys_[rlo] >> shift) & 7u;
    Cell child;
    child.center = {pc.x + (((digit >> 0) & 1u) ? ch : -ch),
                    pc.y + (((digit >> 1) & 1u) ? ch : -ch),
                    pc.z + (((digit >> 2) & 1u) ? ch : -ch)};
    child.half = ch;
    child.first_body = rlo;
    child.n_bodies = rhi - rlo;
    child.parent = cell;
    child.level = level + 1;
    cells_.push_back(child);
  }
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    build_cell(first_child + k, ranges[k].first, ranges[k].second, positions,
               extent, options);
  }
}

}  // namespace swraman::fmm
