#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/vec3.hpp"

// Morton-keyed octrees over point sets (paper hero-workload scaling work;
// exafmm-alpha idiom). Bodies — atom centers on the source side, grid
// points on the target side — are sorted by their 63-bit interleaved
// Morton key inside the bounding cube, and cells are built top-down by
// splitting key ranges on the 3-bit digit of each level. The cell array is
// laid out parent-before-children, so upward passes run the array in
// reverse and downward passes run it forward.

namespace swraman::fmm {

// Interleaves the low 21 bits of x, y, z into one 63-bit Morton key
// (x lowest). Exposed for the property-based tree tests.
[[nodiscard]] std::uint64_t morton_key(std::uint32_t x, std::uint32_t y,
                                       std::uint32_t z);

struct OctreeOptions {
  // Split a cell while it holds more than this many bodies (and the key
  // resolution is not exhausted).
  std::size_t leaf_size = 16;
  // Hard depth cap; 21 levels exhausts the Morton key resolution.
  int max_depth = 21;
};

constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);

struct Cell {
  Vec3 center;            // cube center of this octant
  double half = 0.0;      // cube half-edge
  // Geometric bounding radius: the farthest body position from the cube
  // center. This is what governs multipole/local convergence (the
  // expansions see the bodies as point multipoles at their centers), so
  // the MAC's theta condition and the truncation bound use it.
  double radius = 0.0;
  // Validity reach: the farthest (body position + body extent) from the
  // cube center. Source bodies carry their spline outer radius as extent,
  // so a target farther than `reach` is outside every member atom's spline
  // sphere — exactly where the analytic far field (and hence the
  // expansion) represents the atom's potential. Equals `radius` when the
  // tree was built without extents.
  double reach = 0.0;
  std::size_t first_body = 0;  // range into body_order()
  std::size_t n_bodies = 0;
  std::size_t parent = kNoCell;
  std::size_t first_child = kNoCell;  // children are contiguous
  int n_children = 0;
  int level = 0;

  [[nodiscard]] bool is_leaf() const { return n_children == 0; }
};

class Octree {
 public:
  // Builds the tree over `positions`; `extent` (empty, or one radius per
  // body) inflates each body for the cell bounding radius.
  Octree(const std::vector<Vec3>& positions, const std::vector<double>& extent,
         const OctreeOptions& options);

  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
  [[nodiscard]] std::size_t root() const { return 0; }

  // Morton-sorted permutation: body_order()[i] is the original index of the
  // i-th body in tree order. Cell body ranges index this array.
  [[nodiscard]] const std::vector<std::size_t>& body_order() const {
    return order_;
  }
  // Morton key of the i-th body in tree order (ascending).
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const {
    return keys_;
  }

  // Cells grouped by level, each level in cell order: level L is
  // level_cells()[level_begin()[L], level_begin()[L + 1]).
  [[nodiscard]] const std::vector<std::size_t>& level_cells() const {
    return level_cells_;
  }
  [[nodiscard]] const std::vector<std::size_t>& level_begin() const {
    return level_begin_;
  }

  [[nodiscard]] std::size_t n_bodies() const { return order_.size(); }
  [[nodiscard]] std::size_t n_leaves() const { return n_leaves_; }
  [[nodiscard]] int depth() const { return depth_; }

  // Cube enclosing all bodies (the root cell's geometry).
  [[nodiscard]] const Vec3& box_center() const { return box_center_; }
  [[nodiscard]] double box_half() const { return box_half_; }

 private:
  void build_cell(std::size_t cell, std::size_t lo, std::size_t hi,
                  const std::vector<Vec3>& positions,
                  const std::vector<double>& extent,
                  const OctreeOptions& options);

  std::vector<Cell> cells_;
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::size_t> level_cells_;
  std::vector<std::size_t> level_begin_;  // size depth() + 2
  Vec3 box_center_;
  double box_half_ = 0.0;
  std::size_t n_leaves_ = 0;
  int depth_ = 0;
};

}  // namespace swraman::fmm
