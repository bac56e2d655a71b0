#include "fmm/tree.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

// Property-based octree invariants: whatever the point cloud, the Morton
// build must partition the bodies into leaves exactly once, keep tree order
// key-sorted, and nest child cubes / bounding radii inside their parents.

namespace swraman::fmm {
namespace {

std::vector<Vec3> random_cloud(std::size_t n, unsigned seed, double scale) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-scale, scale);
  std::vector<Vec3> pts(n);
  for (Vec3& p : pts) p = {u(rng), u(rng), u(rng)};
  return pts;
}

TEST(MortonKey, InterleavesAxesXLowest) {
  EXPECT_EQ(morton_key(1, 0, 0), 1u);
  EXPECT_EQ(morton_key(0, 1, 0), 2u);
  EXPECT_EQ(morton_key(0, 0, 1), 4u);
  EXPECT_EQ(morton_key(2, 0, 0), 8u);
  EXPECT_EQ(morton_key(3, 3, 3), 63u);
  // The top lattice bit of z lands in the key's highest (62nd) bit.
  EXPECT_EQ(morton_key(0, 0, 1u << 20), 1ull << 62);
}

TEST(MortonKey, AxesDilateIndependently) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::uint32_t> u(0, (1u << 21) - 1);
  for (int i = 0; i < 256; ++i) {
    const std::uint32_t x = u(rng);
    const std::uint32_t y = u(rng);
    const std::uint32_t z = u(rng);
    EXPECT_EQ(morton_key(x, y, z), (morton_key(x, 0, 0) | morton_key(0, y, 0) |
                                    morton_key(0, 0, z)));
  }
}

struct TreeCase {
  std::size_t n;
  unsigned seed;
  std::size_t leaf_size;
  bool with_extent;
};

// Names the ctest case (e.g. n17_seed11_leaf4_extent) instead of dumping the
// struct's bytes, padding included.
void PrintTo(const TreeCase& c, std::ostream* os) {
  *os << "n" << c.n << "_seed" << c.seed << "_leaf" << c.leaf_size
      << (c.with_extent ? "_extent" : "");
}

class OctreeProperty : public ::testing::TestWithParam<TreeCase> {};

TEST_P(OctreeProperty, Invariants) {
  const TreeCase tc = GetParam();
  const std::vector<Vec3> pts = random_cloud(tc.n, tc.seed, 4.0);
  std::vector<double> extent;
  if (tc.with_extent) {
    std::mt19937 rng(tc.seed + 1);
    std::uniform_real_distribution<double> ue(0.0, 0.5);
    extent.resize(tc.n);
    for (double& e : extent) e = ue(rng);
  }
  OctreeOptions opt;
  opt.leaf_size = tc.leaf_size;
  const Octree tree(pts, extent, opt);
  const std::vector<Cell>& cells = tree.cells();
  ASSERT_FALSE(cells.empty());
  ASSERT_EQ(tree.n_bodies(), tc.n);

  // body_order is a permutation of [0, n).
  std::vector<std::size_t> ord = tree.body_order();
  ASSERT_EQ(ord.size(), tc.n);
  std::sort(ord.begin(), ord.end());
  for (std::size_t i = 0; i < tc.n; ++i) EXPECT_EQ(ord[i], i);

  // Morton keys ascend in tree order, and every body sits inside the root
  // cube the keys were quantized against.
  ASSERT_EQ(tree.keys().size(), tc.n);
  EXPECT_TRUE(std::is_sorted(tree.keys().begin(), tree.keys().end()));
  for (const Vec3& p : pts) {
    EXPECT_LE(std::abs(p.x - tree.box_center().x), tree.box_half() + 1e-9);
    EXPECT_LE(std::abs(p.y - tree.box_center().y), tree.box_half() + 1e-9);
    EXPECT_LE(std::abs(p.z - tree.box_center().z), tree.box_half() + 1e-9);
  }

  // Root covers the full body range.
  EXPECT_EQ(cells[tree.root()].first_body, 0u);
  EXPECT_EQ(cells[tree.root()].n_bodies, tc.n);
  EXPECT_EQ(cells[tree.root()].level, 0);

  std::size_t n_leaves = 0;
  std::vector<int> leaf_hits(tc.n, 0);  // per tree-order slot
  int max_level = 0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Cell& cell = cells[ci];
    max_level = std::max(max_level, cell.level);
    if (ci != tree.root()) {
      // Parent-before-children layout, level increments by one, child cube
      // geometrically nested in the parent cube.
      ASSERT_LT(cell.parent, ci);
      const Cell& par = cells[cell.parent];
      EXPECT_EQ(cell.level, par.level + 1);
      EXPECT_NEAR(cell.half, 0.5 * par.half, 1e-12 * par.half);
      EXPECT_LE(std::abs(cell.center.x - par.center.x) + cell.half,
                par.half * (1.0 + 1e-12));
      EXPECT_LE(std::abs(cell.center.y - par.center.y) + cell.half,
                par.half * (1.0 + 1e-12));
      EXPECT_LE(std::abs(cell.center.z - par.center.z) + cell.half,
                par.half * (1.0 + 1e-12));
      // Child body range nested in the parent range.
      EXPECT_GE(cell.first_body, par.first_body);
      EXPECT_LE(cell.first_body + cell.n_bodies,
                par.first_body + par.n_bodies);
    }
    // Geometric radius covers every member body; the reach additionally
    // covers each body's extent (and collapses to the radius without one).
    EXPECT_GE(cell.reach, cell.radius);
    for (std::size_t b = cell.first_body; b < cell.first_body + cell.n_bodies;
         ++b) {
      const std::size_t orig = tree.body_order()[b];
      const double d = (pts[orig] - cell.center).norm();
      EXPECT_LE(d, cell.radius * (1.0 + 1e-12) + 1e-300);
      const double need = d + (extent.empty() ? 0.0 : extent[orig]);
      EXPECT_LE(need, cell.reach * (1.0 + 1e-12) + 1e-300);
    }
    if (extent.empty()) {
      EXPECT_DOUBLE_EQ(cell.reach, cell.radius);
    }
    if (cell.is_leaf()) {
      ++n_leaves;
      EXPECT_EQ(cell.first_child, kNoCell);
      for (std::size_t b = cell.first_body;
           b < cell.first_body + cell.n_bodies; ++b) {
        leaf_hits[b] += 1;
      }
    } else {
      // Children are contiguous and tile the parent's body range exactly.
      ASSERT_GE(cell.n_children, 1);
      ASSERT_LE(cell.n_children, 8);
      std::size_t covered = 0;
      std::size_t expect_first = cell.first_body;
      for (int k = 0; k < cell.n_children; ++k) {
        const Cell& ch = cells[cell.first_child + static_cast<std::size_t>(k)];
        EXPECT_EQ(ch.parent, ci);
        EXPECT_EQ(ch.first_body, expect_first);
        expect_first += ch.n_bodies;
        covered += ch.n_bodies;
      }
      EXPECT_EQ(covered, cell.n_bodies);
    }
  }
  EXPECT_EQ(n_leaves, tree.n_leaves());
  EXPECT_EQ(max_level, tree.depth());
  EXPECT_LE(tree.depth(), opt.max_depth);
  // Every body lands in exactly one leaf.
  for (std::size_t b = 0; b < tc.n; ++b) EXPECT_EQ(leaf_hits[b], 1);
}

INSTANTIATE_TEST_SUITE_P(
    Clouds, OctreeProperty,
    ::testing::Values(TreeCase{1, 3, 8, false}, TreeCase{17, 11, 4, true},
                      TreeCase{256, 5, 16, true}, TreeCase{1000, 42, 8, false},
                      TreeCase{333, 9, 1, true}, TreeCase{64, 77, 64, false}));

TEST(Octree, CoincidentBodiesTerminateAtTheDepthCap) {
  // All bodies share one Morton key, so no level can separate them; the
  // build must bottom out at max_depth with every body still in a leaf.
  const std::vector<Vec3> pts(50, Vec3{1.0, -2.0, 0.5});
  OctreeOptions opt;
  opt.leaf_size = 2;
  const Octree tree(pts, {}, opt);
  EXPECT_LE(tree.depth(), opt.max_depth);
  std::size_t in_leaves = 0;
  for (const Cell& c : tree.cells()) {
    if (c.is_leaf()) in_leaves += c.n_bodies;
  }
  EXPECT_EQ(in_leaves, pts.size());
}

TEST(Octree, LeafSizeIsRespectedForSeparablePoints) {
  // Distinct lattice positions can always be separated, so no leaf may
  // exceed the configured occupancy.
  std::vector<Vec3> pts;
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j)
      for (int k = 0; k < 6; ++k)
        pts.push_back({1.7 * i, 1.7 * j, 1.7 * k});
  OctreeOptions opt;
  opt.leaf_size = 8;
  const Octree tree(pts, {}, opt);
  for (const Cell& c : tree.cells()) {
    if (c.is_leaf()) {
      EXPECT_LE(c.n_bodies, opt.leaf_size);
    }
  }
}

}  // namespace
}  // namespace swraman::fmm
