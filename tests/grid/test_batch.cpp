#include "grid/batch.hpp"

#include <cmath>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "grid/atom_grid.hpp"
#include "grid/loadbalance.hpp"

namespace swraman::grid {
namespace {

MolecularGrid water_grid() {
  const std::vector<AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                       {1, {0.0, 1.43, 1.1}},
                                       {1, {0.0, -1.43, 1.1}}};
  return build_molecular_grid(atoms, {});
}

TEST(Batching, EveryPointInExactlyOneBatch) {
  const MolecularGrid grid = water_grid();
  const std::vector<Batch> batches = make_batches(grid, {});
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const Batch& b : batches) {
    for (std::size_t id : b.point_ids) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate point " << id;
      EXPECT_LT(id, grid.size());
    }
    total += b.size();
  }
  EXPECT_EQ(total, grid.size());
}

class BatchTargetSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchTargetSize, BatchSizesNearTarget) {
  const std::size_t target = GetParam();
  const MolecularGrid grid = water_grid();
  BatchingOptions opt;
  opt.target_batch_size = target;
  const std::vector<Batch> batches = make_batches(grid, opt);
  const std::size_t limit =
      static_cast<std::size_t>(std::ceil(opt.slack * target));
  for (const Batch& b : batches) {
    EXPECT_LE(b.size(), limit);
    EXPECT_GE(b.size(), 1u);
  }
  // Median bisection keeps halves within one point, so no tiny fragments:
  // every batch holds at least ~limit/2 points.
  for (const Batch& b : batches) {
    EXPECT_GE(2 * b.size() + 1, limit / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperRange, BatchTargetSize,
                         ::testing::Values(100, 200, 300));

TEST(Batching, BatchesAreSpatiallyCompact) {
  const MolecularGrid grid = water_grid();
  BatchingOptions opt;
  opt.target_batch_size = 150;
  const std::vector<Batch> batches = make_batches(grid, opt);
  // Mean intra-batch spread must be far below the overall grid spread.
  Vec3 gcom;
  for (const Vec3& p : grid.points) gcom += p;
  gcom *= 1.0 / static_cast<double>(grid.size());
  double global_spread = 0.0;
  for (const Vec3& p : grid.points) global_spread += (p - gcom).norm2();
  global_spread /= static_cast<double>(grid.size());

  double mean_batch_spread = 0.0;
  for (const Batch& b : batches) {
    double s = 0.0;
    for (std::size_t id : b.point_ids) {
      s += (grid.points[id] - b.center).norm2();
    }
    mean_batch_spread += s / static_cast<double>(b.size());
  }
  mean_batch_spread /= static_cast<double>(batches.size());
  EXPECT_LT(mean_batch_spread, 0.5 * global_spread);
}

TEST(PrincipalAxis, RecoversDominantDirection) {
  std::mt19937 rng(2);
  std::normal_distribution<double> wide(0.0, 5.0);
  std::normal_distribution<double> narrow(0.0, 0.1);
  std::vector<Vec3> pts;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 500; ++i) {
    pts.push_back({narrow(rng), wide(rng), narrow(rng)});
    ids.push_back(i);
  }
  const Vec3 axis = principal_axis(pts, ids);
  EXPECT_GT(std::abs(axis.y), 0.99);
}

TEST(Batching, EmptyGridYieldsNoBatches) {
  MolecularGrid grid;
  EXPECT_TRUE(make_batches(grid, {}).empty());
}

}  // namespace
}  // namespace swraman::grid
