#pragma once

#include <cstddef>
#include <vector>

#include "common/vec3.hpp"
#include "grid/atom_grid.hpp"

// Grid-adapted cut-plane batching (paper Sec. 3.1, Fig. 3; Havu et al.,
// J. Comput. Phys. 228, 8367): the molecular grid is recursively bisected by
// planes through the batch's center of mass, oriented along the principal
// axis of the point distribution, until every batch holds roughly the target
// number of points (the paper uses 100-300).

namespace swraman::grid {

struct Batch {
  std::vector<std::size_t> point_ids;  // indices into MolecularGrid arrays
  Vec3 center;                         // center of mass of the batch points

  [[nodiscard]] std::size_t size() const { return point_ids.size(); }
};

struct BatchingOptions {
  std::size_t target_batch_size = 200;
  // Bisection stops when a set has at most ceil(1.5 * target) points.
  double slack = 1.5;
};

// Splits the grid points into spatially compact batches. Every point appears
// in exactly one batch.
std::vector<Batch> make_batches(const MolecularGrid& grid,
                                const BatchingOptions& options);

// Principal axis (largest-variance direction) of a point set; used as the
// cut-plane normal. Exposed for testing.
Vec3 principal_axis(const std::vector<Vec3>& points,
                    const std::vector<std::size_t>& ids);

}  // namespace swraman::grid
