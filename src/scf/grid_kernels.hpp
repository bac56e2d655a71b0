#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

// Host grid kernels (DESIGN.md §17). Every grid-reduced quantity goes
// through one of three passes over the integration batches: the density
// on the grid (SCF density, DFPT n1, the force Lagrangian), the matrix
// elements of a multiplicative potential (H, DFPT h1, dipoles) and the
// overlap/kinetic set-up. All three run on one register-tiled micro-kernel
// over geometry-static strips: runs of consecutive batch points, each
// carrying the ascending list of local functions nonzero somewhere in it.
// Products with an exact-zero basis factor are the only ones skipped, and
// every output element adds its remaining products in the order of the
// plain dense loops, so the results are bitwise those of the dense loops.

namespace swraman::scf {

// Points per activity block: a batch's points are scanned in blocks of
// this many consecutive points (the last block may be shorter).
inline constexpr std::size_t kStripWidth = 8;
// Accumulator tile of the micro-kernel: kTileRows x kTileCols doubles,
// sized to stay in the 16 SSE2 registers with room for the operands.
inline constexpr std::size_t kTileRows = 4;
inline constexpr std::size_t kTileCols = 4;

// A run of consecutive batch points sharing one list of active functions:
// local rows whose value or Laplacian is nonzero at one of its points.
// Consecutive blocks with the same list form one strip, so a strip spans
// a whole number of blocks (the batch's last block may be short).
struct Strip {
  std::size_t first_point = 0;  // [first_point, end_point) of the batch
  std::size_t end_point = 0;
  std::size_t first_active = 0;  // [first_active, end_active) of active
  std::size_t end_active = 0;
};

// One integration batch's resident basis data.
struct BatchData {
  std::vector<std::size_t> fn_ids;  // global basis functions touching it
  std::vector<std::size_t> pt_ids;  // global point ids
  // values(a, k) = chi_{fn_ids[a]}(point k), columns zero-padded to a whole
  // number of tile columns.
  linalg::Matrix values;
  std::vector<Strip> strips;
  std::vector<std::uint32_t> active;  // each strip's list, ascending
};

// Stores the batch's basis values and builds its strip activity lists from
// the values and Laplacians (both n_fns x n_pts, as BasisSet::evaluate
// returns them). fn_ids and pt_ids must already be set.
void set_batch_values(BatchData& data, const linalg::Matrix& values,
                      const linalg::Matrix& laplacians);

// n[pt_ids[k]] = sum_a chi_a(k) (sum_b P(fn_a, fn_b) chi_b(k)) for every
// point k of the batch, sums over a and b ascending.
void batch_density(const BatchData& data, const linalg::Matrix& p,
                   std::vector<double>& n);

// q(i, j) += sum_k rows(i, k) * (chi_j(k) * scale[k]) over the batch's
// points k ascending, for local functions i, j. rows has one row per local
// function (the basis values or Laplacians); scale holds one factor per
// batch point; q is n_fns x n_fns. `packed` is caller-owned scratch.
void batch_pair_sums(const BatchData& data, const linalg::Matrix& rows,
                     const std::vector<double>& scale, linalg::Matrix& q,
                     std::vector<double>& packed);

}  // namespace swraman::scf
