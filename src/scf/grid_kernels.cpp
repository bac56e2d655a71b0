#include "scf/grid_kernels.hpp"

#include <algorithm>

namespace swraman::scf {

namespace {

// Two packed doubles: one SSE2 register. The tile's columns are carried
// as kTileCols / 2 of them so the compiler keeps every accumulator in a
// register (it spills wider generic vectors on the baseline ISA).
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));
static_assert(kTileCols % 2 == 0, "tile columns come in register pairs");
static_assert(kStripWidth % kTileCols == 0,
              "strips start on a column-tile boundary");

// The micro-kernel: c[r][l] += sum_{k < nk} a(r, k) * b(k)[l] for every r <
// R, l < W, with k ascending for each element. The accumulators stay in
// registers across the k loop; they are loaded from and stored back to the
// tile c. Each product is rounded before it is added (lane-wise mulpd then
// addpd; the build enables no FMA contraction), so every element
// reproduces a scalar dot loop exactly. a(r, k) returns one scalar; b(k)
// points at W contiguous doubles.
template <std::size_t R, std::size_t W, class AOperand, class BRow>
inline void tile_kernel(double (&c)[R][W], std::size_t nk, const AOperand& a,
                        const BRow& b) {
  constexpr std::size_t kPairs = W / 2;
  Pair acc[R][kPairs] = {};
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t l = 0; l < kPairs; ++l)
      acc[r][l] = Pair{c[r][2 * l], c[r][2 * l + 1]};
  for (std::size_t k = 0; k < nk; ++k) {
    const double* bk = b(k);
    Pair bp[kPairs] = {};
    for (std::size_t l = 0; l < kPairs; ++l)
      bp[l] = Pair{bk[2 * l], bk[2 * l + 1]};
    for (std::size_t r = 0; r < R; ++r) {
      const double ark = a(r, k);
      for (std::size_t l = 0; l < kPairs; ++l) acc[r][l] += ark * bp[l];
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t l = 0; l < kPairs; ++l) {
      c[r][2 * l] = acc[r][l][0];
      c[r][2 * l + 1] = acc[r][l][1];
    }
}

}  // namespace

void set_batch_values(BatchData& data, const linalg::Matrix& values,
                      const linalg::Matrix& laplacians) {
  const std::size_t nloc = data.fn_ids.size();
  const std::size_t npts = data.pt_ids.size();
  data.values.assign(nloc, tile_padded(npts));
  for (std::size_t a = 0; a < nloc; ++a) {
    std::copy(values.row(a), values.row(a) + npts, data.values.row(a));
  }
  data.strips.clear();
  data.active.clear();
  std::vector<std::uint32_t> block;
  for (std::size_t k0 = 0; k0 < npts; k0 += kStripWidth) {
    const std::size_t k1 = std::min(npts, k0 + kStripWidth);
    block.clear();
    for (std::size_t a = 0; a < nloc; ++a) {
      const double* v = values.row(a);
      const double* lap = laplacians.row(a);
      for (std::size_t k = k0; k < k1; ++k) {
        if (v[k] != 0.0 || lap[k] != 0.0) {
          block.push_back(static_cast<std::uint32_t>(a));
          break;
        }
      }
    }
    // The last strip's list ends the active array.
    if (!data.strips.empty() &&
        std::equal(block.begin(), block.end(),
                   data.active.begin() +
                       static_cast<std::ptrdiff_t>(
                           data.strips.back().first_active),
                   data.active.end())) {
      data.strips.back().end_point = k1;
      continue;
    }
    data.strips.push_back(
        {k0, k1, data.active.size(), data.active.size() + block.size()});
    data.active.insert(data.active.end(), block.begin(), block.end());
  }
}

void batch_density(const BatchData& data, const linalg::Matrix& p,
                   std::vector<double>& n) {
  for (const Strip& strip : data.strips) {
    const std::uint32_t* act = data.active.data() + strip.first_active;
    const std::size_t nact = strip.end_active - strip.first_active;
    // Strips start on a block boundary, so these column tiles never
    // straddle two strips; the last one may run into the zero padding.
    for (std::size_t k0 = strip.first_point; k0 < strip.end_point;
         k0 += kTileCols) {
      // n_p = sum_a chi_a(p) tmp(a, p) with tmp = P_loc chi, fused: each
      // tile of tmp rows is reduced into the densities as soon as it is
      // complete, rows ascending.
      double dens[kTileCols] = {};
      for (std::size_t r0 = 0; r0 < nact; r0 += kTileRows) {
        const std::size_t rows = std::min(kTileRows, nact - r0);
        // Rows past the end repeat the last one; their results are dropped.
        const double* prow[kTileRows] = {};
        for (std::size_t r = 0; r < kTileRows; ++r) {
          prow[r] = p.row(data.fn_ids[act[r0 + std::min(r, rows - 1)]]);
        }
        double tmp[kTileRows][kTileCols] = {};
        tile_kernel(
            tmp, nact,
            [&](std::size_t r, std::size_t k) {
              return prow[r][data.fn_ids[act[k]]];
            },
            [&](std::size_t k) { return data.values.row(act[k]) + k0; });
        for (std::size_t r = 0; r < rows; ++r) {
          const double* chi = data.values.row(act[r0 + r]) + k0;
          for (std::size_t l = 0; l < kTileCols; ++l) {
            dens[l] += chi[l] * tmp[r][l];
          }
        }
      }
      const std::size_t width = std::min(kTileCols, strip.end_point - k0);
      for (std::size_t l = 0; l < width; ++l) n[data.pt_ids[k0 + l]] = dens[l];
    }
  }
}

void batch_pair_sums(const BatchData& data, const linalg::Matrix& rows,
                     const std::vector<double>& scale, linalg::Matrix& q,
                     std::vector<double>& packed) {
  for (const Strip& strip : data.strips) {
    const std::uint32_t* act = data.active.data() + strip.first_active;
    const std::size_t nact = strip.end_active - strip.first_active;
    if (nact == 0) continue;
    const std::size_t k0 = strip.first_point;
    const std::size_t width = strip.end_point - k0;
    // Point-major operand packed[k][j] = chi_j(k) * scale[k], columns
    // zero-padded to a whole number of tiles.
    const std::size_t ld = tile_padded(nact);
    packed.resize(width * ld);
    for (std::size_t k = 0; k < width; ++k) {
      for (std::size_t j = nact; j < ld; ++j) packed[k * ld + j] = 0.0;
    }
    for (std::size_t j = 0; j < nact; ++j) {
      const double* chi = data.values.row(act[j]) + k0;
      for (std::size_t k = 0; k < width; ++k) {
        packed[k * ld + j] = chi[k] * scale[k0 + k];
      }
    }
    for (std::size_t i0 = 0; i0 < nact; i0 += kTileRows) {
      const std::size_t nr = std::min(kTileRows, nact - i0);
      // Rows past the end repeat the last one and are never stored.
      const double* arow[kTileRows] = {};
      double* qrow[kTileRows] = {};
      for (std::size_t r = 0; r < kTileRows; ++r) {
        const std::size_t i = act[i0 + std::min(r, nr - 1)];
        arow[r] = rows.row(i) + k0;
        qrow[r] = q.row(i);
      }
      for (std::size_t j0 = 0; j0 < nact; j0 += kTileCols) {
        const std::size_t nc = std::min(kTileCols, nact - j0);
        std::size_t col[kTileCols] = {};
        for (std::size_t l = 0; l < kTileCols; ++l) {
          col[l] = act[j0 + std::min(l, nc - 1)];
        }
        double tile[kTileRows][kTileCols] = {};
        for (std::size_t r = 0; r < kTileRows; ++r)
          for (std::size_t l = 0; l < kTileCols; ++l)
            tile[r][l] = qrow[r][col[l]];
        tile_kernel(
            tile, width,
            [&](std::size_t r, std::size_t k) { return arow[r][k]; },
            [&](std::size_t k) { return packed.data() + k * ld + j0; });
        for (std::size_t r = 0; r < nr; ++r)
          for (std::size_t l = 0; l < nc; ++l) qrow[r][col[l]] = tile[r][l];
      }
    }
  }
}

}  // namespace swraman::scf
