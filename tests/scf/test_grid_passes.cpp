#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "core/molecules.hpp"
#include "scf/scf_engine.hpp"

// The strip-sparse grid passes (DESIGN.md §17) against scalar references
// written as the dense loops they replaced: the density on the grid, the
// matrix elements of a potential, and the overlap/kinetic set-up must all
// match bit for bit.

namespace swraman::scf {
namespace {

// One batch as the engine sees it, evaluated the way build_matrices does.
struct RefBatch {
  std::vector<std::size_t> fn_ids;
  std::vector<std::size_t> pt_ids;
  linalg::Matrix values;  // n_fns x n_pts
  linalg::Matrix lap;
};

// The batches an engine built with `partition` integrates.
std::vector<RefBatch> reference_batches(const ScfEngine& engine,
                                        const GridPartition& partition) {
  const std::vector<grid::Batch>& batches = engine.batches();
  const std::vector<std::size_t> owner =
      grid::balance_batches(batches,
                            std::max<std::size_t>(1, partition.n_ranks))
          .owner;
  std::vector<RefBatch> out;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (partition.active() && owner[b] != partition.rank) continue;
    const grid::Batch& batch = batches[b];
    RefBatch ref;
    ref.pt_ids = batch.point_ids;
    std::vector<Vec3> pts(batch.size());
    double radius = 0.0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      pts[k] = engine.grid().points[batch.point_ids[k]];
      radius = std::max(radius, distance(pts[k], batch.center));
    }
    ref.fn_ids = engine.basis().local_functions(batch.center, radius);
    engine.basis().evaluate(ref.fn_ids, pts.data(), pts.size(), ref.values,
                            &ref.lap);
    out.push_back(std::move(ref));
  }
  return out;
}

// n_p = sum_a chi_a(p) (P_loc chi)(a, p), batch by batch.
std::vector<double> reference_density(const ScfEngine& engine,
                                      const std::vector<RefBatch>& batches,
                                      const linalg::Matrix& p) {
  std::vector<double> n(engine.grid().size(), 0.0);
  for (const RefBatch& b : batches) {
    const std::size_t nloc = b.fn_ids.size();
    if (nloc == 0) continue;
    linalg::Matrix p_loc(nloc, nloc);
    for (std::size_t a = 0; a < nloc; ++a)
      for (std::size_t c = 0; c < nloc; ++c)
        p_loc(a, c) = p(b.fn_ids[a], b.fn_ids[c]);
    const linalg::Matrix tmp = p_loc * b.values;
    for (std::size_t k = 0; k < b.pt_ids.size(); ++k) {
      double acc = 0.0;
      for (std::size_t a = 0; a < nloc; ++a) acc += b.values(a, k) * tmp(a, k);
      n[b.pt_ids[k]] = acc;
    }
  }
  return n;
}

// M = sum over batches of values (w v values)^T, symmetrized per batch.
linalg::Matrix reference_integrate(const ScfEngine& engine,
                                   const std::vector<RefBatch>& batches,
                                   const std::vector<double>& v) {
  const std::size_t nbf = engine.basis().size();
  linalg::Matrix m(nbf, nbf);
  for (const RefBatch& b : batches) {
    const std::size_t nloc = b.fn_ids.size();
    if (nloc == 0) continue;
    linalg::Matrix scaled = b.values;
    for (std::size_t k = 0; k < b.pt_ids.size(); ++k) {
      const double wv = engine.grid().weights[b.pt_ids[k]] * v[b.pt_ids[k]];
      for (std::size_t a = 0; a < nloc; ++a) scaled(a, k) *= wv;
    }
    const linalg::Matrix m_loc = linalg::a_bt(b.values, scaled);
    for (std::size_t a = 0; a < nloc; ++a)
      for (std::size_t c = 0; c < nloc; ++c)
        m(b.fn_ids[a], b.fn_ids[c]) += 0.5 * (m_loc(a, c) + m_loc(c, a));
  }
  return m;
}

// S_uv = sum_p w chi_u chi_v, T_uv = -1/2 sum_p w chi_u lap_v.
void reference_overlap_kinetic(const ScfEngine& engine,
                               const std::vector<RefBatch>& batches,
                               linalg::Matrix& s, linalg::Matrix& t) {
  const std::size_t nbf = engine.basis().size();
  s = linalg::Matrix(nbf, nbf);
  t = linalg::Matrix(nbf, nbf);
  for (const RefBatch& b : batches) {
    const std::size_t nloc = b.fn_ids.size();
    for (std::size_t a = 0; a < nloc; ++a) {
      for (std::size_t c = 0; c < nloc; ++c) {
        double sv = 0.0;
        double tv = 0.0;
        for (std::size_t k = 0; k < b.pt_ids.size(); ++k) {
          const double w = engine.grid().weights[b.pt_ids[k]];
          sv += w * b.values(a, k) * b.values(c, k);
          tv += w * b.values(a, k) * b.lap(c, k);
        }
        s(b.fn_ids[a], b.fn_ids[c]) += sv;
        t(b.fn_ids[a], b.fn_ids[c]) += -0.5 * tv;
      }
    }
  }
  s.symmetrize();
  t.symmetrize();
}

// A dense, non-symmetric test density matrix of both signs with a sprinkle
// of exact zeros (which the reference's matmul skips).
linalg::Matrix test_density_matrix(std::size_t nbf) {
  linalg::Matrix p(nbf, nbf);
  for (std::size_t i = 0; i < nbf; ++i)
    for (std::size_t j = 0; j < nbf; ++j)
      p(i, j) = (i + 2 * j) % 7 == 3
                    ? 0.0
                    : std::sin(1.0 + 0.7 * static_cast<double>(i) +
                               0.3 * static_cast<double>(j));
  return p;
}

std::vector<double> test_potential(const ScfEngine& engine) {
  std::vector<double> v = engine.external_potential();
  for (std::size_t k = 0; k < v.size(); ++k) {
    v[k] += std::cos(0.37 * static_cast<double>(k)) - 0.2;
  }
  return v;
}

// memcmp equality, reporting the first differing element.
void expect_bitwise(const double* got, const double* want, std::size_t n,
                    const char* what) {
  if (std::memcmp(got, want, n * sizeof(double)) == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(got + i, want + i, sizeof(double)) != 0) {
      ADD_FAILURE() << what << ": element " << i << " is " << got[i]
                    << ", reference " << want[i];
      return;
    }
  }
}

// All three passes of `engine` against the references.
void expect_passes_match_reference(const ScfEngine& engine,
                                   const GridPartition& partition = {}) {
  const std::vector<RefBatch> batches = reference_batches(engine, partition);
  const std::size_t nbf = engine.basis().size();

  linalg::Matrix s;
  linalg::Matrix t;
  reference_overlap_kinetic(engine, batches, s, t);
  expect_bitwise(engine.overlap().data(), s.data(), nbf * nbf, "overlap");
  expect_bitwise(engine.kinetic().data(), t.data(), nbf * nbf, "kinetic");

  const linalg::Matrix p = test_density_matrix(nbf);
  const std::vector<double> n = engine.density_on_grid(p);
  const std::vector<double> n_ref = reference_density(engine, batches, p);
  expect_bitwise(n.data(), n_ref.data(), n.size(), "density");

  const std::vector<double> v = test_potential(engine);
  const linalg::Matrix m = engine.integrate_matrix(v);
  const linalg::Matrix m_ref = reference_integrate(engine, batches, v);
  expect_bitwise(m.data(), m_ref.data(), nbf * nbf, "integrate_matrix");
}

ScfOptions grid_options(int n_radial, int angular_order) {
  ScfOptions o;
  o.grid.n_radial = n_radial;
  o.grid.angular_order = angular_order;
  return o;
}

// The pinned water geometry of the golden spectrum tests.
std::vector<grid::AtomSite> golden_water() {
  return {{8, {0.0, 0.0, 0.3268247149}},
          {1, {1.2518316921, 0.0, 0.9437281316}},
          {1, {-1.2518316921, 0.0, 0.9437281316}}};
}

TEST(GridPassReference, GoldenWaterGrid) {
  const ScfEngine engine(golden_water(), grid_options(16, 7));
  expect_passes_match_reference(engine);
}

TEST(GridPassReference, ServeWaterGrid) {
  const ScfEngine engine(golden_water(), grid_options(12, 5));
  expect_passes_match_reference(engine);
}

TEST(GridPassReference, WaterClusterGrid) {
  ScfOptions o = grid_options(14, 7);
  o.species.tier = basis::Tier::Minimal;
  o.grid.partition = grid::PartitionScheme::Hirshfeld;
  const ScfEngine engine(molecules::water_cluster(12), o);
  expect_passes_match_reference(engine);
}

TEST(GridPassReference, SingleHydrogenAtom) {
  const ScfEngine engine({{1, {0.0, 0.0, 0.0}}}, ScfOptions{});
  expect_passes_match_reference(engine);
}

// Batches of an odd size, so neither the point count of a batch nor its
// local function count falls on a strip or tile boundary, and an outer
// radial shell past every basis cutoff (r = 11.3 bohr against 10.7) leaves
// whole strips without an active function.
TEST(GridPassReference, RaggedBatchesWithEmptyStrips) {
  ScfOptions o = grid_options(50, 9);
  o.batching.target_batch_size = 37;
  const ScfEngine engine({{8, {0.0, 0.0, 0.0}}}, o);
  const std::vector<RefBatch> batches = reference_batches(engine, {});
  bool ragged_points = false;
  bool ragged_functions = false;
  bool empty_strip = false;
  for (const RefBatch& b : batches) {
    const std::size_t npts = b.pt_ids.size();
    const std::size_t nloc = b.fn_ids.size();
    ragged_points |= npts % kTileCols != 0;
    ragged_functions |= nloc % kTileRows != 0 || nloc % kTileCols != 0;
    for (std::size_t k0 = 0; k0 < npts; k0 += kStripWidth) {
      bool active = false;
      for (std::size_t a = 0; a < nloc; ++a)
        for (std::size_t k = k0; k < std::min(npts, k0 + kStripWidth); ++k)
          active |= b.values(a, k) != 0.0 || b.lap(a, k) != 0.0;
      empty_strip |= !active;
    }
  }
  EXPECT_TRUE(ragged_points);
  EXPECT_TRUE(ragged_functions);
  EXPECT_TRUE(empty_strip);
  expect_passes_match_reference(engine);
}

// Under a partition the engine integrates only its own batches; the others
// carry no functions. The identity "allreduce" exposes the local sums.
TEST(GridPassReference, PartitionedEngineSkipsForeignBatches) {
  GridPartition partition;
  partition.rank = 1;
  partition.n_ranks = 3;
  partition.allreduce = [](double*, std::size_t) {};
  const ScfEngine engine(golden_water(), grid_options(12, 5), partition);
  expect_passes_match_reference(engine, partition);
}

TEST(ScfEngine, ConcurrentGridPassesOnSharedEngineAreBitwise) {
  const ScfEngine engine(golden_water(), grid_options(12, 5));
  const std::size_t nbf = engine.basis().size();
  const linalg::Matrix p = test_density_matrix(nbf);
  const std::vector<double> v = test_potential(engine);
  const std::vector<double> n_serial = engine.density_on_grid(p);
  const linalg::Matrix m_serial = engine.integrate_matrix(v);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<double>> n(kThreads * kRounds);
  std::vector<linalg::Matrix> m(kThreads * kRounds);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        n[t * kRounds + r] = engine.density_on_grid(p);
        m[t * kRounds + r] = engine.integrate_matrix(v);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads * kRounds; ++i) {
    expect_bitwise(n[i].data(), n_serial.data(), n_serial.size(), "density");
    expect_bitwise(m[i].data(), m_serial.data(), nbf * nbf,
                   "integrate_matrix");
  }
}

}  // namespace
}  // namespace swraman::scf
