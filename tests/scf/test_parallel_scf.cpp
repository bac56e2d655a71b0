#include <cmath>

#include <gtest/gtest.h>

#include "core/molecules.hpp"
#include "dfpt/dfpt_engine.hpp"
#include "parallel/comm.hpp"
#include "scf/scf_engine.hpp"

// Level-2 parallelization (paper Fig. 4): the SCF and DFPT engines
// distributed over thread ranks with Algorithm-1 batch ownership must
// reproduce the serial results to summation-order rounding.

namespace swraman::scf {
namespace {

GridPartition partition_for(parallel::Communicator& comm) {
  GridPartition p;
  p.rank = comm.rank();
  p.n_ranks = comm.size();
  p.allreduce = [&comm](double* data, std::size_t n) {
    std::vector<double> buf(data, data + n);
    comm.allreduce(buf, parallel::AllreduceAlgorithm::ReduceScatterAllgather);
    std::copy(buf.begin(), buf.end(), data);
  };
  return p;
}

// Full overlap wiring: blocking reductions go hierarchical, and the
// engine's *_async paths start genuine non-blocking collectives.
GridPartition overlapped_partition_for(parallel::Communicator& comm) {
  GridPartition p;
  p.rank = comm.rank();
  p.n_ranks = comm.size();
  p.allreduce = [&comm](double* data, std::size_t n) {
    std::vector<double> buf(data, data + n);
    comm.allreduce(buf, parallel::AllreduceAlgorithm::Hierarchical);
    std::copy(buf.begin(), buf.end(), data);
  };
  p.iallreduce = [&comm](double* data, std::size_t n) {
    std::vector<double> buf(data, data + n);
    auto req = std::make_shared<parallel::AllreduceRequest>(
        comm.iallreduce(std::move(buf), parallel::AllreduceAlgorithm::Auto));
    return [req, data]() {
      const std::vector<double> out = req->wait();
      std::copy(out.begin(), out.end(), data);
    };
  };
  return p;
}

class ParallelScfRanks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelScfRanks, MatchesSerialGroundState) {
  const std::size_t n_ranks = GetParam();
  const auto mol = molecules::water();

  ScfEngine serial(mol, {});
  const GroundState ref = serial.solve();

  std::vector<double> energies(n_ranks, 0.0);
  std::vector<double> dipoles(n_ranks, 0.0);
  parallel::run_spmd(n_ranks, [&](parallel::Communicator& comm) {
    ScfEngine engine(mol, {}, partition_for(comm));
    const GroundState gs = engine.solve();
    EXPECT_TRUE(gs.converged);
    energies[comm.rank()] = gs.total_energy;
    dipoles[comm.rank()] = gs.dipole.z;
  });
  for (std::size_t r = 0; r < n_ranks; ++r) {
    EXPECT_NEAR(energies[r], ref.total_energy, 1e-8) << "rank " << r;
    EXPECT_NEAR(dipoles[r], ref.dipole.z, 1e-8) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelScfRanks,
                         ::testing::Values(2, 3, 4));

TEST(ParallelScf, MatricesMatchSerial) {
  const auto mol = molecules::h2();
  ScfEngine serial(mol, {});
  parallel::run_spmd(2, [&](parallel::Communicator& comm) {
    ScfEngine engine(mol, {}, partition_for(comm));
    EXPECT_NEAR((engine.overlap() - serial.overlap()).max_abs(), 0.0, 1e-12);
    EXPECT_NEAR((engine.kinetic() - serial.kinetic()).max_abs(), 0.0, 1e-12);
    // Grid kernels agree too.
    const linalg::Matrix d_par = engine.dipole_matrix(2);
    const linalg::Matrix d_ser = serial.dipole_matrix(2);
    EXPECT_NEAR((d_par - d_ser).max_abs(), 0.0, 1e-12);
  });
}

TEST(ParallelScf, DfptPolarizabilityMatchesSerial) {
  // The DFPT engine inherits the distribution through density_on_grid /
  // integrate_matrix — the paper's three kernels run distributed.
  const auto mol = molecules::h2();
  ScfEngine serial(mol, {});
  const GroundState ref_gs = serial.solve();
  dfpt::DfptEngine ref_dfpt(serial, ref_gs);
  const double ref_zz = ref_dfpt.polarizability()(2, 2);

  parallel::run_spmd(3, [&](parallel::Communicator& comm) {
    ScfEngine engine(mol, {}, partition_for(comm));
    const GroundState gs = engine.solve();
    dfpt::DfptEngine dfpt(engine, gs);
    EXPECT_NEAR(dfpt.polarizability()(2, 2), ref_zz, 5e-6);  // DIIS path noise
  });
}

TEST(ParallelScf, GeometryLevelSubGroups) {
  // Level 1 + level 2 together: four ranks split into two geometry
  // sub-communicators, each solving a different geometry with distributed
  // batches (the paper's sub-group scheme).
  std::vector<double> results(2, 0.0);
  parallel::run_spmd(4, [&](parallel::Communicator& comm) {
    const int geometry = static_cast<int>(comm.rank() / 2);
    parallel::Communicator group = comm.split(geometry);
    const auto mol = molecules::h2(geometry == 0 ? 1.40 : 1.50);
    GridPartition part;
    part.rank = group.rank();
    part.n_ranks = group.size();
    part.allreduce = [&group](double* data, std::size_t n) {
      std::vector<double> buf(data, data + n);
      group.allreduce(buf, parallel::AllreduceAlgorithm::CpePipelined);
      std::copy(buf.begin(), buf.end(), data);
    };
    ScfEngine engine(mol, {}, part);
    const GroundState gs = engine.solve();
    if (group.rank() == 0) results[geometry] = gs.total_energy;
  });
  // Both geometries solved; 1.50 Bohr is closer to this basis's minimum.
  EXPECT_LT(results[0], -1.0);
  EXPECT_LT(results[1], results[0]);
}

TEST(ParallelScf, OverlappedHierarchicalReductionsMatchSerial) {
  // The overlapped loop (iallreduce under the SCF bookkeeping, hierarchical
  // blocking reductions elsewhere) must reproduce the serial ground state
  // and response — overlap changes scheduling, never numerics.
  const auto mol = molecules::h2();
  ScfEngine serial(mol, {});
  const GroundState ref = serial.solve();
  dfpt::DfptEngine ref_dfpt(serial, ref);
  const double ref_zz = ref_dfpt.polarizability()(2, 2);

  parallel::CommConfig cfg;
  cfg.node_size = 2;  // 3 ranks -> groups {0,1} and {2}
  parallel::run_spmd(
      3,
      [&](parallel::Communicator& comm) {
        ScfEngine engine(mol, {}, overlapped_partition_for(comm));
        const GroundState gs = engine.solve();
        EXPECT_TRUE(gs.converged);
        // Hierarchical reductions re-associate the grid sums (RMA mesh fold
        // + Rabenseifner), so the SCF fixed point shifts within the
        // convergence threshold rather than to rounding.
        EXPECT_NEAR(gs.total_energy, ref.total_energy, 5e-7);
        dfpt::DfptEngine dfpt(engine, gs);
        EXPECT_NEAR(dfpt.polarizability()(2, 2), ref_zz, 5e-6);
      },
      cfg);
}

TEST(ParallelScf, RejectsBadPartition) {
  GridPartition bad;
  bad.rank = 5;
  bad.n_ranks = 2;  // rank out of range, and no allreduce
  EXPECT_THROW(ScfEngine(molecules::h2(), {}, bad), Error);
}

}  // namespace
}  // namespace swraman::scf
