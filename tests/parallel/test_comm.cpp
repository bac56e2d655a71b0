#include "parallel/comm.hpp"

#include <atomic>
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace swraman::parallel {
namespace {

TEST(Spmd, RunsAllRanks) {
  std::atomic<int> count{0};
  run_spmd(7, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 7u);
    EXPECT_LT(comm.rank(), 7u);
    ++count;
  });
  EXPECT_EQ(count.load(), 7);
}

TEST(Spmd, PropagatesExceptions) {
  EXPECT_THROW(run_spmd(3,
                        [](Communicator& comm) {
                          if (comm.rank() == 1) {
                            throw Error("rank 1 failed");
                          }
                        }),
               Error);
}

TEST(Comm, PointToPoint) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, {1.0, 2.0, 3.0}, 5);
      const std::vector<double> back = comm.recv(1, 6);
      EXPECT_EQ(back.size(), 1u);
      EXPECT_DOUBLE_EQ(back[0], 42.0);
    } else {
      const std::vector<double> msg = comm.recv(0, 5);
      EXPECT_EQ(msg.size(), 3u);
      EXPECT_DOUBLE_EQ(msg[2], 3.0);
      comm.send(0, {42.0}, 6);
    }
  });
}

TEST(Comm, Broadcast) {
  run_spmd(5, [](Communicator& comm) {
    std::vector<double> data;
    if (comm.rank() == 2) data = {3.5, -1.0};
    comm.broadcast(data, 2);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_DOUBLE_EQ(data[0], 3.5);
  });
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  run_spmd(6, [&](Communicator& comm) {
    ++before;
    comm.barrier();
    if (before.load() != 6) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

struct AllreduceCase {
  AllreduceAlgorithm algo;
  std::size_t ranks;
  std::size_t n;
  std::size_t node_size = 4;  // CommConfig::node_size, read by Hierarchical
};

// Names the ctest case (e.g. rsag_P3_n17, hierarchical_node2_P5_n17)
// instead of dumping the struct's bytes, padding included.
void PrintTo(const AllreduceCase& c, std::ostream* os) {
  *os << allreduce_algorithm_name(c.algo);
  if (c.algo == AllreduceAlgorithm::Hierarchical) {
    *os << "_node" << c.node_size;
  }
  *os << "_P" << c.ranks << "_n" << c.n;
}

class AllreduceSweep : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceSweep, MatchesSerialSum) {
  const AllreduceCase c = GetParam();
  // Reference: sum over ranks of deterministic pseudo-random data.
  std::vector<std::vector<double>> inputs(c.ranks);
  std::vector<double> expected(c.n, 0.0);
  for (std::size_t r = 0; r < c.ranks; ++r) {
    std::mt19937 rng(static_cast<unsigned>(97 * r + c.n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    inputs[r].resize(c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      inputs[r][i] = dist(rng);
      expected[i] += inputs[r][i];
    }
  }
  CommConfig config;
  config.node_size = c.node_size;
  run_spmd(
      c.ranks,
      [&](Communicator& comm) {
        std::vector<double> data = inputs[comm.rank()];
        comm.allreduce(data, c.algo);
        ASSERT_EQ(data.size(), c.n);
        for (std::size_t i = 0; i < c.n; ++i) {
          EXPECT_NEAR(data[i], expected[i], 1e-11)
              << "rank " << comm.rank() << " index " << i;
        }
      },
      config);
}

// Every AllreduceAlgorithm value over the same P x n grid. Hierarchical
// runs at three node sizes so the grid covers full and ragged last node
// groups and a non-power-of-two leader count (P = 5 at node size 2, P = 8
// at node size 3), which sends the leaders' stage down RSAG's
// gather-to-root fallback. Auto runs whatever the selector resolves.
std::vector<AllreduceCase> allreduce_cases() {
  const std::size_t rank_counts[] = {1, 2, 3, 4, 5, 8};
  const std::size_t lengths[] = {1, 17, 256, 1000};
  std::vector<AllreduceCase> cases;
  for (AllreduceAlgorithm algo :
       {AllreduceAlgorithm::ReduceScatterAllgather,
        AllreduceAlgorithm::CpePipelined, AllreduceAlgorithm::Auto}) {
    for (std::size_t ranks : rank_counts) {
      for (std::size_t n : lengths) {
        cases.push_back({algo, ranks, n});
      }
    }
  }
  for (std::size_t node_size : {2, 3, 4}) {
    for (std::size_t ranks : rank_counts) {
      for (std::size_t n : lengths) {
        cases.push_back({AllreduceAlgorithm::Hierarchical, ranks, n, node_size});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AllreduceSweep,
                         ::testing::ValuesIn(allreduce_cases()));

// comm.allreduce.inter.bytes of one Hierarchical allreduce of 1000
// doubles (8000 bytes) over `ranks` ranks in nodes of 4.
double inter_bytes(std::size_t ranks) {
  obs::Registry::instance().reset_for_testing();
  obs::set_enabled(true);
  CommConfig config;
  config.node_size = 4;
  run_spmd(
      ranks,
      [](Communicator& comm) {
        std::vector<double> data(1000, static_cast<double>(comm.rank()));
        comm.allreduce(data, AllreduceAlgorithm::Hierarchical);
      },
      config);
  obs::set_enabled(false);
  const auto counters = obs::Registry::instance().counter_values();
  obs::Registry::instance().reset_for_testing();
  return counters.at("comm.allreduce.inter.bytes");
}

TEST(Comm, HierarchicalLeadersChargeTheBytesTheyMove) {
  // 3 leaders gather through leader 0: it moves 2 * 2 payloads, the other
  // two 2 each.
  EXPECT_EQ(inter_bytes(12), 64000.0);
  // 4 leaders run Rabenseifner: 2 * 3/4 of a payload each.
  EXPECT_EQ(inter_bytes(16), 48000.0);
}

TEST(Comm, SplitFormsSubCommunicators) {
  run_spmd(6, [](Communicator& comm) {
    // Two geometry groups of 3 ranks each (paper Fig. 4 level 1).
    const int color = static_cast<int>(comm.rank() / 3);
    Communicator sub = comm.split(color);
    EXPECT_EQ(sub.size(), 3u);
    EXPECT_EQ(sub.rank(), comm.rank() % 3);
    // Group-local allreduce: sums stay within the group.
    std::vector<double> data{static_cast<double>(comm.rank())};
    sub.allreduce(data, AllreduceAlgorithm::ReduceScatterAllgather);
    const double expected = (color == 0) ? 0.0 + 1.0 + 2.0 : 3.0 + 4.0 + 5.0;
    EXPECT_DOUBLE_EQ(data[0], expected);
  });
}

TEST(Comm, SplitSingletonColors) {
  run_spmd(4, [](Communicator& comm) {
    Communicator sub = comm.split(static_cast<int>(comm.rank()));
    EXPECT_EQ(sub.size(), 1u);
    std::vector<double> v{1.0};
    sub.allreduce(v, AllreduceAlgorithm::CpePipelined);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
  });
}

}  // namespace
}  // namespace swraman::parallel
// -- appended coverage: message ordering and repeated collectives.

namespace swraman::parallel {
namespace {

TEST(Comm, SameTagMessagesAreFifo) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, {1.0}, 9);
      comm.send(1, {2.0}, 9);
      comm.send(1, {3.0}, 9);
    } else {
      EXPECT_DOUBLE_EQ(comm.recv(0, 9)[0], 1.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 9)[0], 2.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 9)[0], 3.0);
    }
  });
}

TEST(Comm, RepeatedAllreducesStayConsistent) {
  run_spmd(4, [](Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<double> data(64, static_cast<double>(comm.rank() + round));
      comm.allreduce(data);  // Auto
      const double expected = 4.0 * round + 6.0;  // sum over ranks 0..3
      EXPECT_DOUBLE_EQ(data[0], expected) << "round " << round;
      EXPECT_DOUBLE_EQ(data[63], expected);
    }
  });
}

TEST(Comm, NestedSplits) {
  run_spmd(8, [](Communicator& comm) {
    Communicator half = comm.split(static_cast<int>(comm.rank() / 4));
    Communicator quarter = half.split(static_cast<int>(half.rank() / 2));
    EXPECT_EQ(quarter.size(), 2u);
    std::vector<double> v{1.0};
    quarter.allreduce(v, AllreduceAlgorithm::Hierarchical);
    EXPECT_DOUBLE_EQ(v[0], 2.0);
  });
}

}  // namespace
}  // namespace swraman::parallel
