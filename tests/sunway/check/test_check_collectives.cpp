#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "parallel/comm.hpp"
#include "parallel/commcheck.hpp"
#include "sunway/check/shadow.hpp"

// swcheck coverage for the hierarchical collectives (DESIGN.md S10): the
// intra-node RMA-mesh stage must retire every shadow tile and DMA/RMA
// transfer before the inter-node stage starts on the same data, and an
// iallreduce handle destroyed without wait() must be reported under
// commcheck::kRuleCollAbandoned (without throwing — the detection site is a
// destructor on a communication path).

namespace swraman::parallel {
namespace {

TEST(CheckCollectives, HierarchicalLeavesNoShadowStateBehind) {
  check::ScopedChecking checking;
  CommConfig cfg;
  cfg.node_size = 2;  // 4 ranks -> two node groups, leaders 0 and 2
  run_spmd(
      4,
      [](Communicator& comm) {
        std::vector<double> data(1537, static_cast<double>(comm.rank() + 1));
        comm.allreduce(data, AllreduceAlgorithm::Hierarchical);
        for (double v : data) {
          ASSERT_DOUBLE_EQ(v, 10.0);  // 1+2+3+4
        }
      },
      cfg);
  // Every intra-node mesh reduction ran fully checked: all LDM tiles and
  // DMA/RMA transfers retired between the levels, no rule tripped.
  EXPECT_EQ(check::total_violations(), 0u);
  EXPECT_EQ(sunway::swcheck::live_shadow_tiles(), 0);
  EXPECT_EQ(sunway::swcheck::live_transfers(), 0);
}

TEST(CheckCollectives, RepeatedHierarchicalCallsStayClean) {
  check::ScopedChecking checking;
  CommConfig cfg;
  cfg.node_size = 3;  // non-divisor of 7: groups {3, 3, 1}
  run_spmd(
      7,
      [](Communicator& comm) {
        for (int round = 0; round < 5; ++round) {
          std::vector<double> data(211, 1.0);
          comm.allreduce(data, AllreduceAlgorithm::Hierarchical);
          ASSERT_DOUBLE_EQ(data[0], 7.0);
        }
      },
      cfg);
  EXPECT_EQ(check::total_violations(), 0u);
  EXPECT_EQ(sunway::swcheck::live_shadow_tiles(), 0);
  EXPECT_EQ(sunway::swcheck::live_transfers(), 0);
}

TEST(CheckCollectives, AbandonedIallreduceIsReported) {
  check::ScopedChecking checking;
  run_spmd(2, [](Communicator& comm) {
    AllreduceRequest req =
        comm.iallreduce({static_cast<double>(comm.rank())},
                        AllreduceAlgorithm::ReduceScatterAllgather);
    ASSERT_TRUE(req.valid());
    // Dropped without wait(): the destructor still completes the exchange
    // (the peer must not deadlock) and files the violation.
  });
  const auto counts = check::violation_counts();
  ASSERT_TRUE(counts.count(commcheck::kRuleCollAbandoned));
  EXPECT_EQ(counts.at(commcheck::kRuleCollAbandoned), 2u);  // both ranks
}

TEST(CheckCollectives, WaitedRequestIsNotAViolation) {
  check::ScopedChecking checking;
  run_spmd(2, [](Communicator& comm) {
    AllreduceRequest req =
        comm.iallreduce({1.0, 2.0}, AllreduceAlgorithm::Hierarchical);
    const std::vector<double> out = req.wait();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], 2.0);
    EXPECT_DOUBLE_EQ(out[1], 4.0);
  });
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(CheckCollectives, AbandonmentIsSilentWhenCheckingDisabled) {
  // Production runs (checking off) only count the event; no tally entry.
  check::ScopedChecking checking(false);
  run_spmd(2, [](Communicator& comm) {
    AllreduceRequest req =
        comm.iallreduce({static_cast<double>(comm.rank())},
                        AllreduceAlgorithm::ReduceScatterAllgather);
    (void)req;
  });
  EXPECT_EQ(check::total_violations(), 0u);
}

}  // namespace
}  // namespace swraman::parallel
