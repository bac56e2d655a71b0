#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/lockcheck.hpp"
#include "parallel/comm.hpp"
#include "parallel/commcheck.hpp"
#include "sunway/check/shadow.hpp"
#include "sunway/double_buffer.hpp"

// Seeded-violation suite for the p2p protocol verifier: every p2p.* rule
// is deliberately triggered through the real Communicator transport and
// must be caught; consumed messages must stay clean. The last cases pin
// the checker core: one tally and one summary for all three checkers.

namespace swraman::parallel {
namespace {

using check::ScopedChecking;

CommConfig fast_timeouts() {
  CommConfig cfg;
  cfg.recv_timeout_s = 0.05;
  cfg.recv_retries = 0;
  return cfg;
}

// Rank 0 sends on `tag` and rank 1 never receives: the context dies
// with the message in its mailbox when run_spmd returns.
void send_unreceived(int tag) {
  run_spmd(2, [tag](Communicator& comm) {
    if (comm.rank() == 0) comm.send(1, {1.0, 2.0}, tag);
  });
}

TEST(Commcheck, OrphanedMessageNotedAtContextDestruction) {
  const ScopedChecking checking;
  send_unreceived(/*tag=*/7);
  const auto counts = check::violation_counts();
  const auto it = counts.find(commcheck::kRuleP2pOrphan);
  ASSERT_NE(it, counts.end());
  EXPECT_EQ(it->second, 1u);
}

TEST(Commcheck, ConsumedMessagesLeaveNoOrphans) {
  const ScopedChecking checking;
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, {1.0, 2.0}, /*tag=*/7);
    } else {
      EXPECT_EQ(comm.recv(0, /*tag=*/7).size(), 2u);
    }
  });
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(Commcheck, CrossRankRecvCycleNoted) {
  const ScopedChecking checking;
  // Rank 0 blocks on rank 1 and rank 1 on rank 0 with both mailboxes
  // empty: nobody can make progress until the timeouts break the ring.
  // The wait graph sees the cycle while both are parked.
  run_spmd(
      2,
      [](Communicator& comm) {
        const std::size_t peer = 1 - comm.rank();
        try {
          static_cast<void>(
              comm.recv(peer, /*tag=*/11 + static_cast<int>(comm.rank())));
        } catch (const TimeoutError&) {
        }
      },
      fast_timeouts());
  const auto counts = check::violation_counts();
  const auto it = counts.find(commcheck::kRuleP2pRecvCycle);
  ASSERT_NE(it, counts.end());
  EXPECT_GE(it->second, 1u);
}

TEST(Commcheck, PendingMessageSuppressesRecvCycle) {
  const ScopedChecking checking;
  // Same wait shape, but rank 1's awaited mailbox has data before rank
  // 0 parks: the ring can drain, so no cycle may be noted.
  run_spmd(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(1, {5.0}, /*tag=*/12);
          try {
            static_cast<void>(comm.recv(1, /*tag=*/11));
          } catch (const TimeoutError&) {
          }
        } else {
          EXPECT_EQ(comm.recv(0, /*tag=*/12).size(), 1u);
        }
      },
      fast_timeouts());
  const auto counts = check::violation_counts();
  EXPECT_EQ(counts.count(commcheck::kRuleP2pRecvCycle), 0u);
  EXPECT_EQ(counts.count(commcheck::kRuleP2pOrphan), 0u);
}

TEST(Commcheck, DisabledContextsAreFree) {
  const ScopedChecking checking(false);
  // Unchecked: the leftover message is not tracked.
  send_unreceived(/*tag=*/2);
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(Commcheck, SpmdCollectivesRunCleanUnderCheck) {
  const ScopedChecking checking;
  run_spmd(4, [](Communicator& comm) {
    std::vector<double> data{static_cast<double>(comm.rank()), 1.0};
    comm.allreduce(data, AllreduceAlgorithm::ReduceScatterAllgather);
    EXPECT_DOUBLE_EQ(data[0], 6.0);
    EXPECT_DOUBLE_EQ(data[1], 4.0);
    comm.barrier();
  });
  EXPECT_EQ(check::total_violations(), 0u);
}

// One rule from each checker under one ScopedChecking lands in one
// tally and one swraman-check-v2 document.
TEST(CheckCore, OneSummaryCountsEveryChecker) {
  const ScopedChecking checking;
  {
    // swcheck: a second get overlapping an in-flight one.
    sunway::CpeContext ctx{0, 64, sunway::sw26010pro(), "seeded"};
    const std::vector<double> host(16, 1.0);
    double* tile = ctx.ldm().allocate<double>(16);
    sunway::ReplyWord reply;
    sunway::dma_get_async(ctx, tile, host.data(), 8, reply);
    EXPECT_THROW(
        sunway::dma_get_async(ctx, tile + 4, host.data() + 8, 8, reply),
        CheckViolation);
    sunway::dma_wait(reply, 1);
  }
  {
    // lockcheck: an ABBA acquisition order.
    lockcheck::CheckedMutex a("test.core.a");
    lockcheck::CheckedMutex b("test.core.b");
    {
      const lockcheck::CheckedLock la(a);
      const lockcheck::CheckedLock lb(b);
    }
    const lockcheck::CheckedLock lb(b);
    EXPECT_THROW(lockcheck::CheckedLock la(a), CheckViolation);
  }
  // commcheck: a message nobody receives.
  send_unreceived(/*tag=*/3);
  // The communicator's own rule: an iallreduce handle dropped unwaited.
  run_spmd(1, [](Communicator& comm) {
    const AllreduceRequest req = comm.iallreduce({1.0});
    EXPECT_TRUE(req.valid());
  });

  const auto counts = check::violation_counts();
  EXPECT_EQ(check::total_violations(), 4u);
  for (const char* rule :
       {sunway::swcheck::kRuleDmaOverlap, lockcheck::kRuleOrderCycle,
        commcheck::kRuleP2pOrphan, commcheck::kRuleCollAbandoned}) {
    const auto it = counts.find(rule);
    ASSERT_NE(it, counts.end()) << rule;
    EXPECT_EQ(it->second, 1u) << rule;
  }
  const std::string json = check::summary_json();
  EXPECT_EQ(json.find("\"schema\":"), json.rfind("\"schema\":")) << json;
  EXPECT_NE(json.find("{\"schema\":\"swraman-check-v2\",\"enabled\":true,"
                      "\"violations\":4,\"rules\":{"
                      "\"coll.abandoned_request\":1,\"dma.overlap\":1,"
                      "\"lock.order_cycle\":1,\"p2p.orphaned_message\":1},"
                      "\"sites\":["),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.core.a\""), std::string::npos) << json;
}

TEST(CheckCore, DisabledRunSerializesAnEmptyReport) {
  const ScopedChecking checking(false);
  send_unreceived(/*tag=*/4);
  const std::string json = check::summary_json();
  EXPECT_EQ(json.rfind("{\"schema\":\"swraman-check-v2\",\"enabled\":false,"
                       "\"violations\":0,\"rules\":{},\"sites\":[",
                       0),
            0u)
      << json;
}

}  // namespace
}  // namespace swraman::parallel
