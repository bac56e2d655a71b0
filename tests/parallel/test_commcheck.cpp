#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/lockcheck.hpp"
#include "parallel/comm.hpp"
#include "parallel/commcheck.hpp"

// Seeded-violation suite for the p2p protocol verifier: every p2p.* rule
// is deliberately triggered through the real Communicator transport and
// must be caught; the sanctioned escape hatches (abandon, consumed
// messages) must stay clean.

namespace swraman::parallel {
namespace {

using lockcheck::ScopedChecking;

CommConfig fast_timeouts() {
  CommConfig cfg;
  cfg.recv_timeout_s = 0.05;
  cfg.recv_retries = 0;
  return cfg;
}

TEST(Commcheck, OrphanedMessageNotedAtContextDestruction) {
  const ScopedChecking checking;
  {
    std::vector<Communicator> group = make_comm_group(2);
    ASSERT_NE(group[0].context_id(), 0u);
    group[0].send(1, {1.0, 2.0}, /*tag=*/7);
    // Nobody receives it: the context dies with the message in flight.
  }
  const auto counts = lockcheck::violation_counts();
  const auto it = counts.find(lockcheck::kRuleP2pOrphan);
  ASSERT_NE(it, counts.end());
  EXPECT_EQ(it->second, 1u);
}

TEST(Commcheck, ConsumedMessagesLeaveNoOrphans) {
  const ScopedChecking checking;
  {
    std::vector<Communicator> group = make_comm_group(2);
    group[0].send(1, {1.0, 2.0}, /*tag=*/7);
    const std::vector<double> got = group[1].recv(0, /*tag=*/7);
    EXPECT_EQ(got.size(), 2u);
  }
  EXPECT_EQ(lockcheck::total_violations(), 0u);
}

TEST(Commcheck, AbandonedTimeoutRoundTripIsClean) {
  const ScopedChecking checking;
  {
    std::vector<Communicator> group = make_comm_group(2);
    const std::uint64_t ctx = group[0].context_id();
    // A requester that sent, timed out, and walked away declares both
    // halves of the round trip abandoned — the bounded-lookup idiom.
    group[0].send(1, {42.0}, /*tag=*/3);
    commcheck::abandon(ctx, 0, 1, 3);
    commcheck::abandon(ctx, 1, 0, 9);  // the response that never came
  }
  EXPECT_EQ(lockcheck::total_violations(), 0u);
}

TEST(Commcheck, SendSideTagMismatchThrowsWithProvenance) {
  const ScopedChecking checking;
  std::vector<Communicator> group = make_comm_group(2);
  const std::uint64_t ctx = group[0].context_id();
  commcheck::bind_tag(ctx, /*tag=*/5, /*expect_len=*/3, "test.request");
  group[0].send(1, {1.0, 2.0, 3.0}, 5);  // conforming: fine
  std::string what;
  try {
    group[0].send(1, {1.0, 2.0}, 5);  // wrong arity for the wire type
    FAIL() << "tag mismatch not reported";
  } catch (const CheckViolation& v) {
    EXPECT_EQ(v.rule(), lockcheck::kRuleP2pTagMismatch);
    what = v.what();
  }
  EXPECT_NE(what.find("test.request"), std::string::npos) << what;
  EXPECT_NE(what.find("test_commcheck.cpp"), std::string::npos) << what;
  // Drain the conforming message so destruction stays orphan-free; the
  // mismatched send was rejected before it entered the mailbox.
  static_cast<void>(group[1].recv(0, 5));
  const auto counts = lockcheck::violation_counts();
  EXPECT_EQ(counts.at(lockcheck::kRuleP2pTagMismatch), 1u);
}

TEST(Commcheck, DefaultBindingCoversDynamicResponseTags) {
  const ScopedChecking checking;
  std::vector<Communicator> group = make_comm_group(2);
  const std::uint64_t ctx = group[0].context_id();
  commcheck::bind_tag(ctx, /*tag=*/0, /*expect_len=*/2, "test.request");
  commcheck::bind_default(ctx, /*expect_len=*/4, "test.response");
  // Caller-drawn response tags all inherit the default wire type.
  group[0].send(1, {1.0, 2.0, 3.0, 4.0}, /*tag=*/17);
  static_cast<void>(group[1].recv(0, 17));
  EXPECT_THROW(group[0].send(1, {1.0}, /*tag=*/23), CheckViolation);
  EXPECT_EQ(lockcheck::violation_counts().at(lockcheck::kRuleP2pTagMismatch),
            1u);
}

TEST(Commcheck, RecvSideMismatchIsNotedNotThrown) {
  const ScopedChecking checking;
  std::vector<Communicator> group = make_comm_group(2);
  const std::uint64_t ctx = group[0].context_id();
  group[0].send(1, {1.0, 2.0}, /*tag=*/4);  // sent before the binding
  commcheck::bind_tag(ctx, /*tag=*/4, /*expect_len=*/9, "test.late_bind");
  // The poll-loop side must not unwind: the mismatch is tallied, the
  // message still delivered.
  std::vector<double> out;
  ASSERT_TRUE(group[1].try_recv(0, 4, 0.5, &out));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(lockcheck::violation_counts().at(lockcheck::kRuleP2pTagMismatch),
            1u);
}

TEST(Commcheck, CrossRankRecvCycleNoted) {
  const ScopedChecking checking;
  {
    std::vector<Communicator> group = make_comm_group(2, fast_timeouts());
    // Rank 0 blocks on rank 1 and rank 1 on rank 0 with both mailboxes
    // empty: nobody can make progress until the timeouts break the
    // ring. The wait graph sees the cycle while both are parked.
    std::thread t0([&] {
      try {
        static_cast<void>(group[0].recv(1, /*tag=*/11));
      } catch (const TimeoutError&) {
      }
    });
    std::thread t1([&] {
      try {
        static_cast<void>(group[1].recv(0, /*tag=*/12));
      } catch (const TimeoutError&) {
      }
    });
    t0.join();
    t1.join();
  }
  const auto counts = lockcheck::violation_counts();
  const auto it = counts.find(lockcheck::kRuleP2pRecvCycle);
  ASSERT_NE(it, counts.end());
  EXPECT_GE(it->second, 1u);
}

TEST(Commcheck, PendingMessageSuppressesRecvCycle) {
  const ScopedChecking checking;
  {
    std::vector<Communicator> group = make_comm_group(2, fast_timeouts());
    // Same wait shape, but rank 1's awaited mailbox has data: the ring
    // can drain, so no cycle may be noted.
    group[0].send(1, {5.0}, /*tag=*/12);
    std::thread t0([&] {
      try {
        static_cast<void>(group[0].recv(1, /*tag=*/11));
      } catch (const TimeoutError&) {
      }
    });
    std::thread t1([&] {
      const std::vector<double> got = group[1].recv(0, /*tag=*/12);
      EXPECT_EQ(got.size(), 1u);
    });
    t0.join();
    t1.join();
  }
  const auto counts = lockcheck::violation_counts();
  EXPECT_EQ(counts.count(lockcheck::kRuleP2pRecvCycle), 0u);
  EXPECT_EQ(counts.count(lockcheck::kRuleP2pOrphan), 0u);
}

TEST(Commcheck, DisabledContextsAreFree) {
  const ScopedChecking checking(false);
  std::vector<Communicator> group = make_comm_group(2);
  EXPECT_EQ(group[0].context_id(), 0u);
  group[0].send(1, {1.0}, /*tag=*/2);
  // Unchecked: leftover messages, unbound tags — nothing is tracked.
  EXPECT_EQ(lockcheck::total_violations(), 0u);
}

TEST(Commcheck, SpmdCollectivesRunCleanUnderCheck) {
  const ScopedChecking checking;
  run_spmd(4, [](Communicator& comm) {
    std::vector<double> data{static_cast<double>(comm.rank()), 1.0};
    comm.allreduce(data, AllreduceAlgorithm::Ring);
    EXPECT_DOUBLE_EQ(data[0], 6.0);
    EXPECT_DOUBLE_EQ(data[1], 4.0);
    comm.barrier();
  });
  EXPECT_EQ(lockcheck::total_violations(), 0u);
}

}  // namespace
}  // namespace swraman::parallel
