#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/lockcheck.hpp"

// Seeded-violation suite for the host-concurrency contract checker
// (DESIGN.md §14): every lock.* rule is deliberately triggered and must
// be caught with file:line provenance; the legal idioms (kAllowsBlocking
// control-plane locks, timed predicate-less parks) must stay clean.

namespace swraman {
namespace {

using check::ScopedChecking;
using lockcheck::CheckedCondVar;
using lockcheck::CheckedLock;
using lockcheck::CheckedMutex;

TEST(Lockcheck, AbBaOrderCycleReportedWithBothSites) {
  const ScopedChecking checking;
  CheckedMutex a("test.order.a");
  CheckedMutex b("test.order.b");
  {
    // Establish A -> B.
    const CheckedLock la(a);
    const CheckedLock lb(b);
  }
  // B -> A closes the cycle — a potential deadlock even though this
  // single-threaded run can never actually wedge.
  std::string what;
  try {
    const CheckedLock lb(b);
    const CheckedLock la(a);
    FAIL() << "cycle not reported";
  } catch (const CheckViolation& v) {
    EXPECT_EQ(v.rule(), lockcheck::kRuleOrderCycle);
    what = v.what();
  }
  // The report names both lock classes and carries the acquisition
  // provenance of this file for the forward and the closing edge.
  EXPECT_NE(what.find("test.order.a"), std::string::npos) << what;
  EXPECT_NE(what.find("test.order.b"), std::string::npos) << what;
  EXPECT_NE(what.find("test_lockcheck.cpp"), std::string::npos) << what;
  EXPECT_EQ(check::violation_counts()[lockcheck::kRuleOrderCycle], 1u);
}

TEST(Lockcheck, ConsistentOrderAcrossManyLocksStaysClean) {
  const ScopedChecking checking;
  CheckedMutex a("test.chain.a");
  CheckedMutex b("test.chain.b");
  CheckedMutex c("test.chain.c");
  for (int i = 0; i < 3; ++i) {
    const CheckedLock la(a);
    const CheckedLock lb(b);
    const CheckedLock lc(c);
  }
  {
    // Skipping a level is fine — only reversing order is a cycle.
    const CheckedLock la(a);
    const CheckedLock lc(c);
  }
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(Lockcheck, SameClassNestingReportsImmediately) {
  const ScopedChecking checking;
  // Two *instances* of one class (same construction site via a helper):
  // nesting them is self-deadlock-by-class, reported on acquisition.
  struct Deque {
    CheckedMutex mutex{"test.same_class"};
  };
  Deque d1;
  Deque d2;
  const CheckedLock l1(d1.mutex);
  EXPECT_THROW(static_cast<void>(CheckedLock(d2.mutex)), CheckViolation);
  EXPECT_EQ(check::violation_counts()[lockcheck::kRuleOrderCycle], 1u);
}

TEST(Lockcheck, BlockingUnderLockReported) {
  const ScopedChecking checking;
  CheckedMutex m("test.blocking.strict");
  std::string what;
  try {
    const CheckedLock lock(m);
    lockcheck::blocking_call("wal.append_fsync");
    FAIL() << "blocking call under strict lock not reported";
  } catch (const CheckViolation& v) {
    EXPECT_EQ(v.rule(), lockcheck::kRuleBlockingUnderLock);
    what = v.what();
  }
  EXPECT_NE(what.find("wal.append_fsync"), std::string::npos) << what;
  EXPECT_NE(what.find("test.blocking.strict"), std::string::npos) << what;
  EXPECT_NE(what.find("test_lockcheck.cpp"), std::string::npos) << what;
}

TEST(Lockcheck, BlockingUnderAllowsBlockingLockIsClean) {
  const ScopedChecking checking;
  CheckedMutex m("test.blocking.control_plane",
                 CheckedMutex::kAllowsBlocking);
  {
    const CheckedLock lock(m);
    lockcheck::blocking_call("shard.join");
  }
  // Off-lock blocking is always fine.
  lockcheck::blocking_call("wal.append_fsync");
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(Lockcheck, CondvarUntimedWaitWithoutPredicateReported) {
  const ScopedChecking checking;
  CheckedMutex m("test.condvar.mutex");
  CheckedCondVar cv;
  CheckedLock lock(m);
  EXPECT_THROW(cv.wait(lock), CheckViolation);
  EXPECT_EQ(
      check::violation_counts()[lockcheck::kRuleCondvarNoPredicate],
      1u);
  // The violation is reported before the wait parks, so the lock is
  // still held and usable.
  EXPECT_TRUE(lock.owns_lock());
}

TEST(Lockcheck, CondvarTimedWaitWithoutPredicateIsLegal) {
  const ScopedChecking checking;
  CheckedMutex m("test.condvar.timed");
  CheckedCondVar cv;
  CheckedLock lock(m);
  // The worker pool's bounded idle park: spurious wakeup or missed
  // notify costs at most the timeout.
  static_cast<void>(cv.wait_for(lock, std::chrono::milliseconds(1)));
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(Lockcheck, CondvarPredicateWaitReacquiresBookkeeping) {
  const ScopedChecking checking;
  CheckedMutex m("test.condvar.pred");
  CheckedCondVar cv;
  bool ready = false;
  std::thread t([&] {
    {
      const CheckedLock lock(m);
      ready = true;
    }
    cv.notify_one();
  });
  {
    CheckedLock lock(m);
    cv.wait(lock, [&] { return ready; });
    // After the wait returns the instrumented held set must agree with
    // reality: the mutex is held again.
    EXPECT_TRUE(lockcheck::is_held(&m));
  }
  t.join();
  EXPECT_FALSE(lockcheck::is_held(&m));
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(Lockcheck, GuardContractReportsUnheldAndAcceptsHeld) {
  const ScopedChecking checking;
  CheckedMutex guard("test.guard");
  std::string what;
  try {
    lockcheck::assert_held(&guard, "FairShareScheduler::admit");
    FAIL() << "unheld guard not reported";
  } catch (const CheckViolation& v) {
    EXPECT_EQ(v.rule(), lockcheck::kRuleGuardUnheld);
    what = v.what();
  }
  EXPECT_NE(what.find("FairShareScheduler::admit"), std::string::npos)
      << what;
  {
    const CheckedLock lock(guard);
    lockcheck::assert_held(&guard, "FairShareScheduler::admit");  // clean
  }
  // A null guard (component not attached to a service) checks nothing.
  lockcheck::assert_held(nullptr, "unattached");
  EXPECT_EQ(check::violation_counts()[lockcheck::kRuleGuardUnheld],
            1u);
}

TEST(Lockcheck, DisabledModeChecksNothing) {
  const ScopedChecking checking(false);
  CheckedMutex a("test.off.a");
  CheckedMutex b("test.off.b");
  {
    const CheckedLock la(a);
    const CheckedLock lb(b);
    lockcheck::blocking_call("wal.append_fsync");
    lockcheck::assert_held(nullptr, "x");
  }
  {
    const CheckedLock lb(b);
    const CheckedLock la(a);  // reversed — ignored while disabled
  }
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(Lockcheck, SummaryJsonCarriesRulesAndSites) {
  const ScopedChecking checking;
  CheckedMutex a("test.summary.a");
  CheckedMutex b("test.summary.b");
  {
    const CheckedLock la(a);
    const CheckedLock lb(b);
  }
  try {
    const CheckedLock lb(b);
    const CheckedLock la(a);
  } catch (const CheckViolation&) {
  }
  const std::string json = check::summary_json();
  EXPECT_NE(json.find("\"schema\":\"swraman-check-v2\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lock.order_cycle\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.summary.a\""), std::string::npos) << json;
  EXPECT_NE(json.find("test_lockcheck.cpp"), std::string::npos) << json;
}

TEST(Lockcheck, ScopedCheckingIsolatesCases) {
  {
    const ScopedChecking checking;
    CheckedMutex m("test.isolation");
    try {
      const CheckedLock lock(m);
      lockcheck::blocking_call("fsync");
    } catch (const CheckViolation&) {
    }
    EXPECT_EQ(check::total_violations(), 1u);
  }
  // Destructor cleared the tally and restored the previous mode.
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(Lockcheck, OrderEdgesAreSharedAcrossThreads) {
  const ScopedChecking checking;
  CheckedMutex a("test.xthread.a");
  CheckedMutex b("test.xthread.b");
  std::thread t([&] {
    const CheckedLock la(a);
    const CheckedLock lb(b);
  });
  t.join();
  // The reversed order on *this* thread closes the cycle against the
  // edge the other thread recorded — the classic two-thread AB/BA
  // deadlock, caught without the fatal interleaving ever running.
  bool caught = false;
  try {
    const CheckedLock lb(b);
    const CheckedLock la(a);
  } catch (const CheckViolation& v) {
    caught = true;
    EXPECT_EQ(v.rule(), lockcheck::kRuleOrderCycle);
  }
  EXPECT_TRUE(caught);
}

}  // namespace
}  // namespace swraman
