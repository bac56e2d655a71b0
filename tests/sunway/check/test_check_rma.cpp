#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "sunway/check/shadow.hpp"
#include "sunway/rma_reduce.hpp"

// Seeded-violation tests for the RMA mesh checker: unconsumed mailbox
// messages and wait-for (row/column bus) deadlock cycles, plus the clean
// path — the paper's Fig. 8 distributed reduction fully accounted.

namespace swraman::sunway {
namespace {

TEST(CheckRma, UnconsumedMessageIsCaught) {
  check::ScopedChecking checking;
  swcheck::RmaMeshChecker mesh(8);
  mesh.record_send(2, 5, 512);
  mesh.record_send(2, 5, 512);
  mesh.record_send(3, 5, 256);
  mesh.record_drain(5);
  mesh.record_send(1, 4, 128);  // delivered after 4's last drain
  EXPECT_EQ(mesh.unconsumed(), 1u);
  try {
    mesh.verify("seeded");
    FAIL() << "unconsumed message not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleRmaUnconsumed);
    EXPECT_NE(std::string(e.what()).find("1->4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("silently lost"),
              std::string::npos);
  }
  EXPECT_EQ(check::violation_counts()[swcheck::kRuleRmaUnconsumed], 1u);
}

TEST(CheckRma, BalancedMailboxesVerifyClean) {
  check::ScopedChecking checking;
  swcheck::RmaMeshChecker mesh(64);
  for (std::size_t src = 0; src < 64; ++src) {
    mesh.record_send(src, (src * 7 + 3) % 64, 64);
  }
  for (std::size_t dst = 0; dst < 64; ++dst) mesh.record_drain(dst);
  EXPECT_NO_THROW(mesh.verify("clean"));
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(CheckRma, WaitForCycleIsReportedAsDeadlock) {
  check::ScopedChecking checking;
  swcheck::RmaMeshChecker mesh(64);
  // CPE 9 waits on 17, 17 on 42, 42 back on 9: a cycle across mesh rows
  // that stalls both buses forever on hardware.
  mesh.add_wait(9, 17);
  mesh.add_wait(17, 42);
  mesh.add_wait(42, 9);
  try {
    mesh.check_deadlock();
    FAIL() << "deadlock cycle not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleRmaDeadlock);
    const std::string what = e.what();
    EXPECT_NE(what.find("CPE 9 (row 1, col 1)"), std::string::npos);
    EXPECT_NE(what.find("CPE 42 (row 5, col 2)"), std::string::npos);
  }
}

TEST(CheckRma, AcyclicWaitsAreNotDeadlock) {
  check::ScopedChecking checking;
  swcheck::RmaMeshChecker mesh(64);
  mesh.add_wait(0, 1);
  mesh.add_wait(1, 2);
  mesh.add_wait(0, 2);  // diamond, no cycle
  EXPECT_NO_THROW(mesh.check_deadlock());
}

// The production path: the Fig. 8 reduction's sends and drains balance,
// so a fully checked run is violation-free and exact.
TEST(CheckRma, ArrayReductionRunsCleanUnderCheck) {
  check::ScopedChecking checking;
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::size_t> idx(0, 9999);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<std::vector<Contribution>> contributions(64);
  for (auto& list : contributions) {
    for (int i = 0; i < 500; ++i) list.push_back({idx(rng), val(rng)});
  }
  std::vector<double> arr(10000, 0.0);
  std::vector<double> expected(10000, 0.0);
  serial_array_reduction(contributions, expected);
  const RmaReduceStats stats = rma_array_reduction(contributions, arr);
  EXPECT_GT(stats.rma_messages, 0.0);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    EXPECT_NEAR(arr[i], expected[i], 1e-12) << i;
  }
  EXPECT_EQ(check::total_violations(), 0u);
}

}  // namespace
}  // namespace swraman::sunway
