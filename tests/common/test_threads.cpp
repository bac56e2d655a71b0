#include "common/threads.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace swraman::threads {
namespace {

TEST(ForkJoin, RunsEveryIndexOnceOffTheCaller) {
  std::vector<int> hits(8, 0);
  std::vector<std::thread::id> ran_on(8);
  fork_join(8, [&](std::size_t i) {
    ++hits[i];
    ran_on[i] = std::this_thread::get_id();
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  for (const std::thread::id t : ran_on) {
    EXPECT_NE(t, std::this_thread::get_id());
  }
  fork_join(0, [](std::size_t) { FAIL() << "n == 0 runs nothing"; });
}

TEST(ForkJoin, RethrowsLowestFailingIndexAfterJoiningAll) {
  std::atomic<int> finished{0};
  try {
    fork_join(6, [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 4 ? 0 : 5));
      finished.fetch_add(1);
      if (i == 2 || i == 4) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
  }
  EXPECT_EQ(finished.load(), 6);
}

TEST(Joinable, JoinWaitsAndIsIdempotent) {
  std::atomic<bool> ran{false};
  Joinable t([&] { ran.store(true); });
  t.join();
  EXPECT_TRUE(ran.load());
  t.join();
  Joinable empty;
  empty.join();
  EXPECT_GE(hardware_threads(), 1u);
}

}  // namespace
}  // namespace swraman::threads
