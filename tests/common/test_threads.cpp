#include "common/threads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
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

// Tracks how many bodies run at once.
struct LiveCounter {
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  void enter() {
    const int now = live.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  }
  void leave() { live.fetch_sub(1); }
};

TEST(ForkJoin, NestedForkJoinRunsInlineWithinTheThreadBudget) {
  // The outer level takes the budget (a few threads are enough to show it).
  const std::size_t n = std::min<std::size_t>(hardware_threads(), 4);
  LiveCounter counter;
  std::vector<std::thread::id> outer_on(n);
  std::vector<int> inner_off_thread(n, 0);
  std::vector<int> inner_hits(n * n, 0);
  EXPECT_FALSE(in_task());
  fork_join(n, [&](std::size_t i) {
    EXPECT_TRUE(in_task());
    outer_on[i] = std::this_thread::get_id();
    fork_join(n, [&](std::size_t j) {
      counter.enter();
      if (std::this_thread::get_id() != outer_on[i]) ++inner_off_thread[i];
      ++inner_hits[i * n + j];
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      counter.leave();
    });
    claim_each(n, n, [&](std::size_t) {
      counter.enter();
      if (std::this_thread::get_id() != outer_on[i]) ++inner_off_thread[i];
      counter.leave();
    });
  });
  EXPECT_FALSE(in_task());
  for (const int h : inner_hits) EXPECT_EQ(h, 1);
  for (const int off : inner_off_thread) EXPECT_EQ(off, 0);
  EXPECT_GE(counter.peak.load(), 1);
  EXPECT_LE(counter.peak.load(), static_cast<int>(n));
}

TEST(ForkJoin, NestedRethrowsLowestIndexAfterRunningEveryIndex) {
  std::atomic<int> ran{0};
  try {
    fork_join(1, [&](std::size_t) {
      fork_join(5, [&](std::size_t j) {
        ran.fetch_add(1);
        if (j == 1 || j == 3) throw std::runtime_error(std::to_string(j));
      });
    });
    FAIL() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "1");
  }
  EXPECT_EQ(ran.load(), 5);
}

TEST(RunDedicated, StartsRealThreadsEvenInsideATask) {
  // Two ranks that each wait for the other: run inline they could never
  // both arrive. The wait is bounded, so a regression fails, not hangs.
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  fork_join(1, [&](std::size_t) {
    run_dedicated(2, [&](std::size_t) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (arrived.load() == 2) met.fetch_add(1);
    });
  });
  EXPECT_EQ(met.load(), 2);
}

TEST(ClaimEach, RunsEveryIndexOnceWithTheCallerTakingPart) {
  const std::size_t n = 64;
  std::vector<int> hits(n, 0);
  std::atomic<int> on_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  LiveCounter counter;
  const std::size_t width = std::min<std::size_t>(hardware_threads(), 4);
  claim_each(n, width, [&](std::size_t k) {
    counter.enter();
    ++hits[k];
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    EXPECT_TRUE(in_task());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    counter.leave();
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  if (width > 1) {
    EXPECT_GT(on_caller.load(), 0);
  }
  EXPECT_LE(counter.peak.load(), static_cast<int>(width));
  EXPECT_FALSE(in_task());
}

TEST(ClaimEach, RethrowsLowestFailingIndexAfterEveryCallFinished) {
  // Index 6 fails at once, index 2 only after a delay: the caller must
  // still see index 2's error, the one a serial loop would stop at, and
  // only once index 2's call (and every other in flight) has returned.
  std::atomic<int> running{0};
  std::vector<int> hits(16, 0);
  try {
    claim_each(16, 4, [&](std::size_t k) {
      running.fetch_add(1);
      ++hits[k];
      std::this_thread::sleep_for(std::chrono::milliseconds(k == 2 ? 20 : 1));
      running.fetch_sub(1);
      if (k == 2 || k == 6) throw std::runtime_error(std::to_string(k));
    });
    FAIL() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
  }
  EXPECT_EQ(running.load(), 0);
  // Every index below the failing one ran; claims stopped after a throw.
  for (std::size_t k = 0; k <= 2; ++k) EXPECT_EQ(hits[k], 1) << k;
  EXPECT_LT(std::accumulate(hits.begin(), hits.end(), 0), 16);
}

TEST(ClaimEach, SerialLoopStopsAtTheFirstThrow) {
  std::vector<int> hits(5, 0);
  EXPECT_THROW(claim_each(5, 1,
                          [&](std::size_t k) {
                            ++hits[k];
                            if (k == 2) throw std::runtime_error("2");
                          }),
               std::runtime_error);
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 0, 0}));
  claim_each(0, 4, [](std::size_t) { FAIL() << "n == 0 runs nothing"; });
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
