#include "common/threads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
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

// The indices 0, ..., k - 1.
std::vector<std::size_t> prefix(std::size_t k) {
  std::vector<std::size_t> v(k);
  std::iota(v.begin(), v.end(), std::size_t{0});
  return v;
}

// A reduction whose result depends on the order of its terms: each index
// contributes a few doubles of very different magnitude, added in turn.
std::vector<double> ordered_terms(std::size_t i) {
  const double x = static_cast<double>(i);
  return {1e16 / (1.0 + x), 0.1 * x + 0.3, -1e16 / (2.0 + x), 1.0 / 3.0};
}

TEST(ClaimEachOrdered, CommitsInIndexOrderBitwiseTheSerialLoop) {
  const std::size_t n = 200;
  double serial = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const double t : ordered_terms(i)) serial += t;
  }
  const std::size_t width = 4;
  const std::size_t window = 2 * width;
  std::vector<std::vector<double>> slots(window);
  std::vector<std::size_t> order;
  double sum = 0.0;
  std::atomic<int> computed_on_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  claim_each_ordered(
      n, width, window,
      [&](std::size_t i, std::size_t slot) {
        EXPECT_TRUE(in_task());
        EXPECT_EQ(slot, i % window);
        if (std::this_thread::get_id() == caller) computed_on_caller++;
        // Later indices finish first now and then.
        if (i % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
        slots[slot] = ordered_terms(i);
      },
      [&](std::size_t i, std::size_t slot) {
        order.push_back(i);
        for (const double t : slots[slot]) sum += t;
      });
  EXPECT_EQ(order, prefix(n));
  EXPECT_EQ(std::memcmp(&sum, &serial, sizeof sum), 0)
      << sum << " vs " << serial;
  EXPECT_GT(computed_on_caller.load(), 0);
  EXPECT_FALSE(in_task());
  claim_each_ordered(
      0, 4, 8,
      [](std::size_t, std::size_t) { FAIL() << "n == 0 computes nothing"; },
      [](std::size_t, std::size_t) { FAIL() << "n == 0 commits nothing"; });
}

TEST(ClaimEachOrdered, NeverHoldsMoreThanTheWindowUncommitted) {
  // A window narrower than the thread count, and a slow index that holds
  // up the committed prefix: the claims must wait for it.
  const std::size_t n = 64;
  const std::size_t window = 3;
  std::mutex mu;
  std::size_t live = 0;  // claimed (computing or computed), not committed
  std::size_t peak = 0;
  std::vector<int> owner(window, -1);  // index holding each slot
  bool slot_clash = false;
  claim_each_ordered(
      n, 4, window,
      [&](std::size_t i, std::size_t slot) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          peak = std::max(peak, ++live);
          slot_clash |= owner[slot] != -1;
          owner[slot] = static_cast<int>(i);
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(i % 5 == 0 ? 2000 : 100));
      },
      [&](std::size_t i, std::size_t slot) {
        const std::lock_guard<std::mutex> lock(mu);
        slot_clash |= owner[slot] != static_cast<int>(i);
        owner[slot] = -1;
        --live;
      });
  EXPECT_EQ(live, 0u);
  EXPECT_GE(peak, 1u);
  EXPECT_LE(peak, window);
  EXPECT_FALSE(slot_clash);
}

// Runs claim_each_ordered over 32 indices where `failing` throw (their
// index as the message) after `delay_ms`; returns the committed indices
// and the message the caller saw.
struct OrderedFailure {
  std::vector<std::size_t> committed;
  std::string what;
};
OrderedFailure run_failing(const std::set<std::size_t>& failing,
                           std::size_t delay_index, std::size_t window) {
  OrderedFailure out;
  std::atomic<int> running{0};
  try {
    claim_each_ordered(
        32, 4, window,
        [&](std::size_t i, std::size_t) {
          running.fetch_add(1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(i == delay_index ? 20 : 1));
          running.fetch_sub(1);
          if (failing.count(i) != 0) {
            throw std::runtime_error(std::to_string(i));
          }
        },
        [&](std::size_t i, std::size_t) { out.committed.push_back(i); });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    out.what = e.what();
  }
  EXPECT_EQ(running.load(), 0) << "rethrown before every compute returned";
  return out;
}

TEST(ClaimEachOrdered, ThrowCommitsExactlyThePrefixAndRethrowsItsError) {
  // Index 5 fails once threads already wait on a full window (window 2).
  OrderedFailure f = run_failing({5}, 5, 2);
  EXPECT_EQ(f.what, "5");
  EXPECT_EQ(f.committed, prefix(5));
  // Index 9 fails at once, index 4 only after a delay: the caller sees
  // index 4's error, and nothing from 4 on is committed.
  f = run_failing({4, 9}, 4, 8);
  EXPECT_EQ(f.what, "4");
  EXPECT_EQ(f.committed, prefix(4));
  // The very first index: nothing commits.
  f = run_failing({0}, 0, 4);
  EXPECT_EQ(f.what, "0");
  EXPECT_TRUE(f.committed.empty());
}

TEST(ClaimEachOrdered, ThrowingCommitStopsTheCommits) {
  std::vector<std::size_t> committed;
  try {
    claim_each_ordered(
        40, 4, 4, [](std::size_t, std::size_t) {},
        [&](std::size_t i, std::size_t) {
          if (i == 11) throw std::runtime_error("commit 11");
          committed.push_back(i);
        });
    FAIL() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "commit 11");
  }
  EXPECT_EQ(committed, prefix(11));
}

TEST(ClaimEachOrdered, RunsInlineInsideATaskAndSeriallyAtWidthOne) {
  std::vector<std::string> events;
  const auto record = [&](std::size_t n, std::size_t max_threads) {
    events.clear();
    std::vector<std::size_t> slots;
    const std::thread::id here = std::this_thread::get_id();
    claim_each_ordered(
        n, max_threads, 8,
        [&](std::size_t i, std::size_t slot) {
          EXPECT_EQ(std::this_thread::get_id(), here);
          slots.push_back(slot);
          events.push_back("compute " + std::to_string(i));
        },
        [&](std::size_t i, std::size_t slot) {
          slots.push_back(slot);
          events.push_back("commit " + std::to_string(i));
        });
    for (const std::size_t s : slots) EXPECT_EQ(s, 0u);
  };
  const std::vector<std::string> want = {"compute 0", "commit 0", "compute 1",
                                         "commit 1",  "compute 2", "commit 2"};
  fork_join(1, [&](std::size_t) { record(3, 4); });
  EXPECT_EQ(events, want);
  record(3, 1);
  EXPECT_EQ(events, want);

  // Serially, the first throw ends the loop before its commit.
  std::vector<std::size_t> committed;
  EXPECT_THROW(claim_each_ordered(
                   5, 1, 8,
                   [](std::size_t i, std::size_t) {
                     if (i == 2) throw std::runtime_error("2");
                   },
                   [&](std::size_t i, std::size_t) { committed.push_back(i); }),
               std::runtime_error);
  EXPECT_EQ(committed, prefix(2));
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
