#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/threads.hpp"
#include "obs/trace.hpp"

namespace swraman::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_for_testing();
  }
  void TearDown() override {
    set_enabled(false);
    reset_for_testing();
  }
};

TEST_F(TraceTest, NestingBuildsSlashJoinedPaths) {
  {
    SWRAMAN_TRACE_SPAN(outer, "raman.compute");
    {
      SWRAMAN_TRACE_SPAN(mid, "scf.solve");
      { SWRAMAN_TRACE_SCOPE("scf.iter"); }
    }
  }
  const std::vector<SpanRecord> spans = snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Children complete before parents; snapshot is sorted by start time.
  EXPECT_EQ(spans[0].path, "raman.compute");
  EXPECT_EQ(spans[1].path, "raman.compute/scf.solve");
  EXPECT_EQ(spans[2].path, "raman.compute/scf.solve/scf.iter");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 2u);
}

TEST_F(TraceTest, SiblingSpansShareParentPath) {
  {
    SWRAMAN_TRACE_SPAN(outer, "scf.iter");
    { SWRAMAN_TRACE_SCOPE("scf.veff"); }
    { SWRAMAN_TRACE_SCOPE("scf.eigensolve"); }
  }
  const std::vector<SpanRecord> spans = snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].path, "scf.iter/scf.veff");
  EXPECT_EQ(spans[2].path, "scf.iter/scf.eigensolve");
}

TEST_F(TraceTest, DurationsNestAndAreOrdered) {
  {
    SWRAMAN_TRACE_SPAN(outer, "outer");
    { SWRAMAN_TRACE_SCOPE("inner"); }
  }
  const std::vector<SpanRecord> spans = snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& outer = spans[0];
  const SpanRecord& inner = spans[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
}

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  set_enabled(false);
  {
    SWRAMAN_TRACE_SPAN(span, "ghost");
    EXPECT_FALSE(span.active());
    span.attr("k", 1.0);  // must be a no-op, not a crash
    instant("ghost.instant");
  }
  EXPECT_TRUE(snapshot().empty());
}

TEST_F(TraceTest, SpanEnabledMidwayDoesNotCorruptStack) {
  set_enabled(false);
  {
    SWRAMAN_TRACE_SPAN(outer, "outer");  // inactive
    set_enabled(true);
    { SWRAMAN_TRACE_SCOPE("inner"); }  // active, becomes a root
  }
  const std::vector<SpanRecord> spans = snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].path, "inner");
  EXPECT_EQ(spans[0].depth, 0u);
}

TEST_F(TraceTest, AttributesAreRecorded) {
  {
    SWRAMAN_TRACE_SPAN(span, "kernel");
    ASSERT_TRUE(span.active());
    span.attr("flops", 1e9);
    span.attr("variant", "simd");
  }
  const std::vector<SpanRecord> spans = snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_EQ(spans[0].attrs[0].key, "flops");
  EXPECT_TRUE(spans[0].attrs[0].numeric);
  EXPECT_DOUBLE_EQ(spans[0].attrs[0].num, 1e9);
  EXPECT_EQ(spans[0].attrs[1].key, "variant");
  EXPECT_FALSE(spans[0].attrs[1].numeric);
  EXPECT_EQ(spans[0].attrs[1].str, "simd");
}

TEST_F(TraceTest, InstantEventsInheritTheCurrentPath) {
  {
    SWRAMAN_TRACE_SPAN(span, "scf.iter");
    instant("fault.injected", "site", std::string("scf.diverge"));
  }
  const std::vector<SpanRecord> spans = snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& inst = spans[0].instant ? spans[0] : spans[1];
  EXPECT_TRUE(inst.instant);
  EXPECT_EQ(inst.path, "scf.iter/fault.injected");
  EXPECT_EQ(inst.dur_ns, 0u);
}

TEST_F(TraceTest, ThreadsGetDistinctIdsAndIndependentStacks) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      SWRAMAN_TRACE_SPAN(span, "rank.work");
      { SWRAMAN_TRACE_SCOPE("rank.inner"); }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<SpanRecord> spans = snapshot();
  ASSERT_EQ(spans.size(), 2u * kThreads);
  std::vector<std::uint32_t> tids;
  for (const SpanRecord& s : spans) {
    if (s.name == "rank.inner") {
      // Nesting stays per-thread: every inner span is a child of its own
      // thread's rank.work, never of another thread's.
      EXPECT_EQ(s.path, "rank.work/rank.inner");
      tids.push_back(s.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()) - tids.begin(), kThreads);
}

TEST_F(TraceTest, ForkedTaskSpansNestUnderTheForkingSpan) {
  const std::uint32_t caller = thread_id();
  {
    SWRAMAN_TRACE_SCOPE("raman.hessian");
    threads::fork_join(3, [](std::size_t) {
      SWRAMAN_TRACE_SCOPE("scf.solve");
      { SWRAMAN_TRACE_SCOPE("scf.iter"); }
    });
    // The caller's own claims nest as ordinary children.
    threads::claim_each(4, 2, [](std::size_t) {
      SWRAMAN_TRACE_SCOPE("raman.geometry");
    });
  }
  // A fork with no span open leaves the task's spans at the root.
  threads::fork_join(1, [](std::size_t) { SWRAMAN_TRACE_SCOPE("root.task"); });

  const std::vector<SpanRecord> spans = snapshot();
  ASSERT_EQ(spans.size(), 1u + 3u + 3u + 4u + 1u);
  for (const SpanRecord& s : spans) {
    if (s.name == "scf.solve") {
      EXPECT_EQ(s.path, "raman.hessian/scf.solve");
      EXPECT_EQ(s.depth, 1u);
      EXPECT_NE(s.tid, caller);  // keeps the thread it ran on
    } else if (s.name == "scf.iter") {
      EXPECT_EQ(s.path, "raman.hessian/scf.solve/scf.iter");
      EXPECT_EQ(s.depth, 2u);
    } else if (s.name == "raman.geometry") {
      EXPECT_EQ(s.path, "raman.hessian/raman.geometry");
      EXPECT_EQ(s.depth, 1u);
    } else if (s.name == "root.task") {
      EXPECT_EQ(s.path, "root.task");
      EXPECT_EQ(s.depth, 0u);
    } else {
      EXPECT_EQ(s.path, "raman.hessian");
      EXPECT_EQ(s.tid, caller);
    }
  }
}

}  // namespace
}  // namespace swraman::obs
