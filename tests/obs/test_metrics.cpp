#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace swraman::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    Registry::instance().reset_for_testing();
  }
  void TearDown() override {
    set_enabled(false);
    Registry::instance().reset_for_testing();
  }
};

TEST_F(MetricsTest, SameNameReturnsSameInstrument) {
  Counter& a = Registry::instance().counter("scf.iterations");
  Counter& b = Registry::instance().counter("scf.iterations");
  EXPECT_EQ(&a, &b);
  a.add(2.0);
  EXPECT_DOUBLE_EQ(b.value(), 2.0);
}

TEST_F(MetricsTest, CountersAccumulateAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 1000;
  Counter& c = Registry::instance().counter("comm.allreduce.bytes");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  Gauge& g = Registry::instance().gauge("grid.imbalance");
  g.set(1.5);
  g.set(1.2);
  EXPECT_DOUBLE_EQ(g.value(), 1.2);
}

TEST_F(MetricsTest, HistogramTracksSummary) {
  Histogram& h = Registry::instance().histogram("dfpt.sternheimer.residual");
  h.observe(1e-3);
  h.observe(1e-5);
  h.observe(1e-4);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1e-5);
  EXPECT_DOUBLE_EQ(s.max, 1e-3);
  EXPECT_NEAR(s.mean(), (1e-3 + 1e-5 + 1e-4) / 3.0, 1e-18);
}

// --- Histogram quantile / count_below edge-case regressions (the SLO
// monitor and the health validator lean on every one of these). ---

TEST_F(MetricsTest, EmptyHistogramQuantilesAreZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  EXPECT_EQ(h.count_below(1e9), 0u);
}

TEST_F(MetricsTest, SingleSampleIsEveryQuantile) {
  Histogram h;
  h.observe(3.7e-3);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 3.7e-3) << "q = " << q;
  }
  EXPECT_EQ(h.count_below(3.7e-3), 1u);  // x >= max counts everything
  EXPECT_EQ(h.count_below(1e-6), 0u);    // x < min counts nothing
}

TEST_F(MetricsTest, OutOfRangeQGivesExactMinAndMax) {
  Histogram h;
  h.observe(1e-4);
  h.observe(2e-3);
  h.observe(5e-2);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 1e-4);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-4);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5e-2);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 5e-2);
}

TEST_F(MetricsTest, SaturatedTopBucketClampsToMaxNeverInf) {
  Histogram h;
  h.observe(1e9);  // far past the top finite bound: saturation bucket
  h.observe(2e9);
  for (const double q : {0.5, 0.99, 0.999}) {
    const double v = h.quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q = " << q;
    EXPECT_LE(v, 2e9);
    EXPECT_GE(v, 1e9);
  }
  EXPECT_EQ(h.count_below(2e9), 2u);
}

TEST_F(MetricsTest, NonPositiveSamplesLandInBottomBucketAndClamp) {
  Histogram h;
  h.observe(0.0);
  h.observe(-2.5);
  h.observe(1e-9);  // below the bottom bound
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.min, -2.5);
  EXPECT_EQ(s.buckets[0], 3u);
  // Interpolation inside bucket 0 would report a value in (0, 1e-6];
  // the [min, max] clamp keeps the estimate inside the observed range.
  EXPECT_GE(h.quantile(0.5), -2.5);
  EXPECT_LE(h.quantile(0.5), 1e-9);
  EXPECT_EQ(h.count_below(-3.0), 0u);
  EXPECT_EQ(h.count_below(0.5), 3u);
}

TEST_F(MetricsTest, QuantilesAreMonotoneInQ) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(1e-5 * i);  // 10us .. 10ms
  double prev = h.quantile(0.0);
  for (const double q : {0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q = " << q;
    prev = v;
  }
  // The interpolated median lands within bucket resolution (+-20%/bucket)
  // of the true median.
  EXPECT_NEAR(h.quantile(0.5), 5e-3, 2e-3);
}

TEST_F(MetricsTest, BucketUpperBoundsAreInclusive) {
  for (const std::size_t i : {std::size_t{0}, std::size_t{7},
                              std::size_t{31}, Histogram::kBuckets - 2}) {
    const double edge = Histogram::bucket_upper(i);
    EXPECT_EQ(Histogram::bucket_index(edge), i) << "bucket " << i;
    // Just past the edge belongs to the next bucket.
    EXPECT_EQ(Histogram::bucket_index(edge * 1.0001), i + 1)
        << "bucket " << i;
  }
}

TEST_F(MetricsTest, CountBelowInterpolatesWithinOneBucket) {
  Histogram h;
  // 100 samples spread inside one decade; the estimate at the midpoint
  // must be within a bucket's worth of the truth.
  for (int i = 1; i <= 100; ++i) h.observe(1e-3 * i / 100.0);
  const std::uint64_t below = h.count_below(5e-4);
  EXPECT_GE(below, 30u);
  EXPECT_LE(below, 70u);
  EXPECT_EQ(h.count_below(1e-3), 100u);
}

TEST_F(MetricsTest, GatedHelpersRespectEnabledFlag) {
  set_enabled(false);
  count("never.recorded");
  gauge_set("never.recorded.gauge", 1.0);
  observe("never.recorded.histogram", 1.0);
  EXPECT_TRUE(Registry::instance().counter_values().empty());
  EXPECT_TRUE(Registry::instance().gauge_values().empty());
  EXPECT_TRUE(Registry::instance().histogram_values().empty());

  set_enabled(true);
  count("fault.injected");
  count("fault.injected");
  const auto counters = Registry::instance().counter_values();
  ASSERT_EQ(counters.count("fault.injected"), 1u);
  EXPECT_DOUBLE_EQ(counters.at("fault.injected"), 2.0);
}

// The check core reaches the registry through the sinks obs installs at
// static init: a checked run counts its violations whether or not
// tracing is on.
TEST_F(MetricsTest, CheckViolationsCountedWithTracingOff) {
  set_enabled(false);
  const check::ScopedChecking checking;
  check::note("test.sink", "seeded");
  check::note("test.sink", "seeded again");
  const auto counters = Registry::instance().counter_values();
  ASSERT_EQ(counters.count("check.violations"), 1u);
  EXPECT_DOUBLE_EQ(counters.at("check.violations"), 2.0);
}

}  // namespace
}  // namespace swraman::obs
