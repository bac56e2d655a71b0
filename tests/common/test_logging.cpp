#include "common/logging.hpp"

#include <thread>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace swraman {
namespace {

TEST(Log, LevelRoundTrip) {
  const log::Level saved = log::level();
  log::set_level(log::Level::Debug);
  EXPECT_EQ(log::level(), log::Level::Debug);
  log::set_level(log::Level::Off);
  EXPECT_EQ(log::level(), log::Level::Off);
  log::set_level(saved);
}

TEST(Log, SuppressedBelowLevel) {
  const log::Level saved = log::level();
  log::set_level(log::Level::Off);
  // Must be a no-op (nothing to assert on stdout here, but it must not
  // crash and must not evaluate into the stream when suppressed).
  log::info("this should be invisible ", 42);
  log::debug("also invisible");
  log::set_level(saved);
}

TEST(Log, TimestampFormatIsIso8601Utc) {
  const std::string ts = log::timestamp_utc_now();
  // 2026-08-07T12:34:56.789Z — fixed-width, millisecond precision.
  ASSERT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], '.');
  EXPECT_EQ(ts.back(), 'Z');
  for (const std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u}) {
    EXPECT_TRUE(ts[i] >= '0' && ts[i] <= '9') << "position " << i;
  }
}

TEST(Log, TimestampToggleRoundTrip) {
  const bool saved = log::timestamps();
  log::set_timestamps(true);
  EXPECT_TRUE(log::timestamps());
  log::set_timestamps(false);
  EXPECT_FALSE(log::timestamps());
  log::set_timestamps(saved);
}

TEST(Log, RankPrefixRoundTrip) {
  const int saved = log::rank();
  EXPECT_LT(saved, 0);  // default: no rank prefix
  log::set_rank(3);
  EXPECT_EQ(log::rank(), 3);
  log::info("rank-prefixed line");  // must not crash with the prefix on
  log::set_rank(saved);
}

TEST(Timer, NanosecondsIsMonotonic) {
  Timer t;
  const std::uint64_t a = t.nanoseconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t b = t.nanoseconds();
  EXPECT_GE(b, a + 1000000u);  // at least 1 ms advanced
  EXPECT_NEAR(t.seconds(), 1e-9 * static_cast<double>(t.nanoseconds()),
              1e-3);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(EnvTruthy, UnsetEmptyAndOffSpellingsAreFalse) {
  EXPECT_FALSE(env_truthy(nullptr));
  for (const char* v : {"", "0", "off", "OFF", "false", "no"}) {
    EXPECT_FALSE(env_truthy(v)) << '"' << v << '"';
  }
}

TEST(EnvTruthy, AnyOtherValueIsTrue) {
  // Only the exact spellings above switch a variable off; everything
  // else, including other casings, turns it on.
  for (const char* v : {"1", "on", "true", "yes", "ON", "False", "NO",
                        "Off", " 0", "00"}) {
    EXPECT_TRUE(env_truthy(v)) << '"' << v << '"';
  }
}

TEST(ErrorMacros, RequireThrowsWithContext) {
  try {
    SWRAMAN_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("test_logging.cpp"), std::string::npos);
  }
}

TEST(ErrorMacros, RequirePassesSilently) {
  EXPECT_NO_THROW(SWRAMAN_REQUIRE(2 + 2 == 4, "math works"));
}

}  // namespace
}  // namespace swraman
