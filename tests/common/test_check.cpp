#include <gtest/gtest.h>

#include <source_location>
#include <string>

#include "common/check.hpp"
#include "common/error.hpp"

// The checker core shared by swcheck, lockcheck and commcheck
// (DESIGN.md §14): one enable gate, one tally, report()/note() and the
// repo-relative provenance strings every checker's reports carry.

namespace swraman {
namespace {

using check::ScopedChecking;

TEST(CheckCore, NoteTalliesWithoutThrowing) {
  const ScopedChecking checking;
  EXPECT_NO_THROW(check::note("test.noted", "seeded note"));
  EXPECT_NO_THROW(check::note("test.noted", "seeded note again"));
  EXPECT_EQ(check::violation_counts()["test.noted"], 2u);
  EXPECT_EQ(check::total_violations(), 2u);
}

TEST(CheckCore, ReportTalliesThenThrowsWithRuleAndContext) {
  const ScopedChecking checking;
  try {
    check::report("test.reported", "seeded at tile 3");
    FAIL() << "report() returned";
  } catch (const CheckViolation& v) {
    EXPECT_EQ(v.rule(), "test.reported");
    const std::string what = v.what();
    EXPECT_NE(what.find("check[test.reported]"), std::string::npos) << what;
    EXPECT_NE(what.find("seeded at tile 3"), std::string::npos) << what;
  }
  // Recorded before the throw.
  EXPECT_EQ(check::violation_counts()["test.reported"], 1u);
  EXPECT_EQ(check::total_violations(), 1u);
}

TEST(CheckCore, ScopedCheckingRestoresGateAndClearsTally) {
  const ScopedChecking outer(false);
  EXPECT_FALSE(check::enabled());
  {
    const ScopedChecking inner;
    EXPECT_TRUE(check::enabled());
    check::note("test.scoped", "left behind by the inner scope");
    EXPECT_EQ(check::total_violations(), 1u);
  }
  EXPECT_FALSE(check::enabled());
  EXPECT_EQ(check::total_violations(), 0u);
  EXPECT_TRUE(check::violation_counts().empty());
}

TEST(CheckCore, ViolationRaisedBeforeAScopeSurvivesIt) {
  // A checked run's exit summary must still see a violation raised
  // before a later case opens and closes its own scope.
  const ScopedChecking outer;
  check::note("test.planted", "raised before the inner scope");
  {
    const ScopedChecking inner;
    EXPECT_EQ(check::total_violations(), 0u);  // the case sees only its own
    check::note("test.inner", "scope-local");
  }
  EXPECT_EQ(check::total_violations(), 1u);
  const auto counts = check::violation_counts();
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.count("test.planted"), 1u);
  EXPECT_NE(check::summary_json().find("\"test.planted\":1"),
            std::string::npos);
}

TEST(CheckCore, LocationsAreRepoRelative) {
  EXPECT_EQ(check::trim_path("/home/u/swraman/src/serve/service.hpp"),
            "src/serve/service.hpp");
  EXPECT_EQ(check::trim_path("/b/repo/tests/common/x.cpp"),
            "tests/common/x.cpp");
  EXPECT_EQ(check::trim_path("/b/repo/bench/fig15.cpp"), "bench/fig15.cpp");
  EXPECT_EQ(check::trim_path("generated.cpp"), "generated.cpp");

  const std::source_location here = std::source_location::current();
  const std::string loc = check::loc_str(here);
  EXPECT_EQ(loc, check::trim_path(here.file_name()) + ":" +
                     std::to_string(here.line()));
  const std::string tail =
      "common/test_check.cpp:" + std::to_string(here.line());
  ASSERT_GE(loc.size(), tail.size()) << loc;
  EXPECT_EQ(loc.substr(loc.size() - tail.size()), tail) << loc;
  EXPECT_NE(loc.front(), '/') << loc;
}

}  // namespace
}  // namespace swraman
