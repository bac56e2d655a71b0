#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace swraman::obs {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_for_testing();
    Registry::instance().reset_for_testing();
  }
  void TearDown() override {
    set_enabled(false);
    reset_for_testing();
    Registry::instance().reset_for_testing();
  }

  // A small pipeline-shaped trace: two scf.iter under scf.solve, one of
  // them carrying a numeric attribute.
  void record_sample() {
    SWRAMAN_TRACE_SPAN(solve, "scf.solve");
    {
      SWRAMAN_TRACE_SPAN(iter, "scf.iter");
      iter.attr("flops", 100.0);
    }
    {
      SWRAMAN_TRACE_SPAN(iter, "scf.iter");
      iter.attr("flops", 50.0);
    }
  }
};

TEST_F(ReportTest, AggregationMergesSpansByPath) {
  record_sample();
  const std::vector<PhaseNode> phases = aggregate_phases(snapshot());
  ASSERT_EQ(phases.size(), 2u);
  // DFS order: parent first, then its children.
  EXPECT_EQ(phases[0].path, "scf.solve");
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_EQ(phases[1].path, "scf.solve/scf.iter");
  EXPECT_EQ(phases[1].count, 2u);
  EXPECT_DOUBLE_EQ(phases[1].attr_sums.at("flops"), 150.0);
}

TEST_F(ReportTest, SelfTimeExcludesChildren) {
  record_sample();
  const std::vector<PhaseNode> phases = aggregate_phases(snapshot());
  const PhaseNode& solve = phases[0];
  const PhaseNode& iter = phases[1];
  EXPECT_LE(solve.self_s, solve.wall_s);
  EXPECT_NEAR(solve.self_s, solve.wall_s - iter.wall_s, 1e-12);
  EXPECT_DOUBLE_EQ(iter.self_s, iter.wall_s);  // leaf: self == wall
}

TEST_F(ReportTest, SelfTimeSubtractsOnlyChildrenOnTheParentsThread) {
  // A parent on thread 0 forks: one child ran on its own thread (nested
  // in its time), two ran on task threads 1 and 2 alongside it.
  const auto span = [](const char* name, const char* path, std::uint32_t tid,
                       std::uint64_t start_ms, std::uint64_t dur_ms) {
    SpanRecord s;
    s.name = name;
    s.path = path;
    s.tid = tid;
    s.start_ns = start_ms * 1000000;
    s.dur_ns = dur_ms * 1000000;
    return s;
  };
  const std::vector<SpanRecord> spans = {
      span("p", "p", 0, 0, 10),      span("c", "p/c", 0, 1, 3),
      span("c", "p/c", 1, 1, 8),     span("d", "p/d", 2, 1, 9),
      span("e", "p/d/e", 2, 2, 4),
  };
  const std::vector<PhaseNode> phases = aggregate_phases(spans);
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_EQ(phases[0].path, "p");
  EXPECT_NEAR(phases[0].self_s, 0.007, 1e-12);  // 10 - 3 on thread 0
  EXPECT_EQ(phases[1].path, "p/c");
  EXPECT_NEAR(phases[1].wall_s, 0.011, 1e-12);  // thread-seconds
  EXPECT_NEAR(phases[1].self_s, 0.011, 1e-12);
  EXPECT_EQ(phases[2].path, "p/d");
  EXPECT_NEAR(phases[2].self_s, 0.005, 1e-12);  // its own child, thread 2
}

TEST_F(ReportTest, ChromeTraceJsonSchema) {
  record_sample();
  instant("fault.injected", "site", std::string("scf.diverge"));
  const std::string json = chrome_trace_json(snapshot());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scf.solve\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the instant
  EXPECT_NE(json.find("\"args\":{\"flops\":100"), std::string::npos);
  EXPECT_NE(json.find("\"site\":\"scf.diverge\""), std::string::npos);
  // Every event needs ts/pid/tid for the viewer to accept the file.
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST_F(ReportTest, PerfReportJsonSchema) {
  record_sample();
  count("scf.iterations", 2.0);
  gauge_set("grid.imbalance", 1.1);
  observe("dfpt.sternheimer.residual", 1e-4);
  const std::string json = perf_report_json(snapshot(), 1.5);
  EXPECT_NE(json.find("\"schema\": \"swraman-perf-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"total_wall_s\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"phases\": ["), std::string::npos);
  EXPECT_NE(json.find("\"path\": \"scf.solve/scf.iter\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"flops\": 150"), std::string::npos);
  EXPECT_NE(json.find("\"scf.iterations\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"grid.imbalance\": 1.1"), std::string::npos);
  EXPECT_NE(json.find("\"dfpt.sternheimer.residual\": {\"count\": 1"),
            std::string::npos);
}

TEST_F(ReportTest, JsonStringsAreEscaped) {
  {
    SWRAMAN_TRACE_SPAN(span, "weird");
    span.attr("note", "a\"b\\c\nd");
  }
  const std::string json = chrome_trace_json(snapshot());
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST_F(ReportTest, PhaseTreeTextIndentsByDepth) {
  record_sample();
  const std::string text = phase_tree_text(aggregate_phases(snapshot()));
  EXPECT_NE(text.find("scf.solve"), std::string::npos);
  EXPECT_NE(text.find("\n  scf.iter"), std::string::npos);  // depth-1 indent
  EXPECT_NE(text.find("wall (s)"), std::string::npos);
}

TEST_F(ReportTest, RootsWithoutRecordedParentKeepTheirOrder) {
  { SWRAMAN_TRACE_SCOPE("relax"); }
  { SWRAMAN_TRACE_SCOPE("scf.solve"); }
  { SWRAMAN_TRACE_SCOPE("dfpt.response"); }
  const std::vector<PhaseNode> phases = aggregate_phases(snapshot());
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].path, "relax");
  EXPECT_EQ(phases[1].path, "scf.solve");
  EXPECT_EQ(phases[2].path, "dfpt.response");
}

}  // namespace
}  // namespace swraman::obs
