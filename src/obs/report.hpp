#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

// Exporters (DESIGN.md S8). Three views of the same span/metric data:
//
//  * Chrome trace_event JSON — load in chrome://tracing or Perfetto; one
//    "X" (complete) event per span, "i" (instant) events for faults and
//    checkpoint writes, args carrying the span attributes.
//  * Flat perf-report JSON ("swraman-perf-v1") — the machine-readable
//    artifact the bench harness tracks across PRs: the aggregated phase
//    tree (count / wall / self time, summed numeric attributes such as
//    modeled CPE cycles and DMA bytes) plus every metric.
//  * Plain-text phase tree — printed through swraman::log for humans.
//
// With SWRAMAN_TRACE=1 in the environment the reports are written at
// process exit to SWRAMAN_TRACE_FILE (default "swraman_trace.json") and
// SWRAMAN_PERF_FILE (default "swraman_perf.json"); set either to "" to
// skip that file.

namespace swraman::obs {

// One aggregated node of the phase tree: all spans sharing a path.
struct PhaseNode {
  std::string path;    // "raman.compute/scf.solve/scf.iter"
  std::string name;    // "scf.iter"
  std::uint32_t depth = 0;
  std::uint64_t count = 0;     // spans aggregated (instants included)
  double wall_s = 0.0;         // summed duration
  // Wall minus the wall of direct children that ran on the same thread.
  // A child on another thread (a task forked under this span) runs
  // alongside it, so it is not subtracted; the nodes below a fork then sum
  // thread-seconds, which can exceed the wall time of their parent.
  double self_s = 0.0;
  std::uint64_t first_start_ns = 0;  // earliest occurrence (tree ordering)
  std::map<std::string, double> attr_sums;  // numeric attrs, summed
};

// Aggregates spans by path into depth-first tree order (children follow
// their parent, siblings ordered by first occurrence).
std::vector<PhaseNode> aggregate_phases(const std::vector<SpanRecord>& spans);

// Chrome trace_event JSON of the raw spans.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans);

// Flat perf report ("swraman-perf-v1"): aggregated phases + all metrics.
// total_wall_s is the process elapsed time (obs::now_ns() at export).
std::string perf_report_json(const std::vector<SpanRecord>& spans,
                             double total_wall_s);

// Human-readable phase tree.
std::string phase_tree_text(const std::vector<PhaseNode>& phases);

// Prints the current phase tree through log::info (one line per node).
void log_phase_tree();

// JSON emission helpers shared by the exporters (perf report, jobtrace,
// flight dumps, health snapshots): escape a string body, format a finite
// number (non-finite values emit 0), and render an attr list as an object.
std::string json_escape(const std::string& s);
std::string json_num(double v);
std::string attrs_json(const std::vector<Attr>& attrs);

// Writes `content` to `path`; false (with a log::warn) on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

// Writes the Chrome trace and perf report to the env-configured paths.
// Registered with atexit when SWRAMAN_TRACE enables tracing; also callable
// directly by drivers that want reports mid-run.
void write_env_reports();

}  // namespace swraman::obs
