#include "common/check.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "common/lockcheck.hpp"
#include "common/logging.hpp"

namespace swraman::check {

namespace detail {
std::atomic<bool> g_enabled{false};

int& reentry_depth() {
  thread_local int depth = 0;
  return depth;
}
}  // namespace detail

namespace {

// Leaked singleton: the atexit summary writer may run after other
// statics are destroyed (same pattern as the obs trace buffer). Guarded
// by a plain std::mutex — the checker is the sanctioned home for one
// (lint rule 6); instrumenting it would recurse.
struct Tally {
  std::mutex mutex;
  std::map<std::string, std::uint64_t> by_rule;
  std::uint64_t total = 0;
  ObsSinks sinks;
};

Tally& tally() {
  static Tally* t = new Tally;
  return *t;
}

// Shared recording path of report()/note(): tally, obs sinks, log. The
// Reentry guard covers the sinks — they take checked locks.
std::string record_violation(const char* rule, const std::string& context) {
  const detail::Reentry guard;
  Tally& t = tally();
  {
    const std::scoped_lock lock(t.mutex);
    ++t.by_rule[rule];
    ++t.total;
  }
  const std::string what = std::string("check[") + rule + "]: " + context;
  // Sinks are installed once from a static registrar before main; the
  // unlocked read is benign.
  if (t.sinks.violation != nullptr) t.sinks.violation(rule, what);
  log::error(what);
  return what;
}

bool to_stderr(const char* path) {
  return path == nullptr || *path == '\0' || std::string(path) == "-";
}

void write_env_summary() {
  const char* path = std::getenv("SWRAMAN_CHECK_FILE");
  const std::string json = summary_json();
  if (to_stderr(path)) {
    std::cerr << json << "\n";
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    log::error("check: cannot open summary file ", path);
    return;
  }
  out << json << "\n";
}

// Reads SWRAMAN_CHECK at static-initialization time so any binary —
// bench, example, test — runs checked without touching its main(). The
// summary file is truncated up front so a run that dies before exit
// never leaves a previous run's summary behind.
struct EnvInit {
  EnvInit() {
    tally();  // force construction before any atexit callback may run
    if (env_truthy(std::getenv("SWRAMAN_CHECK"))) {
      set_enabled(true);
      const char* path = std::getenv("SWRAMAN_CHECK_FILE");
      if (!to_stderr(path)) {
        const std::ofstream trunc(path, std::ios::trunc);
      }
      std::atexit(write_env_summary);
    }
  }
};
const EnvInit g_env_init;

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void report(const char* rule, const std::string& context) {
  const std::string what = record_violation(rule, context);
  {
    // A throwing violation is crash-grade: dump the flight rings before
    // unwinding so the postmortem shows what led up to it.
    const detail::Reentry guard;
    const Tally& t = tally();
    if (t.sinks.flight_dump != nullptr) t.sinks.flight_dump("check.violation");
  }
  throw CheckViolation(rule, what);
}

void note(const char* rule, const std::string& context) {
  record_violation(rule, context);
}

std::map<std::string, std::uint64_t> violation_counts() {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  return t.by_rule;
}

std::uint64_t total_violations() {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  return t.total;
}

std::string summary_json() {
  const std::vector<lockcheck::SiteInfo> sites = lockcheck::sites();
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  std::ostringstream os;
  os << "{\"schema\":\"swraman-check-v2\",\"enabled\":"
     << (enabled() ? "true" : "false") << ",\"violations\":" << t.total
     << ",\"rules\":{";
  bool first = true;
  for (const auto& [rule, n] : t.by_rule) {
    if (!first) os << ",";
    first = false;
    os << "\"" << rule << "\":" << n;
  }
  os << "},\"sites\":[";
  first = true;
  for (const lockcheck::SiteInfo& si : sites) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << si.id << ",\"name\":\"" << si.name
       << "\",\"file\":\"" << si.file << "\",\"line\":" << si.line << "}";
  }
  os << "]}";
  return os.str();
}

void reset_for_testing() {
  {
    Tally& t = tally();
    const std::scoped_lock lock(t.mutex);
    t.by_rule.clear();
    t.total = 0;
  }
  lockcheck::detail::reset_graph();
}

void detail::restore_tally(
    const std::map<std::string, std::uint64_t>& by_rule) {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  t.by_rule = by_rule;
  t.total = 0;
  for (const auto& [rule, n] : by_rule) t.total += n;
}

void install_obs_sinks(const ObsSinks& sinks) {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  t.sinks = sinks;
}

std::string trim_path(const std::string& file) {
  for (const char* anchor : {"/src/", "/tests/", "/bench/", "/examples/"}) {
    const std::size_t pos = file.rfind(anchor);
    if (pos != std::string::npos) return file.substr(pos + 1);
  }
  return file;
}

std::string loc_str(const std::source_location& loc) {
  return trim_path(loc.file_name()) + ":" + std::to_string(loc.line());
}

}  // namespace swraman::check
