#include "sunway/check/check.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "common/logging.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace swraman::sunway::check {

namespace detail {
std::atomic<bool> g_check_enabled{false};
}  // namespace detail

namespace {

// Leaked singleton: the atexit summary writer may run after other
// statics are destroyed (same pattern as the obs trace buffer).
struct Tally {
  std::mutex mutex;
  std::map<std::string, std::uint64_t> by_rule;
  std::uint64_t total = 0;
};

Tally& tally() {
  static Tally* t = new Tally;
  return *t;
}

std::atomic<std::int64_t> g_live_tiles{0};
std::atomic<std::int64_t> g_live_transfers{0};

void write_env_summary() {
  const char* path = std::getenv("SWRAMAN_CHECK_FILE");
  const std::string json = summary_json();
  if (path == nullptr || *path == '\0' || std::string(path) == "-") {
    std::cerr << json << "\n";
    return;
  }
  // Appended, not truncated: SWRAMAN_CHECK_FILE is shared with lockcheck
  // as a JSON-lines file, one line per checker; both EnvInits truncate
  // it at static init (idempotent, pre-main) and both exit hooks append.
  std::ofstream out(path, std::ios::app);
  if (!out) {
    log::error("swcheck: cannot open summary file ", path);
    return;
  }
  out << json << "\n";
}

// Reads SWRAMAN_CHECK at static-initialization time so any binary —
// bench, example, test — runs checked without touching its main(); the
// exit hook writes the machine-readable summary.
struct EnvInit {
  EnvInit() {
    tally();  // force construction before any atexit callback may run
    if (env_truthy(std::getenv("SWRAMAN_CHECK"))) {
      set_enabled(true);
      const char* path = std::getenv("SWRAMAN_CHECK_FILE");
      if (path != nullptr && *path != '\0' && std::string(path) != "-") {
        const std::ofstream trunc(path, std::ios::trunc);
      }
      std::atexit(write_env_summary);
    }
  }
};
const EnvInit g_env_init;

}  // namespace

void set_enabled(bool on) {
  detail::g_check_enabled.store(on, std::memory_order_relaxed);
}

namespace {

// Shared recording path of report()/note(): tally, counter, instant, log.
std::string record_violation(const char* rule, const std::string& context) {
  {
    Tally& t = tally();
    const std::scoped_lock lock(t.mutex);
    ++t.by_rule[rule];
    ++t.total;
  }
  // The violations counter bypasses the obs::count() tracing gate: a
  // checked run must tally violations whether or not tracing is on. The
  // instant event stays gated (it is trace data).
  obs::Registry::instance().counter("check.violations").add(1.0);
  obs::instant("check.violation", "rule", std::string(rule));
  const std::string what =
      std::string("swcheck[") + rule + "]: " + context;
  log::error(what);
  return what;
}

}  // namespace

void report(const char* rule, const std::string& context) {
  const std::string what = record_violation(rule, context);
  // A throwing violation is a crash-grade event: dump the flight rings
  // before unwinding so the postmortem shows what led up to it.
  obs::flight::dump("check.violation");
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
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  std::ostringstream os;
  os << "{\"schema\":\"swraman-check-v1\",\"enabled\":"
     << (enabled() ? "true" : "false") << ",\"violations\":" << t.total
     << ",\"rules\":{";
  bool first = true;
  for (const auto& [rule, n] : t.by_rule) {
    if (!first) os << ",";
    first = false;
    os << "\"" << rule << "\":" << n;
  }
  os << "}}";
  return os.str();
}

bool write_summary(const std::string& path) {
  const std::string json = summary_json();
  if (path.empty() || path == "-") {
    std::cerr << json << "\n";
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    log::error("swcheck: cannot open summary file ", path);
    return false;
  }
  out << json << "\n";
  return static_cast<bool>(out);
}

void reset_for_testing() {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  t.by_rule.clear();
  t.total = 0;
}

std::int64_t live_shadow_tiles() {
  return g_live_tiles.load(std::memory_order_relaxed);
}

std::int64_t live_transfers() {
  return g_live_transfers.load(std::memory_order_relaxed);
}

namespace detail {

void tiles_add(std::int64_t n) {
  g_live_tiles.fetch_add(n, std::memory_order_relaxed);
}

void transfers_add(std::int64_t n) {
  g_live_transfers.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace swraman::sunway::check
