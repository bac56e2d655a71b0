#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <source_location>
#include <string>

#include "common/error.hpp"

// Checker core (DESIGN.md §9, §14) — the one enable gate, violation
// tally, reporting path and exit summary behind the three checkers:
//
//   swcheck   (src/sunway/check)      LDM tiles, DMA transfers, RMA mesh
//   lockcheck (src/common/lockcheck)  host lock order, blocking, guards
//   commcheck (src/parallel/commcheck) p2p mailboxes, recv wait graph
//
// Each checker keeps its own shadow state and calls report()/note()
// here with its rule name; the rule prefix (ldm./dma./rma./lock./p2p./
// coll.) says which checker fired.
//
// Enabling: SWRAMAN_CHECK=1 in the environment (read at static init,
// like SWRAMAN_TRACE), or set_enabled(true) / ScopedChecking in tests.
// Disabled cost is a single relaxed atomic load per call site — no
// shadow state is allocated and no branch beyond the gate runs.
//
// Every violation is (a) tallied by rule name, (b) surfaced through the
// obs layer when it is linked (the check.violations counter, a
// check.violation instant and, for throwing reports, a flight-recorder
// dump — installed via install_obs_sinks from an obs TU so this header
// stays at the bottom of the library stack), and (c) thrown as
// CheckViolation or, via note(), only recorded. When checking was
// enabled from the environment, an exit hook writes one
// swraman-check-v2 document to SWRAMAN_CHECK_FILE (default stderr).

namespace swraman::check {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

// Hot-path gate: one relaxed load (CheckedMutex reads it on every lock,
// the CPE model on every DMA call).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

// Records the violation (tally + obs sinks + log), dumps the flight
// recorder and throws CheckViolation. `context` should already carry the
// provenance (kernel / CPE / tile, or file:line sites).
[[noreturn]] void report(const char* rule, const std::string& context);

// Same recording as report() but does not throw — for violations
// detected on paths that must not unwind (destructors, communication
// threads).
void note(const char* rule, const std::string& context);

// Process-wide tally of reported violations by rule (includes thrown
// ones — recording happens before the throw).
[[nodiscard]] std::map<std::string, std::uint64_t> violation_counts();
[[nodiscard]] std::uint64_t total_violations();

// swraman-check-v2 JSON: enabled flag, total, tally by rule and the
// lockcheck lock-class site table. A disabled run serializes an empty
// report.
[[nodiscard]] std::string summary_json();

// Clears the tally, the lock-order graph and the calling thread's
// held-lock set (tests). Lock-class ids stay stable.
void reset_for_testing();

// Obs-layer hooks. The core lives in swraman_common, below the obs
// library; binaries that link obs install these from a static registrar
// (src/obs/metrics.cpp) so violations still bump check.violations and
// dump the flight recorder without a layering inversion. Either pointer
// may be null.
struct ObsSinks {
  void (*violation)(const char* rule, const std::string& what) = nullptr;
  void (*flight_dump)(const char* reason) = nullptr;
};
void install_obs_sinks(const ObsSinks& sinks);

// Repo-relative "src/serve/service.hpp:207" form of a source location
// (compiler paths are absolute); trim_path keeps the tail from the
// last src/, tests/, bench/ or examples/ anchor.
[[nodiscard]] std::string trim_path(const std::string& file);
[[nodiscard]] std::string loc_str(const std::source_location& loc);

namespace detail {
// Depth of checker-internal work on this thread. Reporting bumps obs
// counters and dumps the flight recorder, both of which take
// CheckedMutexes; lockcheck skips its instrumentation while the depth is
// nonzero, so the checker can never deadlock or recurse through itself.
int& reentry_depth();

struct Reentry {
  Reentry() { ++reentry_depth(); }
  ~Reentry() { --reentry_depth(); }
  Reentry(const Reentry&) = delete;
  Reentry& operator=(const Reentry&) = delete;
};
}  // namespace detail

namespace detail {
// Replaces the tally with `by_rule` (its total is their sum).
void restore_tally(const std::map<std::string, std::uint64_t>& by_rule);
}  // namespace detail

// RAII enable/disable for tests. Clears tally + lock graph on entry, so a
// case sees only its own violations; on exit restores the previous gate
// and the tally from before entry, so violations never leak out of a case
// and one raised before the scope still reaches a binary's exit summary.
class ScopedChecking {
 public:
  explicit ScopedChecking(bool on = true)
      : prev_(enabled()), outer_(violation_counts()) {
    reset_for_testing();
    set_enabled(on);
  }
  ScopedChecking(const ScopedChecking&) = delete;
  ScopedChecking& operator=(const ScopedChecking&) = delete;
  ~ScopedChecking() {
    set_enabled(prev_);
    reset_for_testing();
    detail::restore_tally(outer_);
  }

 private:
  bool prev_;
  std::map<std::string, std::uint64_t> outer_;
};

}  // namespace swraman::check
