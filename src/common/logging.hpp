#pragma once

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>

// Minimal leveled logger. Benchmarks and examples print through this so that
// output stays uniform; tests set the level to Error to keep output clean.
//
// Two optional prefixes help attribute interleaved multi-rank output:
// ISO-8601 UTC timestamps (set_timestamps) and a rank/thread tag
// (set_rank). Both are off by default, in which case lines keep the
// original "[level] message" format byte-for-byte.
//
// SWRAMAN_LOG=debug|info|warn|error|off pins the level for the whole
// process, overriding set_level() calls (binaries default to warn);
// SWRAMAN_LOG_TIMESTAMPS=1 enables the timestamp prefix from the
// environment.

namespace swraman::log {

enum class Level { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

Level level();
void set_level(Level level);

// ISO-8601 UTC timestamp prefix, e.g. "[2026-08-07T12:34:56.789Z]".
void set_timestamps(bool on);
bool timestamps();

// Rank/thread prefix "[rR/tT]": R is the rank set here, T a small stable
// per-thread index. A negative rank disables the prefix (the default).
void set_rank(int rank);
int rank();

// Thread-context prefix "[s0/w1/g17]": a free-form per-thread tag naming
// the shard / worker / job a line belongs to, so interleaved chaos-run
// logs are grep-able per job. Empty (the default) disables the prefix.
void set_thread_context(const std::string& ctx);
const std::string& thread_context();

// RAII: swaps the calling thread's context in, restores the previous one
// on destruction. Workers push "s<shard>/w<worker>" for their lifetime
// and nest "/g<gid>" around each task they execute.
class ScopedContext {
 public:
  explicit ScopedContext(const std::string& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  std::string saved_;
};

// Current UTC wall time formatted as ISO-8601 with millisecond precision
// ("2026-08-07T12:34:56.789Z"). Exposed for tests and exporters.
std::string timestamp_utc_now();

void write(Level level, const std::string& message);

template <typename... Args>
void emit(Level lvl, Args&&... args) {
  if (lvl < level()) return;
  std::ostringstream os;
  (os << ... << args);
  write(lvl, os.str());
}

template <typename... Args>
void debug(Args&&... args) {
  emit(Level::Debug, std::forward<Args>(args)...);
}
template <typename... Args>
void info(Args&&... args) {
  emit(Level::Info, std::forward<Args>(args)...);
}
template <typename... Args>
void warn(Args&&... args) {
  emit(Level::Warn, std::forward<Args>(args)...);
}
template <typename... Args>
void error(Args&&... args) {
  emit(Level::Error, std::forward<Args>(args)...);
}

}  // namespace swraman::log

namespace swraman {

// Environment switch test shared by every SWRAMAN_* on/off variable:
// unset, "", "0", "off", "OFF", "false" and "no" are false, anything
// else is true.
bool env_truthy(const char* v);

// Wall-clock stopwatch on the monotonic clock.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  // Integer nanoseconds since construction/reset: the cheap accessor hot
  // loops and the tracer use (no floating-point duration conversion).
  [[nodiscard]] std::uint64_t nanoseconds() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }
  [[nodiscard]] double seconds() const {
    return 1e-9 * static_cast<double>(nanoseconds());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace swraman
