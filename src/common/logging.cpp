#include "common/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <mutex>

namespace swraman::log {

namespace {
std::atomic<Level> g_level{Level::Info};
std::atomic<bool> g_timestamps{false};
std::atomic<int> g_rank{-1};
std::mutex g_mutex;

const char* prefix(Level lvl) {
  switch (lvl) {
    case Level::Debug:
      return "[debug] ";
    case Level::Info:
      return "[info ] ";
    case Level::Warn:
      return "[warn ] ";
    case Level::Error:
      return "[error] ";
    default:
      return "";
  }
}

// Small stable per-thread index for the rank/thread prefix.
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-thread context tag; function-local so first use from any thread
// (including atexit-era logging) constructs it safely.
std::string& thread_context_slot() {
  thread_local std::string ctx;
  return ctx;
}

bool parse_level(const char* s, Level& out) {
  if (std::strcmp(s, "debug") == 0) return out = Level::Debug, true;
  if (std::strcmp(s, "info") == 0) return out = Level::Info, true;
  if (std::strcmp(s, "warn") == 0) return out = Level::Warn, true;
  if (std::strcmp(s, "error") == 0) return out = Level::Error, true;
  if (std::strcmp(s, "off") == 0) return out = Level::Off, true;
  return false;
}

// SWRAMAN_LOG=debug|info|warn|error|off pins the level for the process
// lifetime, winning over set_level() calls in main() — so a traced run's
// phase tree can be surfaced from any binary without a rebuild.
// SWRAMAN_LOG_TIMESTAMPS=1 turns on the ISO-8601 prefix the same way.
struct EnvOverride {
  bool forced = false;
  Level value = Level::Info;
  EnvOverride() {
    if (const char* v = std::getenv("SWRAMAN_LOG")) {
      forced = parse_level(v, value);
      if (!forced) {
        std::fprintf(stderr, "[warn ] SWRAMAN_LOG=%s not recognised "
                             "(want debug|info|warn|error|off)\n", v);
      }
    }
    if (const char* v = std::getenv("SWRAMAN_LOG_TIMESTAMPS")) {
      if (v[0] != '\0' && std::strcmp(v, "0") != 0) {
        g_timestamps.store(true, std::memory_order_relaxed);
      }
    }
  }
};
const EnvOverride g_env;
}  // namespace

Level level() {
  if (g_env.forced) return g_env.value;
  return g_level.load(std::memory_order_relaxed);
}

void set_level(Level lvl) { g_level.store(lvl, std::memory_order_relaxed); }

void set_timestamps(bool on) {
  g_timestamps.store(on, std::memory_order_relaxed);
}

bool timestamps() { return g_timestamps.load(std::memory_order_relaxed); }

void set_rank(int rank) { g_rank.store(rank, std::memory_order_relaxed); }

int rank() { return g_rank.load(std::memory_order_relaxed); }

void set_thread_context(const std::string& ctx) {
  thread_context_slot() = ctx;
}

const std::string& thread_context() { return thread_context_slot(); }

ScopedContext::ScopedContext(const std::string& ctx)
    : saved_(thread_context_slot()) {
  thread_context_slot() = ctx;
}

ScopedContext::~ScopedContext() { thread_context_slot() = saved_; }

std::string timestamp_utc_now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

void write(Level lvl, const std::string& message) {
  std::string head;
  if (timestamps()) {
    head += '[';
    head += timestamp_utc_now();
    head += "] ";
  }
  const int r = rank();
  if (r >= 0) {
    head += "[r" + std::to_string(r) + "/t" +
            std::to_string(thread_index()) + "] ";
  }
  const std::string& ctx = thread_context_slot();
  if (!ctx.empty()) {
    head += '[';
    head += ctx;
    head += "] ";
  }
  const std::scoped_lock lock(g_mutex);
  std::ostream& os = (lvl >= Level::Warn) ? std::cerr : std::cout;
  os << prefix(lvl) << head << message << '\n';
}

}  // namespace swraman::log

namespace swraman {

bool env_truthy(const char* v) {
  if (v == nullptr || *v == '\0') return false;
  const std::string s(v);
  return s != "0" && s != "off" && s != "false" && s != "OFF" && s != "no";
}

}  // namespace swraman
