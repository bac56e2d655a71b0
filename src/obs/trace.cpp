#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/lockcheck.hpp"
#include "common/logging.hpp"
#include "common/threads.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"

namespace swraman::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

// Completed spans shared by all threads. Leaked singleton: the atexit
// exporter and late-exiting threads may touch it after main returns, so it
// must never be destroyed.
struct GlobalState {
  lockcheck::CheckedMutex mutex{"obs.trace"};
  std::vector<SpanRecord> completed;
  std::uint64_t dropped = 0;
  Timer epoch;  // process trace epoch (monotonic)
};

GlobalState& state() {
  static GlobalState* s = new GlobalState;
  return *s;
}

// Buffer cap: ~4M spans (a full protein-fragment pipeline stays well
// under); beyond it new spans are counted as dropped instead of growing
// without bound.
constexpr std::size_t kMaxSpans = std::size_t{1} << 22;

struct Tls {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> stack;  // active spans, index == depth - base
  // Span the forking thread had open when it started this thread (a
  // threads:: task); spans opened with an empty stack nest under it.
  std::string parent_path;
  std::uint32_t base_depth = 0;  // depth of a span opened on an empty stack
};

Tls& tls() {
  static std::atomic<std::uint32_t> next{0};
  thread_local Tls t = [] {
    Tls fresh;
    fresh.tid = next.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }();
  return t;
}

void commit(SpanRecord&& rec) {
  GlobalState& s = state();
  const lockcheck::CheckedLock lock(s.mutex);
  if (s.completed.size() >= kMaxSpans) {
    ++s.dropped;
    return;
  }
  s.completed.push_back(std::move(rec));
}

SpanRecord make_record(Tls& t, const char* name, bool is_instant) {
  SpanRecord rec;
  rec.name = name;
  if (!t.stack.empty()) {
    rec.path = t.stack.back().path + "/" + rec.name;
  } else if (!t.parent_path.empty()) {
    rec.path = t.parent_path + "/" + rec.name;
  } else {
    rec.path = rec.name;
  }
  rec.depth = t.base_depth + static_cast<std::uint32_t>(t.stack.size());
  rec.tid = t.tid;
  rec.start_ns = now_ns();
  rec.instant = is_instant;
  return rec;
}

// Fork hooks (threads::ForkHooks): the forking thread hands its innermost
// open span path to each new task thread, so the task's spans nest under
// it, as jobtrace's TraceContext carries a parent across the serve tier.
std::string capture_parent() {
  if (!enabled()) return {};
  const Tls& t = tls();
  return t.stack.empty() ? t.parent_path : t.stack.back().path;
}

void adopt_parent(const std::string& path) {
  Tls& t = tls();
  t.parent_path = path;
  t.base_depth =
      1 + static_cast<std::uint32_t>(std::count(path.begin(), path.end(), '/'));
}

// Reads SWRAMAN_TRACE at static-initialization time so any binary —
// bench, example, test — can be traced without touching its main(); the
// registered exit hook writes the configured reports. Installs the fork
// hooks too.
struct EnvInit {
  EnvInit() {
    state();  // force construction before any atexit callback may run
    threads::install_fork_hooks({capture_parent, adopt_parent});
    if (env_truthy(std::getenv("SWRAMAN_TRACE"))) {
      set_enabled(true);
      std::atexit(write_env_reports);
    }
  }
};
const EnvInit g_env_init;

}  // namespace

void set_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() { return state().epoch.nanoseconds(); }

std::uint32_t thread_id() { return tls().tid; }

ScopedSpan::ScopedSpan(const char* name) {
  if (!enabled()) return;
  Tls& t = tls();
  index_ = t.stack.size();
  t.stack.push_back(make_record(t, name, false));
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tls& t = tls();
  if (index_ >= t.stack.size()) return;  // defensive: stack was reset
  SpanRecord rec = std::move(t.stack[index_]);
  // RAII scopes unwind LIFO; anything still above this span is a leaked
  // child whose scope outlived its parent — drop it rather than corrupt
  // the stack.
  t.stack.resize(index_);
  rec.dur_ns = now_ns() - rec.start_ns;
  commit(std::move(rec));
}

void ScopedSpan::attr(const char* key, double value) {
  if (!active_) return;
  Tls& t = tls();
  if (index_ >= t.stack.size()) return;
  t.stack[index_].attrs.push_back(Attr{key, true, value, {}});
}

void ScopedSpan::attr(const char* key, const char* value) {
  attr(key, std::string(value));
}

void ScopedSpan::attr(const char* key, const std::string& value) {
  if (!active_) return;
  Tls& t = tls();
  if (index_ >= t.stack.size()) return;
  t.stack[index_].attrs.push_back(Attr{key, false, 0.0, value});
}

void instant(const char* name) {
  // Instants are the flight recorder's bread and butter: faults, recovery
  // decisions, kills. Feed the ring even when span tracing is off.
  flight::record(name);
  if (!enabled()) return;
  commit(make_record(tls(), name, true));
}

void instant(const char* name, const char* key, double value) {
  flight::record(name, value);
  if (!enabled()) return;
  SpanRecord rec = make_record(tls(), name, true);
  rec.attrs.push_back(Attr{key, true, value, {}});
  commit(std::move(rec));
}

void instant(const char* name, const char* key, const std::string& value) {
  flight::record(name);
  if (!enabled()) return;
  SpanRecord rec = make_record(tls(), name, true);
  rec.attrs.push_back(Attr{key, false, 0.0, value});
  commit(std::move(rec));
}

std::vector<SpanRecord> snapshot() {
  GlobalState& s = state();
  std::vector<SpanRecord> out;
  {
    const lockcheck::CheckedLock lock(s.mutex);
    out = s.completed;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.tid < b.tid;
            });
  return out;
}

std::uint64_t dropped() {
  GlobalState& s = state();
  const lockcheck::CheckedLock lock(s.mutex);
  return s.dropped;
}

void reset_for_testing() {
  GlobalState& s = state();
  const lockcheck::CheckedLock lock(s.mutex);
  s.completed.clear();
  s.dropped = 0;
  s.epoch.reset();
}

}  // namespace swraman::obs
