#include "common/lockcheck.hpp"

#include <map>
#include <mutex>
#include <sstream>

namespace swraman::lockcheck {

namespace {

using check::detail::Reentry;
using check::detail::reentry_depth;
using check::loc_str;
using check::trim_path;

// One entry per checked lock the calling thread currently holds. The
// raw pointer is only ever *compared* (release matching, condvar
// exemption), never dereferenced — a stale entry left by an
// enable-toggle mid-hold cannot dangle into freed memory.
struct HeldLock {
  const CheckedMutex* mutex = nullptr;
  std::uint32_t cls = 0;
  bool allows_blocking = false;
  const char* name = "";
  const char* file = "";  // acquisition site, not construction site
  std::uint32_t line = 0;
};

thread_local std::vector<HeldLock> t_held;

// Provenance of the first observation of an order edge A -> B: where A
// was held and where B was acquired. This is what makes a cycle report
// actionable long after the first-direction acquisition happened.
struct EdgeProv {
  std::string held_at;
  std::string acq_at;
};

// Leaked singleton: the check core's atexit summary writer reads the
// site table after other statics may be destroyed. Internal state is
// guarded by a plain std::mutex — the checker is the sanctioned home
// for one (lint rule 6); instrumenting it would recurse.
struct State {
  std::mutex mutex;
  std::map<std::string, std::uint32_t> site_ids;  // "file:line" -> id
  std::vector<SiteInfo> site_infos;
  // Acquisition-order graph over lock-class ids: edges[a][b] exists
  // when some thread acquired class b while holding class a.
  std::map<std::uint32_t, std::map<std::uint32_t, EdgeProv>> edges;
};

State& state() {
  static State* s = new State;
  return *s;
}

std::string site_str(const char* name, const char* file, std::uint32_t line) {
  std::ostringstream os;
  os << "\"" << name << "\" (" << trim_path(file) << ":" << line << ")";
  return os.str();
}

std::string held_str(const HeldLock& h) {
  std::ostringstream os;
  os << site_str(h.name, h.file, h.line) << " class ";
  {
    State& s = state();
    const std::scoped_lock lock(s.mutex);
    if (h.cls >= 1 && h.cls <= s.site_infos.size()) {
      const SiteInfo& si = s.site_infos[h.cls - 1];
      os << si.name << "@" << si.file << ":" << si.line;
    } else {
      os << h.cls;
    }
  }
  return os.str();
}

// DFS over the order graph: is `to` reachable from `from`? On success
// fills `path` with the class chain from -> ... -> to. Called with
// state().mutex held.
bool reachable(const State& s, std::uint32_t from, std::uint32_t to,
               std::vector<std::uint32_t>* path) {
  if (from == to) {
    path->push_back(from);
    return true;
  }
  const auto row = s.edges.find(from);
  if (row == s.edges.end()) return false;
  path->push_back(from);
  for (const auto& [next, prov] : row->second) {
    // The graph is small (dozens of classes); plain DFS with the path
    // itself as the visited set is fine and keeps the chain exact.
    bool on_path = false;
    for (const std::uint32_t c : *path) {
      if (c == next) {
        on_path = true;
        break;
      }
    }
    if (on_path) continue;
    if (reachable(s, next, to, path)) return true;
  }
  path->pop_back();
  return false;
}

std::string class_name(const State& s, std::uint32_t cls) {
  if (cls >= 1 && cls <= s.site_infos.size()) {
    const SiteInfo& si = s.site_infos[cls - 1];
    return "\"" + si.name + "\" (" + si.file + ":" +
           std::to_string(si.line) + ")";
  }
  return "class#" + std::to_string(cls);
}

}  // namespace

std::vector<SiteInfo> sites() {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  return s.site_infos;
}

bool is_held(const CheckedMutex* m) {
  for (const HeldLock& h : t_held) {
    if (h.mutex == m) return true;
  }
  return false;
}

namespace detail {

void reset_graph() {
  {
    State& s = state();
    const std::scoped_lock lock(s.mutex);
    s.edges.clear();
  }
  t_held.clear();
}

std::uint32_t register_site(const char* name, const char* file,
                            std::uint32_t line) {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  // The class key includes the name: default member initializers all
  // evaluate their source_location at the owning constructor, so two
  // member mutexes of one class share file:line and only the name
  // separates them.
  std::string key =
      std::string(name) + "@" + file + ":" + std::to_string(line);
  const auto it = s.site_ids.find(key);
  if (it != s.site_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(s.site_infos.size() + 1);
  s.site_ids.emplace(std::move(key), id);
  s.site_infos.push_back({id, name, trim_path(file), line});
  return id;
}

void before_acquire(CheckedMutex* m, const std::source_location& acq) {
  if (reentry_depth() > 0) return;
  const Reentry guard;
  const std::uint32_t cls = m->site_id();
  std::string violation;
  {
    State& s = state();
    const std::scoped_lock lock(s.mutex);
    for (const HeldLock& h : t_held) {
      if (h.cls == cls) {
        // Two locks of one class nested on one thread: another thread
        // doing the same with the instances swapped deadlocks.
        std::ostringstream os;
        os << "same-class nesting of " << class_name(s, cls)
           << ": already held (acquired at " << trim_path(h.file) << ":"
           << h.line << "), acquiring again at " << loc_str(acq);
        violation = os.str();
        break;
      }
      auto& row = s.edges[h.cls];
      if (row.find(cls) != row.end()) continue;  // edge already known
      std::vector<std::uint32_t> path;
      if (reachable(s, cls, h.cls, &path)) {
        // Adding h.cls -> cls would close a cycle: cls already reaches
        // h.cls through recorded acquisitions. Both orders' provenance
        // goes into the report.
        const EdgeProv& rev = s.edges.at(path[0]).at(
            path.size() > 1 ? path[1] : h.cls);
        std::ostringstream os;
        os << "acquiring " << class_name(s, cls) << " at " << loc_str(acq)
           << " while holding " << class_name(s, h.cls)
           << " (acquired at " << trim_path(h.file) << ":" << h.line
           << "); reverse order already recorded:";
        for (std::size_t i = 0; i < path.size(); ++i) {
          os << (i == 0 ? " " : " -> ") << class_name(s, path[i]);
        }
        os << " (first link: held " << rev.held_at << ", acquired "
           << rev.acq_at << ")";
        violation = os.str();
        break;
      }
      row.emplace(cls, EdgeProv{site_str(h.name, h.file, h.line),
                                site_str(m->name(), acq.file_name(),
                                         acq.line())});
    }
  }
  if (!violation.empty()) check::report(kRuleOrderCycle, violation);
}

void after_acquire(CheckedMutex* m, const std::source_location& acq) {
  if (reentry_depth() > 0) return;
  const Reentry guard;
  t_held.push_back({m, m->site_id(), m->allows_blocking(), m->name(),
                    acq.file_name(), acq.line()});
}

void on_release(CheckedMutex* m) {
  if (reentry_depth() > 0) return;
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mutex == m) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  // Not found: acquired while checking was off or during a report.
}

void blocking_call_slow(const char* what, const CheckedMutex* exempt,
                        const std::source_location& loc) {
  if (reentry_depth() > 0) return;
  std::string violation;
  for (const HeldLock& h : t_held) {
    if (h.mutex == exempt || h.allows_blocking) continue;
    std::ostringstream os;
    os << "blocking call \"" << what << "\" at " << loc_str(loc)
       << " while holding " << held_str(h) << " (acquired at "
       << trim_path(h.file) << ":" << h.line
       << "); mark the lock kAllowsBlocking only if holding it across "
          "blocking I/O is a deliberate control-plane choice";
    violation = os.str();
    break;
  }
  if (!violation.empty()) check::report(kRuleBlockingUnderLock, violation);
}

void assert_held_slow(const CheckedMutex* m, const char* what,
                      const std::source_location& loc) {
  if (reentry_depth() > 0 || m == nullptr) return;
  if (is_held(m)) return;
  std::ostringstream os;
  os << what << " at " << loc_str(loc) << " requires "
     << site_str(m->name(), m->file(), m->line())
     << " to be held by the calling thread";
  check::report(kRuleGuardUnheld, os.str());
}

void condvar_no_predicate(const CheckedMutex* m,
                          const std::source_location& loc) {
  std::ostringstream os;
  os << "untimed condition-variable wait without a predicate at "
     << loc_str(loc) << " on " << site_str(m->name(), m->file(), m->line())
     << "; a spurious wakeup returns early and a missed notify parks "
        "forever — wait with a predicate or a timeout";
  check::report(kRuleCondvarNoPredicate, os.str());
}

}  // namespace detail

}  // namespace swraman::lockcheck
