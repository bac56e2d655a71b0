#include "parallel/commcheck.hpp"

#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>

#include "common/check.hpp"

namespace swraman::parallel::commcheck {

namespace {

struct WaitEdge {
  std::size_t src = 0;
  int tag = 0;
  std::string site;  // waiter's recv call site
};

struct Context {
  // waiter rank -> what it is blocked on (present only while blocked).
  std::map<std::size_t, WaitEdge> waits;
  // Cycles already noted, keyed by their rank chain — a retrying recv
  // re-registers its edge every slice and must not flood the tally.
  std::set<std::string> noted_cycles;
};

// Checker-internal state behind a plain std::mutex (the sanctioned
// exception of lint rule 6 — instrumenting the checker would recurse).
// Leaked for the same atexit reasons as the check core's tally.
struct State {
  std::mutex mutex;
  std::uint64_t next_id = 1;
  std::map<std::uint64_t, Context> contexts;
};

State& state() {
  static State* s = new State;
  return *s;
}

std::string edge_str(std::uint64_t ctx, std::size_t src, std::size_t dst,
                     int tag) {
  std::ostringstream os;
  os << "ctx#" << ctx << " rank " << src << " -> rank " << dst << " tag "
     << tag;
  return os.str();
}

}  // namespace

std::uint64_t register_context() {
  if (!check::enabled()) return 0;
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  const std::uint64_t id = s.next_id++;
  s.contexts.emplace(id, Context{});
  return id;
}

void recv_wait_begin(std::uint64_t ctx, std::size_t waiter, std::size_t src,
                     int tag, const MailProbe& probe,
                     std::source_location loc) {
  if (ctx == 0 || !check::enabled()) return;
  // Only user tags (>= 0) join the wait graph. Internal collective tags
  // (< 0) ride extra communication threads — one rank may hold several
  // concurrent waits while another of its threads makes progress for
  // the peer, so the rank-keyed graph would see cycles that are not
  // stalls. Collectives are deadlock-free by the program-order rule;
  // this rule targets the user-level p2p protocols.
  if (tag < 0) return;
  std::string violation;
  {
    State& s = state();
    const std::scoped_lock lock(s.mutex);
    const auto it = s.contexts.find(ctx);
    if (it == s.contexts.end()) return;
    Context& c = it->second;
    c.waits[waiter] = {src, tag, check::loc_str(loc)};
    // Follow the wait chain from this rank; a return to it is a cycle.
    std::vector<std::size_t> chain{waiter};
    std::size_t cur = src;
    while (true) {
      const auto w = c.waits.find(cur);
      if (w == c.waits.end()) return;  // chain ends at a running rank
      bool closes = cur == waiter;
      for (const std::size_t r : chain) closes = closes || r == cur;
      if (closes && cur != waiter) return;  // cycle not through us
      if (cur == waiter) break;
      chain.push_back(cur);
      cur = w->second.src;
    }
    // Confirm the deadlock shape: every edge of the cycle must be
    // waiting on an *empty* mailbox — a posted-but-not-yet-consumed
    // message means the apparent cycle is just scheduling lag.
    for (const std::size_t r : chain) {
      const WaitEdge& e = c.waits.at(r);
      if (probe.empty == nullptr ||
          !probe.empty(probe.self, e.src, r, e.tag)) {
        return;
      }
    }
    std::ostringstream key;
    for (const std::size_t r : chain) key << r << ",";
    if (!c.noted_cycles.insert(key.str()).second) return;
    std::ostringstream os;
    os << "ranks of ctx#" << ctx
       << " are blocked in recv() on each other with every awaited "
          "mailbox empty:";
    for (const std::size_t r : chain) {
      const WaitEdge& e = c.waits.at(r);
      os << " [rank " << r << " waits on rank " << e.src << " tag " << e.tag
         << " at " << e.site << "]";
    }
    os << "; progress only resumes via recv timeout";
    violation = os.str();
  }
  check::note(kRuleP2pRecvCycle, violation);
}

void recv_wait_end(std::uint64_t ctx, std::size_t waiter) {
  if (ctx == 0) return;
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  const auto it = s.contexts.find(ctx);
  if (it == s.contexts.end()) return;
  it->second.waits.erase(waiter);
}

void on_context_destroyed(std::uint64_t ctx,
                          const std::vector<Leftover>& leftovers) {
  if (ctx == 0) return;
  std::vector<std::string> violations;
  {
    State& s = state();
    const std::scoped_lock lock(s.mutex);
    const auto it = s.contexts.find(ctx);
    if (it == s.contexts.end()) return;
    for (const Leftover& l : leftovers) {
      std::ostringstream os;
      os << l.count << " unconsumed message(s) on "
         << edge_str(ctx, l.src, l.dst, l.tag)
         << " at context destruction (sent, never received)";
      violations.push_back(os.str());
    }
    s.contexts.erase(it);
  }
  // note() after releasing the registry lock: it takes obs locks.
  for (const std::string& v : violations) {
    check::note(kRuleP2pOrphan, v);
  }
}

}  // namespace swraman::parallel::commcheck
