#include "sunway/check/shadow.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

#include "sunway/double_buffer.hpp"

namespace swraman::sunway::swcheck {

namespace {

bool ranges_overlap(const unsigned char* a_lo, const unsigned char* a_hi,
                    const unsigned char* b_lo, const unsigned char* b_hi) {
  return a_lo < b_hi && b_lo < a_hi;
}

std::string hex_ptr(const void* p) {
  std::ostringstream os;
  os << p;
  return os.str();
}

std::atomic<std::int64_t> g_live_tiles{0};
std::atomic<std::int64_t> g_live_transfers{0};

void tiles_add(std::int64_t n) {
  g_live_tiles.fetch_add(n, std::memory_order_relaxed);
}

void transfers_add(std::int64_t n) {
  g_live_transfers.fetch_add(n, std::memory_order_relaxed);
}

// The thread's innermost checked CpeContext (contexts nest LIFO within a
// thread; each CpeCluster::run dispatch thread creates and destroys its
// logical CPEs' contexts one after another).
thread_local CpeShadow* t_current_shadow = nullptr;

}  // namespace

std::int64_t live_shadow_tiles() {
  return g_live_tiles.load(std::memory_order_relaxed);
}

std::int64_t live_transfers() {
  return g_live_transfers.load(std::memory_order_relaxed);
}

// --- LdmShadow -------------------------------------------------------------

LdmShadow::~LdmShadow() {
  std::size_t live = 0;
  for (const Tile& t : tiles_) live += t.live ? 1 : 0;
  tiles_add(-static_cast<std::int64_t>(live));
}

void LdmShadow::on_allocate(const void* ptr, std::size_t bytes) {
  Tile t;
  t.lo = static_cast<const unsigned char*>(ptr);
  t.hi = t.lo + bytes;
  t.index = next_index_++;
  t.generation = generation_;
  t.live = true;
  tiles_.push_back(t);
  tiles_add(1);
}

void LdmShadow::on_reset() {
  std::size_t retired = 0;
  for (Tile& t : tiles_) {
    if (t.live) {
      t.live = false;
      ++retired;
    }
  }
  tiles_add(-static_cast<std::int64_t>(retired));
  ++generation_;
  next_index_ = 0;
}

LdmShadow::Lookup LdmShadow::classify(const void* ptr,
                                      std::size_t bytes) const {
  const auto* p = static_cast<const unsigned char*>(ptr);
  Lookup out;
  // Prefer the live tile containing the start; fall back to a retired
  // one (a later allocation never reuses quarantined addresses within
  // this arena's lifetime, so the match is unambiguous).
  const Tile* retired_hit = nullptr;
  for (const Tile& t : tiles_) {
    if (p < t.lo || p >= t.hi) continue;
    if (t.live) {
      out.tile = &t;
      out.access = (p + bytes <= t.hi) ? Access::Ok : Access::OutOfBounds;
      return out;
    }
    retired_hit = &t;
  }
  if (retired_hit != nullptr) {
    out.tile = retired_hit;
    out.access = Access::UseAfterReset;
  }
  return out;
}

std::string LdmShadow::describe(const Lookup& lookup) {
  if (lookup.tile == nullptr) return "no known LDM tile";
  const Tile& t = *lookup.tile;
  std::ostringstream os;
  os << "tile #" << t.index << " of gen " << t.generation << " ("
     << (t.hi - t.lo) << " B at " << hex_ptr(t.lo)
     << (t.live ? ", live" : ", retired by reset()") << ")";
  return os.str();
}

std::size_t LdmShadow::live_tiles() const {
  std::size_t n = 0;
  for (const Tile& t : tiles_) n += t.live ? 1 : 0;
  return n;
}

// --- CpeShadow -------------------------------------------------------------

CpeShadow::CpeShadow(int cpe_id, std::string kernel, const LdmShadow* ldm)
    : cpe_id_(cpe_id),
      kernel_(std::move(kernel)),
      ldm_(ldm),
      prev_(t_current_shadow) {
  t_current_shadow = this;
}

CpeShadow::~CpeShadow() {
  t_current_shadow = prev_;
  transfers_add(-static_cast<std::int64_t>(pending_.size()));
}

CpeShadow* CpeShadow::current() { return t_current_shadow; }

std::string CpeShadow::where() const {
  std::ostringstream os;
  os << "kernel=" << (kernel_.empty() ? "?" : kernel_) << " cpe=" << cpe_id_;
  return os.str();
}

void CpeShadow::violate(const char* rule, const std::string& detail) {
  check::report(rule, where() + ": " + detail);
}

void CpeShadow::validate_ldm(const void* ptr, std::size_t bytes,
                             const char* what) {
  if (ldm_ == nullptr) return;
  const LdmShadow::Lookup lk = ldm_->classify(ptr, bytes);
  switch (lk.access) {
    case LdmShadow::Access::Ok:
      return;
    case LdmShadow::Access::OutOfBounds: {
      std::ostringstream os;
      os << what << " of " << bytes << " B at " << hex_ptr(ptr)
         << " overruns " << LdmShadow::describe(lk);
      violate(kRuleLdmBounds, os.str());
    }
    case LdmShadow::Access::UseAfterReset: {
      std::ostringstream os;
      os << what << " of " << bytes << " B at " << hex_ptr(ptr)
         << " touches " << LdmShadow::describe(lk)
         << " — tile generation " << lk.tile->generation
         << " is stale (arena is at gen " << ldm_->generation() << ")";
      violate(kRuleLdmUseAfterReset, os.str());
    }
    case LdmShadow::Access::Unknown: {
      std::ostringstream os;
      os << what << " of " << bytes << " B at " << hex_ptr(ptr)
         << " is not within any live LDM tile";
      violate(kRuleLdmBounds, os.str());
    }
  }
}

void CpeShadow::enqueue(bool is_get, const void* ldm_ptr, std::size_t bytes,
                        ReplyWord& reply, std::function<void()> copy) {
  const char* op = is_get ? "dma_get_async" : "dma_put_async";
  validate_ldm(ldm_ptr, bytes, op);
  const auto* lo = static_cast<const unsigned char*>(ldm_ptr);
  const unsigned char* hi = lo + bytes;
  for (const Transfer& t : pending_) {
    if (!ranges_overlap(lo, hi, t.lo, t.hi)) continue;
    // A new get writes the range; any overlap with an in-flight transfer
    // (concurrent write-write, or clobbering a range a put is still
    // reading) is unordered on hardware. A new put reading a range an
    // in-flight get is filling reads undefined bytes. Two overlapping
    // puts both read — harmless.
    if (!is_get && !t.is_get) continue;
    std::ostringstream os;
    os << op << " #" << next_seq_ << " on [" << hex_ptr(lo) << ", +"
       << bytes << ") overlaps in-flight " << t.label << " on ["
       << hex_ptr(t.lo) << ", +" << t.bytes << ")";
    violate(kRuleDmaOverlap, os.str());
  }
  Transfer t;
  t.seq = next_seq_++;
  t.is_get = is_get;
  t.lo = lo;
  t.hi = hi;
  t.bytes = bytes;
  t.reply = &reply;
  t.label = std::string(op) + " #" + std::to_string(t.seq);
  t.copy = std::move(copy);
  pending_.push_back(std::move(t));
  transfers_add(1);
}

void CpeShadow::wait(ReplyWord& reply, int expected) {
  if (reply.value > expected) {
    std::ostringstream os;
    os << "dma_wait: reply word already at " << reply.value
       << ", past expected " << expected
       << " — a stale wait like this lets a subsequent read race the "
          "engine on hardware";
    violate(kRuleDmaReplyOverrun, os.str());
  }
  while (reply.value < expected) {
    // Materialize this reply word's oldest pending transfer (hardware
    // completion order is modeled as issue order).
    auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [&reply](const Transfer& t) { return t.reply == &reply; });
    if (it == pending_.end()) {
      std::ostringstream os;
      os << "dma_wait: expected reply value " << expected << " but only "
         << reply.value
         << " transfers were issued on this reply word (pending on others: "
         << pending_.size() << ") — this wait never completes on hardware";
      violate(kRuleDmaWaitUnreachable, os.str());
    }
    it->copy();
    pending_.erase(it);
    transfers_add(-1);
    ++reply.value;
  }
}

void CpeShadow::check_sync_dma(const void* ldm_ptr, std::size_t bytes,
                               bool writes_ldm, const char* op) {
  validate_ldm(ldm_ptr, bytes, op);
  const auto* lo = static_cast<const unsigned char*>(ldm_ptr);
  const unsigned char* hi = lo + bytes;
  for (const Transfer& t : pending_) {
    if (!ranges_overlap(lo, hi, t.lo, t.hi)) continue;
    if (!writes_ldm && !t.is_get) continue;  // both read: harmless
    std::ostringstream os;
    os << "synchronous " << op << " on [" << hex_ptr(lo) << ", +" << bytes
       << ") overlaps in-flight " << t.label << " on [" << hex_ptr(t.lo)
       << ", +" << t.bytes << ") that was never waited for";
    violate(kRuleDmaOverlap, os.str());
  }
}

void CpeShadow::check_access(const void* ptr, std::size_t bytes, bool write,
                             const char* what) {
  validate_ldm(ptr, bytes, what);
  const auto* lo = static_cast<const unsigned char*>(ptr);
  const unsigned char* hi = lo + bytes;
  for (const Transfer& t : pending_) {
    if (!ranges_overlap(lo, hi, t.lo, t.hi)) continue;
    // Reading a range an un-waited get is filling yields garbage on
    // hardware; writing a range any in-flight transfer uses races it.
    if (!write && !t.is_get) continue;
    std::ostringstream os;
    os << what << (write ? " (write)" : " (read)") << " on [" << hex_ptr(lo)
       << ", +" << bytes << ") overlaps un-waited " << t.label << " on ["
       << hex_ptr(t.lo) << ", +" << t.bytes
       << ") — missing dma_wait before touching this tile";
    violate(kRuleDmaInFlight, os.str());
  }
}

void CpeShadow::verify_quiesced() {
  if (pending_.empty()) return;
  std::ostringstream os;
  os << pending_.size() << " transfer(s) still in flight at kernel finish:";
  for (const Transfer& t : pending_) {
    os << " " << t.label << " [" << hex_ptr(t.lo) << ", +" << t.bytes << ")";
  }
  os << " — their dma_wait never ran";
  // Discard before reporting so a caught violation leaves no stale
  // shadow state behind (check::report() throws).
  transfers_add(-static_cast<std::int64_t>(pending_.size()));
  pending_.clear();
  violate(kRuleDmaUnwaited, os.str());
}

// --- RmaMeshChecker --------------------------------------------------------

namespace {

// Mesh coordinates of a CPE on the 8x8 grid (row/column buses).
std::string mesh_pos(std::size_t cpe) {
  std::ostringstream os;
  os << "CPE " << cpe << " (row " << cpe / 8 << ", col " << cpe % 8 << ")";
  return os.str();
}

}  // namespace

RmaMeshChecker::RmaMeshChecker(std::size_t n_cpes)
    : n_(n_cpes), mail_(n_cpes * n_cpes), waits_(n_cpes) {}

void RmaMeshChecker::record_send(std::size_t src, std::size_t dst,
                                 std::size_t bytes) {
  Mailbox& m = box(src, dst);
  m.sends += 1;
  m.bytes += bytes;
}

void RmaMeshChecker::record_drain(std::size_t dst) {
  for (std::size_t src = 0; src < n_; ++src) {
    Mailbox& m = box(src, dst);
    m.consumed = m.sends;
  }
}

void RmaMeshChecker::add_wait(std::size_t waiter, std::size_t holder) {
  waits_[waiter].push_back(holder);
}

void RmaMeshChecker::check_deadlock() const {
  // Iterative DFS with colors; the first back edge closes a cycle.
  enum : unsigned char { White, Grey, Black };
  std::vector<unsigned char> color(n_, White);
  std::vector<std::size_t> parent(n_, n_);
  for (std::size_t root = 0; root < n_; ++root) {
    if (color[root] != White) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    color[root] = Grey;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next < waits_[u].size()) {
        const std::size_t v = waits_[u][next++];
        if (color[v] == Grey) {
          // Reconstruct u -> ... -> v -> u.
          std::ostringstream os;
          os << "wait-for cycle on the RMA mesh: " << mesh_pos(v);
          std::vector<std::size_t> chain{u};
          for (std::size_t w = u; w != v && parent[w] != n_;
               w = parent[w]) {
            chain.push_back(parent[w]);
          }
          for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            os << " <- " << mesh_pos(*it);
          }
          os << " <- " << mesh_pos(v)
             << " — every CPE in the cycle waits on the next; the mesh "
                "deadlocks";
          check::report(kRuleRmaDeadlock, os.str());
        }
        if (color[v] == White) {
          color[v] = Grey;
          parent[v] = u;
          stack.emplace_back(v, 0);
        }
      } else {
        color[u] = Black;
        stack.pop_back();
      }
    }
  }
}

void RmaMeshChecker::verify(const char* kernel) const {
  check_deadlock();
  std::uint64_t lost_msgs = 0;
  std::uint64_t lost_bytes = 0;
  std::ostringstream detail;
  for (std::size_t src = 0; src < n_; ++src) {
    for (std::size_t dst = 0; dst < n_; ++dst) {
      const Mailbox& m = box(src, dst);
      if (m.consumed >= m.sends) continue;
      const std::uint64_t lost = m.sends - m.consumed;
      if (lost_msgs == 0) detail << " unconsumed mailboxes:";
      detail << " " << src << "->" << dst << " (" << lost << " msg)";
      lost_msgs += lost;
      lost_bytes += m.bytes;
    }
  }
  if (lost_msgs == 0) return;
  std::ostringstream os;
  os << "kernel=" << kernel << ": " << lost_msgs
     << " RMA message(s) were delivered but never consumed by their "
        "owner"
     << detail.str() << " — on hardware these updates are silently lost";
  check::report(kRuleRmaUnconsumed, os.str());
}

std::uint64_t RmaMeshChecker::unconsumed() const {
  std::uint64_t lost = 0;
  for (const Mailbox& m : mail_) {
    lost += m.sends > m.consumed ? m.sends - m.consumed : 0;
  }
  return lost;
}

}  // namespace swraman::sunway::swcheck
