#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"

// swcheck — shadow-state correctness checker for the Sunway execution
// model (DESIGN.md §9). The functional CpeCluster model completes every
// DMA synchronously, so a kernel with a broken reply-word protocol (a
// missing dma_wait, an overrunning tile, a read of a buffer whose
// transfer is still in flight) produces correct numerics here and
// garbage on the real SW26010Pro. Checked mode closes that gap: per-arena
// tile registries, per-CPE in-flight DMA transfer queues and the RMA mesh
// mailbox accountant below turn latent protocol violations into hard
// errors carrying kernel name, CPE id and tile provenance.
//
// None of this exists when checked mode is off — the objects are only
// constructed behind the check::enabled() gate (common/check.hpp), which
// also owns the tally, the reporting path and the exit summary.

namespace swraman::sunway {
struct ReplyWord;  // double_buffer.hpp (includes this header indirectly)
}  // namespace swraman::sunway

namespace swraman::sunway::swcheck {

// Canonical rule names — keys of check::violation_counts() and of the
// check summary. Tests assert on these.
inline constexpr const char* kRuleLdmBounds = "ldm.bounds";
inline constexpr const char* kRuleLdmUseAfterReset = "ldm.use_after_reset";
inline constexpr const char* kRuleDmaInFlight = "dma.inflight_access";
inline constexpr const char* kRuleDmaOverlap = "dma.overlap";
inline constexpr const char* kRuleDmaWaitUnreachable = "dma.wait_unreachable";
inline constexpr const char* kRuleDmaReplyOverrun = "dma.reply_overrun";
inline constexpr const char* kRuleDmaUnwaited = "dma.unwaited_at_finish";
inline constexpr const char* kRuleRmaUnconsumed = "rma.unconsumed";
inline constexpr const char* kRuleRmaDeadlock = "rma.deadlock";

// Live shadow-object accounting, used by the leak tests: every
// registered tile / enqueued transfer increments, retirement or
// materialization decrements, and shadow destruction releases the rest.
// Both must return to zero once all CpeContexts are gone — including
// after sunway.cpe.death adoptions and sunway.dma.fail retries.
[[nodiscard]] std::int64_t live_shadow_tiles();
[[nodiscard]] std::int64_t live_transfers();

// --- LDM tile registry -----------------------------------------------------

// Tracks every tile an LdmArena hands out: base/size/generation. reset()
// retires the live tiles instead of forgetting them (the arena
// quarantines the backing memory), so a stale pointer still resolves to
// a retired tile and is reported as use-after-reset rather than reading
// freed memory.
class LdmShadow {
 public:
  struct Tile {
    const unsigned char* lo = nullptr;
    const unsigned char* hi = nullptr;  // lo + requested bytes (not padding)
    std::size_t index = 0;              // allocation order within generation
    std::uint64_t generation = 0;
    bool live = false;
  };

  enum class Access { Ok, OutOfBounds, UseAfterReset, Unknown };

  struct Lookup {
    Access access = Access::Unknown;
    const Tile* tile = nullptr;  // provenance when the pointer hit a tile
  };

  LdmShadow() = default;
  LdmShadow(const LdmShadow&) = delete;
  LdmShadow& operator=(const LdmShadow&) = delete;
  ~LdmShadow();

  void on_allocate(const void* ptr, std::size_t bytes);
  void on_reset();

  // Classifies a range access: inside a live tile (Ok), overruns the
  // tile it starts in (OutOfBounds), starts in a retired tile
  // (UseAfterReset), or hits no known tile at all (Unknown).
  [[nodiscard]] Lookup classify(const void* ptr, std::size_t bytes) const;

  // Human-readable provenance ("tile #2 of gen 3, 1024 B at 0x...").
  [[nodiscard]] static std::string describe(const Lookup& lookup);

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::size_t live_tiles() const;

 private:
  std::uint64_t generation_ = 0;
  std::size_t next_index_ = 0;
  std::vector<Tile> tiles_;  // live and retired, in allocation order
};

// --- In-flight DMA tracker -------------------------------------------------

// One per CpeContext in checked mode. Async DMA genuinely defers here:
// dma_get_async/dma_put_async enqueue a transfer record and the copy
// materializes only when dma_wait reaches its sequence number — so a
// read of an un-waited destination, a write-write overlap between
// concurrent transfers, and a wait that can never be satisfied all
// become detectable instead of being hidden by the functional model's
// synchronous memcpy.
class CpeShadow {
 public:
  CpeShadow(int cpe_id, std::string kernel, const LdmShadow* ldm);
  CpeShadow(const CpeShadow&) = delete;
  CpeShadow& operator=(const CpeShadow&) = delete;
  ~CpeShadow();

  // The shadow of the CpeContext currently executing on this thread
  // (contexts nest LIFO); dma_wait uses it to find the pending queue
  // without widening its signature. Null when no checked context is live.
  [[nodiscard]] static CpeShadow* current();

  // Validates the LDM side of an async transfer (bounds, use-after-reset,
  // overlap against every pending transfer) and enqueues it. `copy` runs
  // when a dma_wait materializes the transfer. is_get: the transfer
  // writes [ldm_ptr, ldm_ptr+bytes); put: it reads that range.
  void enqueue(bool is_get, const void* ldm_ptr, std::size_t bytes,
               ReplyWord& reply, std::function<void()> copy);

  // Checked dma_wait: flags reply.value > expected as a protocol
  // violation, materializes this reply word's pending transfers in issue
  // order until reply.value == expected, and reports a wait that runs
  // out of transfers before reaching it (never satisfiable on hardware).
  void wait(ReplyWord& reply, int expected);

  // Validates the LDM side of a synchronous dma_get/dma_put before the
  // copy runs: tile bounds plus overlap with in-flight transfers.
  void check_sync_dma(const void* ldm_ptr, std::size_t bytes,
                      bool writes_ldm, const char* op);

  // Validates a compute access (combine op, kernel loop) to an LDM
  // range: tile bounds plus the in-flight rules — reading a range an
  // un-waited get is still filling, or touching a range a pending
  // transfer uses, is the bug class the paper's pipelines risk.
  void check_access(const void* ptr, std::size_t bytes, bool write,
                    const char* what);

  // End-of-kernel check (CpeContext::finish): every issued transfer must
  // have been waited for; leftovers are reported and discarded.
  void verify_quiesced();

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] int cpe_id() const { return cpe_id_; }
  [[nodiscard]] const std::string& kernel() const { return kernel_; }

 private:
  struct Transfer {
    std::uint64_t seq = 0;
    bool is_get = false;
    const unsigned char* lo = nullptr;
    const unsigned char* hi = nullptr;
    std::size_t bytes = 0;
    const ReplyWord* reply = nullptr;
    std::string label;  // "dma_get_async #3"
    std::function<void()> copy;
  };

  [[noreturn]] void violate(const char* rule, const std::string& detail);
  void validate_ldm(const void* ptr, std::size_t bytes, const char* what);
  [[nodiscard]] std::string where() const;

  int cpe_id_;
  std::string kernel_;
  const LdmShadow* ldm_;
  std::vector<Transfer> pending_;  // issue order
  std::uint64_t next_seq_ = 1;
  CpeShadow* prev_ = nullptr;  // restored by the destructor (LIFO nesting)
};

// --- RMA mesh checker ------------------------------------------------------

// Accounts matched send/receive pairs per mailbox of the 8x8 CPE mesh
// and detects the two failure modes the hardware punishes: messages
// delivered but never consumed by the owner (silently lost updates) and
// wait-for cycles between CPEs (row/column bus deadlock).
class RmaMeshChecker {
 public:
  explicit RmaMeshChecker(std::size_t n_cpes);

  void record_send(std::size_t src, std::size_t dst, std::size_t bytes);
  // Owner dst consumed everything currently in its inbox.
  void record_drain(std::size_t dst);

  // `waiter` is blocked until `holder` acts (e.g. frees a receive slot).
  void add_wait(std::size_t waiter, std::size_t holder);

  // Reports any wait-for cycle as an rma.deadlock violation, naming the
  // CPEs and their mesh rows/columns along the cycle.
  void check_deadlock() const;

  // Final accounting: every mailbox with sends not matched by a drain is
  // an rma.unconsumed violation; also runs check_deadlock().
  void verify(const char* kernel) const;

  [[nodiscard]] std::uint64_t unconsumed() const;

 private:
  struct Mailbox {
    std::uint64_t sends = 0;
    std::uint64_t bytes = 0;
    std::uint64_t consumed = 0;
  };

  [[nodiscard]] const Mailbox& box(std::size_t src, std::size_t dst) const {
    return mail_[src * n_ + dst];
  }
  [[nodiscard]] Mailbox& box(std::size_t src, std::size_t dst) {
    return mail_[src * n_ + dst];
  }

  std::size_t n_;
  std::vector<Mailbox> mail_;                 // n_ x n_
  std::vector<std::vector<std::size_t>> waits_;  // adjacency: waiter -> holders
};

}  // namespace swraman::sunway::swcheck
