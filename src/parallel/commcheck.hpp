#pragma once

#include <cstddef>
#include <cstdint>
#include <source_location>
#include <vector>

// commcheck — p2p protocol verifier over Communicator tags (DESIGN.md
// §14), the tag-fabric analogue of swcheck's RMA-mesh mailbox checker.
// The transport models acknowledged delivery, so two protocol bugs are
// invisible to the numerics and to TSan alike:
//
//   - p2p.orphaned_message: a message still sitting in a mailbox when
//     its CommContext is destroyed — someone sent and nobody received.
//   - p2p.recv_cycle: ranks of one context blocked in recv() on each
//     other in a cycle while every awaited mailbox is empty — nobody
//     can make progress until a timeout breaks the ring. Noted (not
//     thrown): the waiting threads recover via TimeoutError, but the
//     protocol bug is real and the note carries every rank's recv site.
//
// The communicator's own collective rule, coll.abandoned_request, is
// raised by AllreduceRequest (parallel/comm.cpp). All entry points are
// no-ops unless check::enabled(); violations go to the check core's
// tally and summary. Context ids come from register_context
// (0 = unchecked).

namespace swraman::parallel::commcheck {

// Canonical rule names — keys of check::violation_counts() and of the
// check summary. Tests assert on these.
inline constexpr const char* kRuleP2pOrphan = "p2p.orphaned_message";
inline constexpr const char* kRuleP2pRecvCycle = "p2p.recv_cycle";
inline constexpr const char* kRuleCollAbandoned = "coll.abandoned_request";

// Registers a checked context; returns its id, or 0 when checking is
// disabled (every other call ignores ctx id 0).
std::uint64_t register_context();

// Blocking-recv wait graph. recv_wait_begin records "waiter is blocked
// on (src, tag)" and checks whether the waiting edges of this context
// now form a cycle in which every awaited mailbox is empty; if so it
// notes p2p.recv_cycle with the full rank chain and each waiter's recv
// site. Only user tags (>= 0) are tracked: internal collective tags
// (< 0) may wait on extra communication threads, where one rank holds
// several concurrent waits and the rank-keyed graph would report
// cycles that are not stalls. The probe is called synchronously, under
// whatever lock the caller already holds that makes reading the
// mailbox table safe.
struct MailProbe {
  bool (*empty)(void* self, std::size_t src, std::size_t dst,
                int tag) = nullptr;
  void* self = nullptr;
};
void recv_wait_begin(std::uint64_t ctx, std::size_t waiter, std::size_t src,
                     int tag, const MailProbe& probe,
                     std::source_location loc = std::source_location::current());
void recv_wait_end(std::uint64_t ctx, std::size_t waiter);

// Context-destruction hook: every non-empty mailbox notes
// p2p.orphaned_message. Releases all per-context checker state.
struct Leftover {
  std::size_t src = 0;
  std::size_t dst = 0;
  int tag = 0;
  std::size_t count = 0;
};
void on_context_destroyed(std::uint64_t ctx,
                          const std::vector<Leftover>& leftovers);

}  // namespace swraman::parallel::commcheck
