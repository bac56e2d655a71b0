#pragma once

#include <cstddef>
#include <cstdint>
#include <source_location>
#include <vector>

#include "common/lockcheck.hpp"

// commcheck — p2p protocol verifier over Communicator tags (DESIGN.md
// §14), the tag-fabric analogue of swcheck's RMA-mesh mailbox checker.
// The transport models acknowledged delivery, so three protocol bugs
// are invisible to the numerics and to TSan alike:
//
//   - p2p.orphaned_message: a message still sitting in a mailbox when
//     its CommContext is destroyed — someone sent and nobody received
//     (a stopped server loop, a response to a requester that gave up).
//     Requesters that *deliberately* give up (a request/response round
//     trip with a bounded timeout) declare it with abandon(), which
//     tolerates one leftover message per call; only unexplained
//     leftovers report.
//   - p2p.tag_mismatch: a payload whose length disagrees with the wire
//     type bound to its tag (bind_tag / bind_default). Caught at the
//     send site (throwing, with provenance); recv-side mismatches are
//     noted, since poll loops must not unwind.
//   - p2p.recv_cycle: ranks of one context blocked in recv() on each
//     other in a cycle while every awaited mailbox is empty — nobody
//     can make progress until a timeout breaks the ring. Noted (not
//     thrown): the waiting threads recover via TimeoutError, but the
//     protocol bug is real and the note carries every rank's recv site.
//
// All entry points are no-ops unless lockcheck::enabled(); violations
// share lockcheck's tally, counter sinks, and swraman-lockcheck-v1
// summary. Context ids come from register_context (0 = unchecked).

namespace swraman::parallel::commcheck {

// Registers a checked context of n_ranks endpoints; returns its id, or
// 0 when checking is disabled (every other call ignores ctx id 0).
std::uint64_t register_context(std::size_t n_ranks);

// Declares the wire type of a tag: payloads sent on it must have
// exactly expect_len doubles. bind_default covers every non-negative
// (user) tag without an explicit binding — the dynamic-response-tag
// idiom where one request tag fans out to per-call response tags of a
// single shape. Internal collective tags (< 0) are never matched by
// the default binding.
void bind_tag(std::uint64_t ctx, int tag, std::size_t expect_len,
              const char* name);
void bind_default(std::uint64_t ctx, std::size_t expect_len,
                  const char* name);

// Tolerates one in-flight message on (src -> dst, tag) at context
// destruction — the requester timed out and walked away, so either the
// unconsumed request or the too-late response may legitimately remain.
void abandon(std::uint64_t ctx, std::size_t src, std::size_t dst, int tag);

// Send-side hook: checks the payload length against the tag binding;
// throws CheckViolation(p2p.tag_mismatch) with the send site on
// disagreement.
void on_send(std::uint64_t ctx, std::size_t src, std::size_t dst, int tag,
             std::size_t len,
             std::source_location loc = std::source_location::current());

// Recv-side hook: same check, but notes instead of throwing (receive
// paths include server poll threads that must not unwind).
void on_recv(std::uint64_t ctx, std::size_t src, std::size_t dst, int tag,
             std::size_t len);

// Blocking-recv wait graph. recv_wait_begin records "waiter is blocked
// on (src, tag)" and checks whether the waiting edges of this context
// now form a cycle in which every awaited mailbox is empty; if so it
// notes p2p.recv_cycle with the full rank chain and each waiter's recv
// site. Only user tags (>= 0) are tracked: internal collective tags
// (< 0) may wait on extra communication threads, where one rank holds
// several concurrent waits and the rank-keyed graph would report
// cycles that are not stalls. The probe is called synchronously, under whatever lock the
// caller already holds that makes reading the mailbox table safe.
struct MailProbe {
  bool (*empty)(void* self, std::size_t src, std::size_t dst,
                int tag) = nullptr;
  void* self = nullptr;
};
void recv_wait_begin(std::uint64_t ctx, std::size_t waiter, std::size_t src,
                     int tag, const MailProbe& probe,
                     std::source_location loc = std::source_location::current());
void recv_wait_end(std::uint64_t ctx, std::size_t waiter);

// Context-destruction hook: leftovers are the non-empty mailboxes; any
// count beyond the abandon() tolerance notes p2p.orphaned_message.
// Releases all per-context checker state.
struct Leftover {
  std::size_t src = 0;
  std::size_t dst = 0;
  int tag = 0;
  std::size_t count = 0;
};
void on_context_destroyed(std::uint64_t ctx,
                          const std::vector<Leftover>& leftovers);

// Clears all contexts, bindings, tolerances, and wait edges (tests).
void reset_for_testing();

}  // namespace swraman::parallel::commcheck
