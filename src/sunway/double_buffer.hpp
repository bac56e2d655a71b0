#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <string>

#include "sunway/cpe_cluster.hpp"

// Paper Algorithm 3: pipelined local reduction on a CPE with asynchronous
// batch transfers and a reply word. The LDM buffer is split into four
// blocks — blocks 0/1 form buffer A (destination/source), blocks 2/3 form
// buffer B — and the read of buffer B overlaps the combine of buffer A.
// The functional implementation executes the exact control flow (async
// get, reply-word waits, ping-pong swap, tail flush) while counting the
// DMA transactions the cost model charges.

namespace swraman::sunway {

// Emulated DMA "reply word": every completed transfer increments it; the
// pipeline spins until the expected count is reached (functionally a
// no-op, structurally identical to the hardware protocol).
struct ReplyWord {
  int value = 0;
};

// Asynchronous copy with reply accounting. Unchecked: completes
// immediately (functional model) but is charged as one DMA transaction.
// Checked mode (SWRAMAN_CHECK=1): the transfer is genuinely deferred —
// an in-flight record is enqueued (validated against the tile registry
// and every other pending transfer) and the copy materializes only when
// dma_wait reaches it, so a missing wait produces a hard checker error
// here instead of silent corruption on hardware.
template <typename T>
void dma_get_async(CpeContext& ctx, T* dst_ldm, const T* src_mem,
                   std::size_t n, ReplyWord& reply) {
  if (swcheck::CpeShadow* sh = ctx.shadow()) {
    ctx.dma_charge_async("dma_get", n * sizeof(T));
    sh->enqueue(true, dst_ldm, n * sizeof(T), reply, [dst_ldm, src_mem, n] {
      std::memcpy(dst_ldm, src_mem, n * sizeof(T));
    });
    return;
  }
  ctx.dma_get(dst_ldm, src_mem, n);
  ++reply.value;
}

template <typename T>
void dma_put_async(CpeContext& ctx, const T* src_ldm, T* dst_mem,
                   std::size_t n, ReplyWord& reply) {
  if (swcheck::CpeShadow* sh = ctx.shadow()) {
    ctx.dma_charge_async("dma_put", n * sizeof(T));
    sh->enqueue(false, src_ldm, n * sizeof(T), reply, [src_ldm, dst_mem, n] {
      std::memcpy(dst_mem, src_ldm, n * sizeof(T));
    });
    return;
  }
  ctx.dma_put(src_ldm, dst_mem, n);
  ++reply.value;
}

inline void dma_wait(ReplyWord& reply, int expected) {
  // Checked mode: materialize deferred transfers up to `expected`, flag
  // an over-incremented reply word (value > expected — a stale wait) and
  // a wait no pending transfer can ever satisfy.
  if (check::enabled()) {
    if (swcheck::CpeShadow* sh = swcheck::CpeShadow::current()) {
      sh->wait(reply, expected);
      return;
    }
  }
  // Hardware: spin on the reply word. Functional: transfers are already
  // complete; assert the protocol was respected.
  SWRAMAN_REQUIRE(reply.value >= expected,
                  "dma_wait: reply word behind schedule (value=" +
                      std::to_string(reply.value) + ", expected=" +
                      std::to_string(expected) + ") — pipeline bug");
}

// Element-wise combine used by the reduction (Op in Algorithm 3).
using CombineOp = std::function<void(double* dst, const double* src,
                                     std::size_t n)>;

inline void sum_op(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

// Algorithm 3 (paper Sec. 3.4): dst[i] = Op(dst[i], src[i]) for i < count,
// streamed through the CPE's LDM in double-buffered blocks. ldm_buf_doubles
// is the total scratch budget (split into 4 blocks); it must fit the
// context's arena. Returns the number of pipeline stages executed.
std::size_t reduce_local_pipelined(CpeContext& ctx, double* dst,
                                   const double* src, std::size_t count,
                                   std::size_t ldm_buf_doubles,
                                   const CombineOp& op = sum_op);

}  // namespace swraman::sunway
