#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "robustness/fault.hpp"
#include "sunway/check/shadow.hpp"
#include "sunway/double_buffer.hpp"

// Checked-mode interplay with the fault-injection framework: retries and
// CPE-death adoption must leave the shadow state exact — no transfer
// registered twice, no tile leaked with its dead owner.

namespace swraman::sunway {
namespace {

// A sunway.dma.fail retry charges the DMA engine again but must not
// double-register the in-flight transfer record.
TEST(CheckFaults, DmaFailRetryRegistersTransferOnce) {
  check::ScopedChecking checking;
  fault::ScopedFaults faults;
  fault::FaultSpec spec;
  spec.fire_at = 1;  // first visit of the site fails, retry succeeds
  fault::FaultInjector::instance().configure(fault::kDmaFail, spec);

  CpeContext ctx(0, 64, sw26010pro(), "faulted");
  double* tile = ctx.ldm().allocate<double>(16);
  std::vector<double> host(16, 4.0);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), 16, reply);
  // Exactly one in-flight record despite the retried issue...
  EXPECT_EQ(swcheck::live_transfers(), 1);
  // ...while the engine was charged for both attempts.
  EXPECT_EQ(ctx.counters().dma_transfers, 2.0);
  dma_wait(reply, 1);
  EXPECT_EQ(reply.value, 1);
  EXPECT_EQ(tile[7], 4.0);
  EXPECT_EQ(swcheck::live_transfers(), 0);
  ctx.finish();  // quiesced: the retry left nothing behind
  EXPECT_EQ(check::total_violations(), 0u);
}

// A retry storm that exhausts the budget throws TimeoutError before the
// transfer is registered: the shadow queue must stay empty.
TEST(CheckFaults, ExhaustedDmaRetriesLeaveNoShadowRecord) {
  check::ScopedChecking checking;
  fault::ScopedFaults faults;
  fault::FaultSpec spec;
  spec.probability = 1.0;  // every attempt fails
  fault::FaultInjector::instance().configure(fault::kDmaFail, spec);

  CpeContext ctx(0, 64, sw26010pro(), "faulted");
  double* tile = ctx.ldm().allocate<double>(16);
  std::vector<double> host(16, 0.0);
  ReplyWord reply;
  EXPECT_THROW(dma_get_async(ctx, tile, host.data(), 16, reply),
               TimeoutError);
  EXPECT_EQ(swcheck::live_transfers(), 0);
  EXPECT_NO_THROW(ctx.finish());
}

// A CPE killed by sunway.cpe.death has its logical run adopted by a
// survivor; the dead CPE's shadow tiles and transfer records must be
// fully released once the cluster run completes.
TEST(CheckFaults, CpeDeathAdoptionLeaksNoShadowState) {
  check::ScopedChecking checking;
  fault::ScopedFaults faults;
  fault::FaultSpec spec;
  spec.fire_at = 1;  // the first CPE visited dies
  fault::FaultInjector::instance().configure(fault::kCpeDeath, spec);

  CpeCluster cluster(sw26010pro());
  const std::size_t n = 4096;
  std::vector<double> in(n, 2.0);
  std::vector<double> out(n, 0.0);
  cluster.run("adopted", [&](CpeContext& ctx) {
    const auto [lo, hi] = ctx.my_slice(n);
    if (lo >= hi) return;
    ctx.ldm().reset();
    double* tile = ctx.ldm().allocate<double>(hi - lo);
    ReplyWord reply;
    dma_get_async(ctx, tile, in.data() + lo, hi - lo, reply);
    dma_wait(reply, 1);
    for (std::size_t k = 0; k < hi - lo; ++k) tile[k] *= 3.0;
    ctx.charge_flops(static_cast<double>(hi - lo));
    ctx.dma_put(tile, out.data() + lo, hi - lo);
  });
  EXPECT_EQ(cluster.n_dead(), 1);
  // The adopted run produced the dead CPE's slice too.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], 6.0) << i;
  }
  // All shadow state — including the dead CPE's — was released.
  EXPECT_EQ(swcheck::live_shadow_tiles(), 0);
  EXPECT_EQ(swcheck::live_transfers(), 0);
  EXPECT_EQ(check::total_violations(), 0u);
}

}  // namespace
}  // namespace swraman::sunway
