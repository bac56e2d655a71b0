#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "sunway/check/shadow.hpp"
#include "sunway/double_buffer.hpp"

// Seeded-violation tests for the deferred-DMA protocol rules. Each test
// reproduces a pipeline bug that the synchronous functional model hides
// (the memcpy completes immediately, so the numerics come out right) and
// asserts that checked mode turns it into an attributed hard error.

namespace swraman::sunway {
namespace {

constexpr std::size_t kN = 64;

struct Checked : ::testing::Test {
  check::ScopedChecking checking;
  CpeContext ctx{5, 64, sw26010pro(), "seeded"};
  std::vector<double> host = std::vector<double>(4 * kN, 1.5);
};

TEST_F(Checked, DeferredCopyMaterializesAtWait) {
  double* tile = ctx.ldm().allocate<double>(kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  EXPECT_EQ(reply.value, 0);             // not complete yet
  EXPECT_EQ(swcheck::live_transfers(), 1);  // but registered in flight
  dma_wait(reply, 1);
  EXPECT_EQ(reply.value, 1);
  EXPECT_EQ(swcheck::live_transfers(), 0);
  EXPECT_EQ(tile[kN - 1], 1.5);  // the copy happened at the wait
}

// The headline rule: a missing dma_wait before touching the tile — the
// bug that produces garbage on SW26010Pro and correct numerics in the
// plain functional model.
TEST_F(Checked, ReadOfUnwaitedTransferIsCaught) {
  double* tile = ctx.ldm().allocate<double>(2 * kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  try {
    ctx.check_ldm_read(tile, kN * sizeof(double), "combine src");
    FAIL() << "un-waited read not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleDmaInFlight);
    EXPECT_NE(std::string(e.what()).find("missing dma_wait"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cpe=5"), std::string::npos);
  }
}

// Same bug expressed through Algorithm 3 itself: a broken variant of the
// double-buffered reduction that combines the block before waiting on
// its reply word.
TEST_F(Checked, MissingWaitInPipelineIsCaught) {
  double* tile = ctx.ldm().allocate<double>(2 * kN);
  std::vector<double> dst(kN, 1.0);
  std::vector<double> src(kN, 2.0);
  ReplyWord reply;
  dma_get_async(ctx, tile, dst.data(), kN, reply);
  dma_get_async(ctx, tile + kN, src.data(), kN, reply);
  // BUG: no dma_wait(reply, 2) here.
  const auto broken_combine = [&] {
    ctx.check_ldm_write(tile, kN * sizeof(double), "combine dst");
    ctx.check_ldm_read(tile + kN, kN * sizeof(double), "combine src");
    sum_op(tile, tile + kN, kN);
  };
  EXPECT_THROW(broken_combine(), CheckViolation);
  EXPECT_EQ(check::violation_counts()[swcheck::kRuleDmaInFlight], 1u);
  // Recover so the fixture teardown sees a quiesced context.
  dma_wait(reply, 2);
}

TEST_F(Checked, OverlappingGetsAreCaught) {
  double* tile = ctx.ldm().allocate<double>(2 * kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  try {
    // Second get overlaps the first by half a block: unordered
    // write-write on hardware.
    dma_get_async(ctx, tile + kN / 2, host.data() + kN, kN, reply);
    FAIL() << "overlap not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleDmaOverlap);
  }
  dma_wait(reply, 1);
}

TEST_F(Checked, PutReadingInFlightGetIsCaught) {
  double* tile = ctx.ldm().allocate<double>(kN);
  std::vector<double> out(kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  // Writing back a tile the engine is still filling.
  EXPECT_THROW(dma_put_async(ctx, tile, out.data(), kN, reply),
               CheckViolation);
  dma_wait(reply, 1);
}

TEST_F(Checked, OverlappingPutsBothReadAreAllowed) {
  double* tile = ctx.ldm().allocate<double>(kN);
  std::vector<double> out_a(kN);
  std::vector<double> out_b(kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  dma_wait(reply, 1);
  dma_put_async(ctx, tile, out_a.data(), kN, reply);
  EXPECT_NO_THROW(dma_put_async(ctx, tile, out_b.data(), kN, reply));
  dma_wait(reply, 3);
  EXPECT_EQ(out_a[0], 1.5);
  EXPECT_EQ(out_b[0], 1.5);
}

TEST_F(Checked, SyncDmaOverlappingInFlightIsCaught) {
  double* tile = ctx.ldm().allocate<double>(kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  try {
    ctx.dma_get(tile, host.data() + kN, kN);  // races the pending get
    FAIL() << "sync/async overlap not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleDmaOverlap);
  }
  dma_wait(reply, 1);
}

TEST_F(Checked, UnreachableWaitIsCaught) {
  double* tile = ctx.ldm().allocate<double>(kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  try {
    dma_wait(reply, 2);  // only one transfer was ever issued
    FAIL() << "unreachable wait not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleDmaWaitUnreachable);
    // Diagnostics carry actual and expected values.
    EXPECT_NE(std::string(e.what()).find("expected reply value 2"),
              std::string::npos);
  }
}

// Satellite: an over-incremented reply word used to slip through the
// `>=` assert; checked mode flags value > expected as a protocol
// violation (a stale wait races the engine on hardware).
TEST_F(Checked, OverIncrementedReplyWordIsCaught) {
  double* tile = ctx.ldm().allocate<double>(2 * kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  dma_get_async(ctx, tile + kN, host.data() + kN, kN, reply);
  dma_wait(reply, 2);
  EXPECT_EQ(reply.value, 2);
  try {
    dma_wait(reply, 1);  // stale: the word is already past 1
    FAIL() << "reply overrun not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleDmaReplyOverrun);
    EXPECT_NE(std::string(e.what()).find("already at 2"),
              std::string::npos);
  }
}

TEST_F(Checked, TransferLeakedPastFinishIsCaught) {
  double* tile = ctx.ldm().allocate<double>(kN);
  ReplyWord reply;
  dma_get_async(ctx, tile, host.data(), kN, reply);
  try {
    ctx.finish();  // kernel "returns" with the transfer still in flight
    FAIL() << "leaked transfer not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleDmaUnwaited);
    EXPECT_NE(std::string(e.what()).find("dma_wait never ran"),
              std::string::npos);
  }
  // The violation drained the shadow queue: nothing stays live.
  EXPECT_EQ(swcheck::live_transfers(), 0);
}

// In unchecked mode dma_wait must keep its eager semantics but now
// reports actual/expected values when the protocol is broken.
TEST(CheckDmaDisabled, WaitDiagnosticsIncludeValues) {
  check::ScopedChecking checking(false);
  ReplyWord reply;
  reply.value = 1;
  try {
    dma_wait(reply, 3);
    FAIL() << "behind-schedule wait not reported";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("value=1"), std::string::npos);
    EXPECT_NE(what.find("expected=3"), std::string::npos);
  }
}

}  // namespace
}  // namespace swraman::sunway
