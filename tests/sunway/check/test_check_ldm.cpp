#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "sunway/check/shadow.hpp"
#include "sunway/cpe_cluster.hpp"

// Seeded-violation tests for the LDM tile rules: every rule is triggered
// deliberately and must surface as a CheckViolation with the right rule
// tag under checked mode — and pass silently (the latent-bug behavior)
// when checking is off.

namespace swraman::sunway {
namespace {

// Satellite regression: n * sizeof(T) used to wrap before the capacity
// check, letting a huge request pass as a tiny one. (2^61 + 2) * 8 wraps
// to 16 bytes on 64-bit size_t — the unfixed arena would hand out a
// 16-byte block for an 18-quintillion-element "tile".
TEST(LdmArenaOverflow, WrappingRequestIsRejected) {
  LdmArena arena(256 * 1024);
  const std::size_t wrap_n =
      std::numeric_limits<std::size_t>::max() / sizeof(double) + 2;
  EXPECT_THROW(arena.allocate<double>(wrap_n), Error);
  // The near-limit case that overflows only through align_up's + 63.
  const std::size_t align_n =
      std::numeric_limits<std::size_t>::max() / sizeof(double);
  EXPECT_THROW(arena.allocate<double>(align_n), Error);
  // Nothing was booked against the arena by the rejected requests.
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_NO_THROW(arena.allocate<double>(8));
}

TEST(CheckLdm, DmaGetOverrunningTileIsCaught) {
  check::ScopedChecking checking;
  CpeContext ctx(3, 64, sw26010pro(), "seeded");
  double* tile = ctx.ldm().allocate<double>(8);
  std::vector<double> host(16, 1.0);
  try {
    ctx.dma_get(tile, host.data(), 16);  // 16 > the 8 allocated
    FAIL() << "overrun not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleLdmBounds);
    EXPECT_NE(std::string(e.what()).find("cpe=3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("kernel=seeded"),
              std::string::npos);
  }
  EXPECT_EQ(check::violation_counts()[swcheck::kRuleLdmBounds], 1u);
}

TEST(CheckLdm, DmaPutFromForeignPointerIsCaught) {
  check::ScopedChecking checking;
  CpeContext ctx(0, 64, sw26010pro());
  std::vector<double> not_a_tile(8, 0.0);
  std::vector<double> host(8, 0.0);
  try {
    ctx.dma_put(not_a_tile.data(), host.data(), 8);
    FAIL() << "foreign pointer not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleLdmBounds);
  }
}

TEST(CheckLdm, UseAfterResetIsCaughtByGeneration) {
  check::ScopedChecking checking;
  CpeContext ctx(7, 64, sw26010pro(), "seeded");
  double* tile = ctx.ldm().allocate<double>(32);
  std::vector<double> host(32, 2.0);
  ctx.dma_get(tile, host.data(), 32);  // fine while the tile is live
  ctx.ldm().reset();
  try {
    ctx.dma_get(tile, host.data(), 32);  // stale pointer, old generation
    FAIL() << "use-after-reset not caught";
  } catch (const CheckViolation& e) {
    EXPECT_EQ(e.rule(), swcheck::kRuleLdmUseAfterReset);
    EXPECT_NE(std::string(e.what()).find("retired by reset()"),
              std::string::npos);
  }
  EXPECT_EQ(check::violation_counts()[swcheck::kRuleLdmUseAfterReset], 1u);
}

TEST(CheckLdm, FreshAllocationAfterResetIsClean) {
  check::ScopedChecking checking;
  CpeContext ctx(0, 64, sw26010pro());
  (void)ctx.ldm().allocate<double>(32);
  ctx.ldm().reset();
  double* fresh = ctx.ldm().allocate<double>(32);
  std::vector<double> host(32, 3.0);
  EXPECT_NO_THROW(ctx.dma_get(fresh, host.data(), 32));
  EXPECT_EQ(fresh[5], 3.0);
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(CheckLdm, CombineAccessAnnotationsAreChecked) {
  check::ScopedChecking checking;
  CpeContext ctx(0, 64, sw26010pro());
  double* tile = ctx.ldm().allocate<double>(8);
  EXPECT_NO_THROW(ctx.check_ldm_read(tile, 8 * sizeof(double)));
  EXPECT_THROW(ctx.check_ldm_read(tile, 9 * sizeof(double)),
               CheckViolation);
}

// The latent-bug contract: with checking off, the exact same overrun
// sequence sails through the functional model silently. (This is the
// undetectable bug class the checker exists for; the buffers are sized
// so the unchecked memcpy stays within allocated memory.)
TEST(CheckLdm, DisabledModeStaysSilent) {
  check::ScopedChecking checking(false);
  CpeContext ctx(0, 64, sw26010pro());
  // 8 doubles requested; the 64-byte alignment granule makes the
  // unchecked overrun land in padding instead of tripping anything.
  double* tile = ctx.ldm().allocate<double>(4);
  std::vector<double> host(8, 1.0);
  EXPECT_NO_THROW(ctx.dma_get(tile, host.data(), 8));
  ctx.ldm().reset();
  EXPECT_EQ(check::total_violations(), 0u);
}

}  // namespace
}  // namespace swraman::sunway
