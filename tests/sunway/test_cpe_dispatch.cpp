// CpeCluster::run hands its logical CPEs to host threads (claim-next) and
// keeps the serial order while the fault injector is armed. Both must give
// the same outputs and per-CPE counters bit for bit, and a throw on one
// logical CPE must reach the caller only after every thread has joined.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/threads.hpp"
#include "robustness/fault.hpp"
#include "sunway/cpe_cluster.hpp"

namespace swraman::sunway {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

struct Launch {
  std::vector<double> out;
  std::vector<CpeCounters> per_cpe;
  std::vector<std::thread::id> ran_on;  // per logical CPE, last launch
};

// Three launches of a kernel with uneven per-CPE work and fractional
// counter charges, so any change in merge order would show in the bits.
Launch run_launches() {
  CpeCluster cluster(sw26010pro());
  const std::size_t n = 3000;
  std::vector<double> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = 0.001 * static_cast<double>(i);
  Launch r;
  r.out.assign(n, 0.0);
  r.ran_on.resize(static_cast<std::size_t>(cluster.arch().n_pes));
  for (int launch = 0; launch < 3; ++launch) {
    cluster.run("dispatch", [&](CpeContext& ctx) {
      r.ran_on[static_cast<std::size_t>(ctx.id())] = std::this_thread::get_id();
      const auto [lo, hi] = ctx.my_slice(n);
      if (lo >= hi) return;
      ctx.ldm().reset();
      const std::size_t count = hi - lo;
      double* tile = ctx.ldm().allocate<double>(count);
      ctx.dma_get(tile, in.data() + lo, count);
      const int reps = 1 + ctx.id() % 5;
      for (std::size_t k = 0; k < count; ++k) {
        double v = tile[k];
        for (int rep = 0; rep < reps; ++rep) v = std::sin(v) + 0.1 * launch;
        tile[k] = v;
        ctx.charge_flops(0.1 * reps);
        ctx.counters().dma_transfers += 1.0 / 16.0;
      }
      ctx.dma_put(tile, r.out.data() + lo, count);
    });
  }
  r.per_cpe = cluster.per_cpe();
  return r;
}

void expect_bitwise_equal(const Launch& a, const Launch& b) {
  ASSERT_EQ(a.out.size(), b.out.size());
  for (std::size_t i = 0; i < a.out.size(); ++i) {
    ASSERT_EQ(bits(a.out[i]), bits(b.out[i])) << "point " << i;
  }
  ASSERT_EQ(a.per_cpe.size(), b.per_cpe.size());
  for (std::size_t id = 0; id < a.per_cpe.size(); ++id) {
    const CpeCounters& x = a.per_cpe[id];
    const CpeCounters& y = b.per_cpe[id];
    EXPECT_EQ(bits(x.flops), bits(y.flops)) << "CPE " << id;
    EXPECT_EQ(bits(x.dma_bytes), bits(y.dma_bytes)) << "CPE " << id;
    EXPECT_EQ(bits(x.dma_transfers), bits(y.dma_transfers)) << "CPE " << id;
    EXPECT_EQ(bits(x.direct_mem_accesses), bits(y.direct_mem_accesses));
    EXPECT_EQ(bits(x.rma_bytes), bits(y.rma_bytes));
    EXPECT_EQ(bits(x.rma_messages), bits(y.rma_messages));
    EXPECT_EQ(x.ldm_peak, y.ldm_peak) << "CPE " << id;
  }
}

TEST(CpeDispatch, ParallelLaunchMatchesSerialLaunchUnderSilentInjector) {
  fault::ScopedFaults faults;
  const Launch parallel = run_launches();

  // Armed but silent: the site never fires, yet an armed injector keeps
  // every launch serial on the calling thread.
  fault::FaultInjector::instance().configure(fault::kDmaFail,
                                             fault::FaultSpec{});
  const Launch serial = run_launches();
  EXPECT_GT(fault::FaultInjector::instance().stats(fault::kDmaFail).visits,
            0u);
  EXPECT_EQ(fault::FaultInjector::instance().stats(fault::kDmaFail).fires,
            0u);

  expect_bitwise_equal(parallel, serial);
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::thread::id t : serial.ran_on) EXPECT_EQ(t, caller);
  if (threads::hardware_threads() > 1) {
    // Dispatched: no logical CPE ran on the calling thread.
    for (const std::thread::id t : parallel.ran_on) EXPECT_NE(t, caller);
  }
}

TEST(CpeDispatch, ThrowOnOneCpeIsRethrownAfterEveryThreadJoined) {
  CpeCluster cluster(sw26010pro());
  std::atomic<int> running{0};
  struct Leave {
    std::atomic<int>& n;
    ~Leave() { n.fetch_sub(1); }
  };
  const auto kernel = [&](CpeContext& ctx) {
    running.fetch_add(1);
    const Leave leave{running};
    if (ctx.id() == 5) throw std::runtime_error("CPE 5 failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  try {
    cluster.run("throws", kernel);
    FAIL() << "the CPE's exception did not reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CPE 5 failed");
  }
  // Every dispatch thread had left the kernel before run() rethrew.
  EXPECT_EQ(running.load(), 0);

  // The cluster stays usable after a failed launch.
  cluster.run("after", [](CpeContext& ctx) { ctx.charge_flops(1.0); });
  EXPECT_DOUBLE_EQ(cluster.total().flops, 64.0);
}

}  // namespace
}  // namespace swraman::sunway
