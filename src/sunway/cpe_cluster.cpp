#include "sunway/cpe_cluster.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <numeric>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "grid/loadbalance.hpp"

namespace swraman::sunway {

void CpeCluster::run(const std::function<void(CpeContext&)>& kernel) {
  run("kernel", kernel);
}

void CpeCluster::run(const char* name,
                     const std::function<void(CpeContext&)>& kernel) {
  const std::size_t n = static_cast<std::size_t>(arch_.n_pes);
  if (counters_.empty()) counters_.resize(n);
  if (dead_.empty()) dead_.assign(n, 0);

  // Roll for deaths (one visit per live CPE per launch); deaths are sticky.
  std::vector<std::size_t> alive;
  std::vector<std::size_t> newly_dead;
  for (std::size_t id = 0; id < n; ++id) {
    if (!dead_[id] && fault::should_fire(fault::kCpeDeath)) {
      dead_[id] = 1;
      newly_dead.push_back(id);
    }
    if (!dead_[id]) alive.push_back(id);
  }
  if (alive.empty()) {
    fault::FaultInjector::raise(fault::kCpeDeath);
  }

  // Adopt every dead CPE's logical run through the Algorithm-1 greedy
  // balancer: each survivor already carries one slice, each dead slice
  // goes to whichever survivor carries the least.
  std::vector<std::size_t> charge_to(n);
  std::iota(charge_to.begin(), charge_to.end(), std::size_t{0});
  std::vector<std::size_t> dead_ids;
  for (std::size_t id = 0; id < n; ++id) {
    if (dead_[id]) dead_ids.push_back(id);
  }
  if (!dead_ids.empty()) {
    const std::vector<std::size_t> weights(dead_ids.size(), 1);
    const std::vector<std::size_t> own_load(alive.size(), 1);
    const std::vector<std::size_t> owner =
        grid::assign_greedy(weights, alive.size(), &own_load);
    for (std::size_t k = 0; k < dead_ids.size(); ++k) {
      charge_to[dead_ids[k]] = alive[owner[k]];
    }
    for (const std::size_t id : newly_dead) {
      log::warn("fault ", fault::kCpeDeath, ": CPE ", id,
                " died; slice adopted by CPE ", charge_to[id],
                " (modeled cluster slowdown x",
                static_cast<double>(n) / static_cast<double>(alive.size()),
                ", ", alive.size(), "/", n, " CPEs alive)");
    }
  }

  // Logical runs in merge order: alive ids, then adopted dead ids.
  std::vector<std::size_t> logical = alive;
  logical.insert(logical.end(), dead_ids.begin(), dead_ids.end());
  const auto execute = [&](std::size_t id) {
    CpeContext ctx(static_cast<int>(id), arch_.n_pes, arch_, name);
    kernel(ctx);
    ctx.finish();
    return ctx.counters();
  };

  // Claim-next dispatch: each host thread takes the next unrun logical
  // CPE, so uneven slices (P2P leaves hold 1 to 63 points) balance out.
  // Counters merge after the join in the order above, so totals are
  // bitwise those of a serial launch. A throw stops further claims; the
  // CPEs that finished are charged, then it is rethrown. While the
  // injector is armed, which CPE sees the next sunway.dma.fail visit is
  // part of its replay contract, so the launch runs serially here. Inside
  // a task (a displaced-geometry solve, an SPMD rank) the outer level
  // holds the cores, so the launch runs serially there too.
  std::vector<CpeCounters> ran(logical.size());
  std::vector<char> done(logical.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto claim = [&](std::size_t) {
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < logical.size(); k = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        ran[k] = execute(logical[k]);
        done[k] = 1;
      } catch (...) {
        next.store(logical.size(), std::memory_order_relaxed);
        throw;
      }
    }
  };
  const std::size_t n_threads =
      fault::FaultInjector::instance().armed() || threads::in_task()
          ? 1
          : std::min(threads::hardware_threads(), logical.size());
  std::exception_ptr error;
  try {
    if (n_threads <= 1) {
      claim(0);
    } else {
      threads::fork_join(n_threads, claim);
    }
  } catch (...) {
    error = std::current_exception();
  }
  for (std::size_t k = 0; k < logical.size(); ++k) {
    if (done[k]) counters_[charge_to[logical[k]]] += ran[k];
  }
  if (error) std::rethrow_exception(error);
}

void CpeCluster::reset() {
  counters_.clear();
  dead_.clear();
}

int CpeCluster::n_dead() const {
  return static_cast<int>(
      std::accumulate(dead_.begin(), dead_.end(), std::size_t{0}));
}

CpeCounters CpeCluster::total() const {
  CpeCounters t;
  for (const CpeCounters& c : counters_) t += c;
  return t;
}

KernelWorkload CpeCluster::workload(const std::string& name, double elements,
                                    double vectorizable_fraction) const {
  SWRAMAN_REQUIRE(elements > 0.0, "workload: elements must be positive");
  const CpeCounters t = total();
  KernelWorkload w;
  w.name = name;
  w.elements = elements;
  w.flops_per_element = t.flops / elements;
  w.stream_bytes_per_element = t.dma_bytes / elements;
  w.irregular_bytes_per_element =
      t.direct_mem_accesses * sizeof(double) / elements;
  w.vectorizable_fraction = vectorizable_fraction;
  return w;
}

}  // namespace swraman::sunway
