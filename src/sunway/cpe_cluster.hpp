#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "robustness/fault.hpp"
#include "sunway/arch.hpp"
#include "sunway/check/shadow.hpp"
#include "sunway/cost_model.hpp"
#include "sunway/ldm.hpp"

// Functional execution model of one core group's CPE cluster. Kernels are
// written against CpeContext — LDM allocation with the real 256 KB limit,
// DMA get/put with operation counting, explicit flop charging — and run for
// every logical CPE. The numerics are produced on the host, with the
// logical CPEs spread over the host's cores; the counters feed the cost
// model, which converts them into modeled Sunway time per optimization
// variant.
//
// Fault tolerance: DMA transfers retry on injected engine failures
// (sunway.dma.fail, bounded, each failed attempt still charged), and a CPE
// killed by sunway.cpe.death stays dead for the cluster's lifetime — its
// logical work is adopted by the surviving CPEs through the Algorithm-1
// greedy balancer, so results are unchanged and the cost model sees the
// survivors' extra load.

namespace swraman::sunway {

struct CpeCounters {
  double flops = 0.0;
  double dma_bytes = 0.0;
  double dma_transfers = 0.0;
  double direct_mem_accesses = 0.0;
  double rma_bytes = 0.0;
  double rma_messages = 0.0;
  std::size_t ldm_peak = 0;

  CpeCounters& operator+=(const CpeCounters& o) {
    flops += o.flops;
    dma_bytes += o.dma_bytes;
    dma_transfers += o.dma_transfers;
    direct_mem_accesses += o.direct_mem_accesses;
    rma_bytes += o.rma_bytes;
    rma_messages += o.rma_messages;
    ldm_peak = ldm_peak > o.ldm_peak ? ldm_peak : o.ldm_peak;
    return *this;
  }
};

class CpeContext {
 public:
  CpeContext(int id, int n_cpes, const ArchParams& arch,
             const char* kernel_name = "kernel")
      : id_(id), n_cpes_(n_cpes), ldm_(arch.ldm_bytes) {
    if (check::enabled()) {
      shadow_ = std::make_unique<swcheck::CpeShadow>(id, kernel_name,
                                                   ldm_.shadow());
    }
  }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int n_cpes() const { return n_cpes_; }
  [[nodiscard]] LdmArena& ldm() { return ldm_; }
  [[nodiscard]] CpeCounters& counters() { return counters_; }

  // In-flight DMA shadow state; null unless checked mode was on at
  // construction (SWRAMAN_CHECK=1 / check::set_enabled).
  [[nodiscard]] swcheck::CpeShadow* shadow() { return shadow_.get(); }
  [[nodiscard]] bool checked() const { return shadow_ != nullptr; }

  // Async-style DMA: copies now (functional), charges one transaction.
  // An injected engine failure (sunway.dma.fail) is retried — the failed
  // attempt still occupied the DMA engine, so it is charged too. Checked
  // mode validates the LDM range (tile bounds, use-after-reset, overlap
  // with in-flight transfers) before the copy.
  template <typename T>
  void dma_get(T* dst_ldm, const T* src_mem, std::size_t n) {
    if (shadow_) {
      shadow_->check_sync_dma(dst_ldm, n * sizeof(T), true, "dma_get");
    }
    dma_fault_check("dma_get");
    std::memcpy(dst_ldm, src_mem, n * sizeof(T));
    counters_.dma_bytes += static_cast<double>(n * sizeof(T));
    counters_.dma_transfers += 1.0;
  }

  template <typename T>
  void dma_put(const T* src_ldm, T* dst_mem, std::size_t n) {
    if (shadow_) {
      shadow_->check_sync_dma(src_ldm, n * sizeof(T), false, "dma_put");
    }
    dma_fault_check("dma_put");
    std::memcpy(dst_mem, src_ldm, n * sizeof(T));
    counters_.dma_bytes += static_cast<double>(n * sizeof(T));
    counters_.dma_transfers += 1.0;
  }

  // Charges an async DMA issue: the fault-injection retry loop plus the
  // byte/transfer counters, without the copy. Deferred (checked-mode)
  // transfers go through here exactly once — an injected sunway.dma.fail
  // retry charges the engine again but must not re-register the
  // in-flight record.
  void dma_charge_async(const char* op, std::size_t bytes) {
    dma_fault_check(op);
    counters_.dma_bytes += static_cast<double>(bytes);
    counters_.dma_transfers += 1.0;
  }

  // Compute-access annotations for LDM tiles: free in unchecked mode; in
  // checked mode they catch reads of un-waited in-flight data and tile
  // overruns from kernel loops (the combine ops of Algorithm 3 call
  // these).
  void check_ldm_read(const void* p, std::size_t bytes,
                      const char* what = "ldm read") {
    if (shadow_) shadow_->check_access(p, bytes, false, what);
  }
  void check_ldm_write(const void* p, std::size_t bytes,
                       const char* what = "ldm write") {
    if (shadow_) shadow_->check_access(p, bytes, true, what);
  }

  void charge_flops(double n) { counters_.flops += n; }
  void charge_direct_access(double n) { counters_.direct_mem_accesses += n; }
  void charge_rma(double bytes) {
    counters_.rma_bytes += bytes;
    counters_.rma_messages += 1.0;
  }

  // Static round-robin slice [begin, end) of a range for this CPE.
  [[nodiscard]] std::pair<std::size_t, std::size_t> my_slice(
      std::size_t total) const {
    const std::size_t per = (total + n_cpes_ - 1) / n_cpes_;
    const std::size_t lo = std::min(total, per * static_cast<std::size_t>(id_));
    const std::size_t hi = std::min(total, lo + per);
    return {lo, hi};
  }

  void finish() {
    // Checked mode: a transfer still in flight here means its dma_wait
    // never ran — report before the context (and its shadow) dies.
    if (shadow_) shadow_->verify_quiesced();
    counters_.ldm_peak = ldm_.peak();
  }

 private:
  static constexpr int kMaxDmaRetries = 8;

  void dma_fault_check(const char* op) {
    if (!fault::FaultInjector::instance().armed()) return;
    for (int attempt = 1; fault::should_fire(fault::kDmaFail); ++attempt) {
      counters_.dma_transfers += 1.0;  // failed attempt occupied the engine
      log::warn("fault ", fault::kDmaFail, ": CPE ", id_, " ", op,
                " transfer failed, retry ", attempt, "/", kMaxDmaRetries);
      if (attempt >= kMaxDmaRetries) {
        throw TimeoutError(std::string("CPE DMA: ") + op + " on CPE " +
                           std::to_string(id_) + " failed " +
                           std::to_string(attempt) +
                           " consecutive times; giving up");
      }
    }
  }

  int id_;
  int n_cpes_;
  LdmArena ldm_;
  CpeCounters counters_;
  std::unique_ptr<swcheck::CpeShadow> shadow_;
};

class CpeCluster {
 public:
  explicit CpeCluster(ArchParams arch) : arch_(std::move(arch)) {}

  // Runs the kernel body once per logical CPE; counters accumulate across
  // run() calls until reset(). A CPE the injector kills (sunway.cpe.death)
  // is skipped permanently; its logical runs are adopted by survivors and
  // charged to the adopter's counters.
  //
  // The logical CPEs run on up to hardware_threads() host threads, each
  // claiming the next unrun one, so a body must write only its own slice
  // of shared output. Counters merge after the join in a fixed order
  // (alive ids, then adopted dead ids), so per-CPE counters and totals are
  // bitwise those of a serial launch. While the fault injector is armed,
  // or when called from inside a threads:: task (the outer parallel level
  // already holds the cores), a launch runs serially on the calling
  // thread. A throw on any CPE is
  // rethrown here once every thread has joined.
  // The named overload attributes checker violations to `name` (kernel1,
  // kernel2, n1, H1, ...).
  void run(const std::function<void(CpeContext&)>& kernel);
  void run(const char* name, const std::function<void(CpeContext&)>& kernel);

  void reset();

  // CPEs lost to injected deaths so far (they stay dead until reset()).
  [[nodiscard]] int n_dead() const;

  [[nodiscard]] const ArchParams& arch() const { return arch_; }
  [[nodiscard]] const std::vector<CpeCounters>& per_cpe() const {
    return counters_;
  }
  [[nodiscard]] CpeCounters total() const;

  // Summarizes the counted operations as a KernelWorkload for the cost
  // model. `elements` gives the logical work-item count; the per-element
  // byte/flop figures are derived from the counters.
  [[nodiscard]] KernelWorkload workload(const std::string& name,
                                        double elements,
                                        double vectorizable_fraction) const;

 private:
  ArchParams arch_;
  std::vector<CpeCounters> counters_;
  std::vector<char> dead_;  // sticky per-CPE death flags
};

}  // namespace swraman::sunway
