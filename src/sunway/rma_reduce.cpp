#include "sunway/rma_reduce.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"
#include "sunway/check/shadow.hpp"

namespace swraman::sunway {

namespace {

std::string index_error(const char* fn, std::size_t index,
                        std::size_t size) {
  return std::string(fn) + ": Contribution::index " + std::to_string(index) +
         " out of range for target array of size " + std::to_string(size);
}

}  // namespace

void serial_array_reduction(
    const std::vector<std::vector<Contribution>>& contributions,
    std::vector<double>& arr) {
  for (const std::vector<Contribution>& list : contributions) {
    for (const Contribution& c : list) {
      SWRAMAN_REQUIRE(
          c.index < arr.size(),
          index_error("serial_array_reduction", c.index, arr.size()));
      arr[c.index] += c.value;
    }
  }
}

RmaReduceStats rma_array_reduction(
    const std::vector<std::vector<Contribution>>& contributions,
    std::vector<double>& arr, const RmaReduceOptions& options) {
  const std::size_t n_cpes = contributions.size();
  SWRAMAN_REQUIRE(n_cpes >= 1, "rma_array_reduction: no CPEs");
  SWRAMAN_REQUIRE(options.send_buffer_entries >= 1 &&
                      options.ldm_block_doubles >= 1,
                  "rma_array_reduction: invalid options");
  const std::size_t n = arr.size();
  SWRAMAN_TRACE_SPAN(span, "sunway.rma_reduce");
  if (span.active()) {
    span.attr("cpes", static_cast<double>(n_cpes));
    span.attr("array_size", static_cast<double>(n));
  }
  RmaReduceStats stats;

  // Checked mode: account every mailbox send against the owner's drain
  // so a message delivered but never consumed — silently lost updates on
  // hardware — is reported at the end.
  std::unique_ptr<swcheck::RmaMeshChecker> mesh;
  if (check::enabled()) {
    mesh = std::make_unique<swcheck::RmaMeshChecker>(n_cpes);
  }

  // Ownership ranges: CPE o owns [o*n/n_cpes, (o+1)*n/n_cpes).
  const auto range_lo = [&](std::size_t o) { return o * n / n_cpes; };
  const auto owner_of = [&](std::size_t idx) {
    std::size_t o =
        std::min(n_cpes - 1, idx * n_cpes / std::max<std::size_t>(n, 1));
    // Integer rounding can land one range off; nudge into place.
    while (o + 1 < n_cpes && idx >= range_lo(o + 1)) ++o;
    while (o > 0 && idx < range_lo(o)) --o;
    return o;
  };

  // Step 1+2: every CPE sorts its contributions into per-destination send
  // buffers; a full buffer becomes one RMA message. Messages are collected
  // into per-owner inboxes (the receive buffers R0..R63). Delivery is
  // acknowledged: a message the injector drops is retransmitted (bounded),
  // with every attempt charged against the mesh.
  constexpr int kMaxRmaAttempts = 8;
  std::vector<std::vector<Contribution>> inbox(n_cpes);
  const auto deliver = [&](std::size_t src, std::size_t dst,
                           std::vector<Contribution>& buf) {
    for (int attempt = 1;; ++attempt) {
      stats.rma_messages += 1.0;
      stats.rma_bytes +=
          static_cast<double>(buf.size() * sizeof(Contribution));
      if (!fault::should_fire(fault::kRmaDrop)) break;
      stats.rma_retransmits += 1.0;
      log::warn("fault ", fault::kRmaDrop, ": RMA message CPE ", src,
                " -> ", dst, " (", buf.size(),
                " entries) dropped, retransmit attempt ", attempt, "/",
                kMaxRmaAttempts - 1);
      if (attempt >= kMaxRmaAttempts) {
        fault::FaultInjector::raise(fault::kRmaDrop);
      }
    }
    if (mesh) {
      mesh->record_send(src, dst, buf.size() * sizeof(Contribution));
    }
    inbox[dst].insert(inbox[dst].end(), buf.begin(), buf.end());
    buf.clear();
  };
  std::vector<std::vector<Contribution>> send_buf(n_cpes);
  for (std::size_t src = 0; src < n_cpes; ++src) {
    for (auto& buf : send_buf) buf.clear();
    for (const Contribution& c : contributions[src]) {
      SWRAMAN_REQUIRE(c.index < n,
                      index_error("rma_array_reduction", c.index, n));
      const std::size_t dst = owner_of(c.index);
      std::vector<Contribution>& buf = send_buf[dst];
      buf.push_back(c);
      if (buf.size() >= options.send_buffer_entries) {
        deliver(src, dst, buf);
      }
    }
    // Flush remaining partial buffers at the end of the pass.
    for (std::size_t dst = 0; dst < n_cpes; ++dst) {
      if (!send_buf[dst].empty()) deliver(src, dst, send_buf[dst]);
    }
  }

  // Steps 3-5: each owner drains its inbox through an LDM block cache of
  // its range; updates outside the cached block flush it back by DMA and
  // fetch the block containing the new location.
  const std::size_t blk = options.ldm_block_doubles;
  for (std::size_t o = 0; o < n_cpes; ++o) {
    const std::size_t lo = range_lo(o);
    std::vector<double> buf;          // cached block contents
    std::size_t cached_base = n + 1;  // invalid: nothing cached
    const auto flush = [&] {
      if (cached_base > n) return;
      for (std::size_t i = 0; i < buf.size(); ++i) {
        arr[cached_base + i] = buf[i];
      }
      stats.dma_block_transfers += 1.0;
      stats.dma_bytes += static_cast<double>(buf.size() * sizeof(double));
    };
    const auto load = [&](std::size_t idx) {
      // Block-aligned within the owner's range.
      const std::size_t off = (idx - lo) / blk * blk;
      cached_base = lo + off;
      const std::size_t range_hi = (o + 1 == n_cpes) ? n : range_lo(o + 1);
      const std::size_t hi = std::min(range_hi, cached_base + blk);
      buf.assign(arr.begin() + static_cast<long>(cached_base),
                 arr.begin() + static_cast<long>(hi));
      stats.dma_block_transfers += 1.0;
      stats.dma_bytes += static_cast<double>(buf.size() * sizeof(double));
    };
    for (const Contribution& c : inbox[o]) {
      if (cached_base > n || c.index < cached_base ||
          c.index >= cached_base + buf.size()) {
        flush();
        load(c.index);
      }
      buf[c.index - cached_base] += c.value;
      stats.updates += 1.0;
    }
    flush();
    if (mesh) mesh->record_drain(o);
  }
  if (mesh) mesh->verify("rma_array_reduction");
  if (span.active()) {
    span.attr("rma_messages", stats.rma_messages);
    span.attr("rma_bytes", stats.rma_bytes);
    span.attr("rma_retransmits", stats.rma_retransmits);
    span.attr("dma_block_transfers", stats.dma_block_transfers);
    span.attr("dma_bytes", stats.dma_bytes);
    span.attr("updates", stats.updates);
    obs::count("sunway.rma.bytes", stats.rma_bytes);
    obs::count("sunway.rma.retransmits", stats.rma_retransmits);
  }
  return stats;
}

}  // namespace swraman::sunway
