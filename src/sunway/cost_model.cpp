#include "sunway/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace swraman::sunway {

namespace {

constexpr double kGiga = 1e9;

// Number of independently streamed arrays a grid kernel tiles (coords,
// tabulated data, output — the paper's Fig. 5 layout).
constexpr double kArraysPerTile = 3.0;

double cpe_compute_time(const KernelWorkload& w, const ArchParams& a,
                        bool simd) {
  double flops_eff = w.total_flops();
  if (simd) {
    const double vec_speed =
        static_cast<double>(a.simd_lanes) * a.simd_efficiency;
    flops_eff = w.total_flops() *
                ((1.0 - w.vectorizable_fraction) +
                 w.vectorizable_fraction / vec_speed);
  }
  return flops_eff /
         (static_cast<double>(a.n_pes) * a.pe_flops_per_cycle *
          a.pe_freq_ghz * kGiga);
}

// DMA time: bytes over the aggregate engine plus per-transaction startup,
// serialized per CPE. usable_ldm shrinks to half under double buffering.
double dma_time(const KernelWorkload& w, const ArchParams& a,
                double usable_ldm_fraction) {
  const double bytes =
      w.elements * ((w.stream_bytes_per_element +
                     w.irregular_bytes_per_element) / w.cpe_reuse_factor +
                    w.ldm_refetch_bytes_per_element);
  const double bw_time = bytes / (a.dma_bw_gbs * kGiga);
  const double tile_bytes =
      std::max(1.0, static_cast<double>(a.ldm_bytes) * usable_ldm_fraction /
                        kArraysPerTile);
  const double transfers_per_pe =
      (bytes / static_cast<double>(a.n_pes)) / tile_bytes * kArraysPerTile;
  const double startup_time =
      transfers_per_pe * a.dma_startup_cycles / (a.pe_freq_ghz * kGiga);
  return bw_time + startup_time;
}

double launch_time(const ArchParams& a) {
  return a.kernel_launch_cycles / (a.pe_freq_ghz * kGiga);
}

}  // namespace

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::MpeScalar:
      return "MPE";
    case Variant::CpeTiled:
      return "Tiling";
    case Variant::CpeTiledDb:
      return "Tiling+DB";
    case Variant::CpeTiledDbSimd:
      return "Tiling+DB+SIMD";
  }
  return "?";
}

double modeled_time(const KernelWorkload& w, const ArchParams& arch,
                    Variant variant) {
  SWRAMAN_REQUIRE(w.elements >= 0.0, "modeled_time: negative element count");
  if (w.elements == 0.0) return 0.0;

  switch (variant) {
    case Variant::MpeScalar: {
      // Single management core: scalar compute plus memory traffic; the
      // gathered (irregular) accesses miss the cache part of the time.
      const double compute =
          w.total_flops() /
          (arch.mpe_flops_per_cycle * arch.mpe_freq_ghz * kGiga);
      const double mem =
          (w.elements * w.stream_bytes_per_element +
           2.0 * w.elements * w.irregular_bytes_per_element) /
          (arch.mpe_mem_bw_gbs * kGiga);
      return compute + mem;
    }
    case Variant::CpeTiled:
      // Sequential DMA-then-compute per tile (Fig. 6 top).
      return launch_time(arch) + cpe_compute_time(w, arch, false) +
             dma_time(w, arch, 0.9);
    case Variant::CpeTiledDb: {
      // Double buffering (Fig. 6 bottom): asynchronous transfers overlap
      // both the wire time and the startup latency with compute; the
      // remaining DMA cost is pure bandwidth.
      const double bw_time =
          (w.total_bytes() / w.cpe_reuse_factor +
           w.elements * w.ldm_refetch_bytes_per_element) /
          (arch.dma_bw_gbs * kGiga);
      return launch_time(arch) +
             std::max(cpe_compute_time(w, arch, false), bw_time);
    }
    case Variant::CpeTiledDbSimd: {
      const double bw_time =
          (w.total_bytes() / w.cpe_reuse_factor +
           w.elements * w.ldm_refetch_bytes_per_element) /
          (arch.dma_bw_gbs * kGiga);
      return launch_time(arch) +
             std::max(cpe_compute_time(w, arch, true), bw_time);
    }
  }
  return 0.0;
}

double modeled_cycles(const KernelWorkload& w, const ArchParams& arch,
                      Variant variant) {
  const double freq_ghz =
      variant == Variant::MpeScalar ? arch.mpe_freq_ghz : arch.pe_freq_ghz;
  return modeled_time(w, arch, variant) * freq_ghz * kGiga;
}

double modeled_cpu_time(const KernelWorkload& w, const ArchParams& arch) {
  if (w.elements == 0.0) return 0.0;
  const double vec_speed =
      static_cast<double>(arch.simd_lanes) * arch.simd_efficiency;
  const double flops_eff =
      w.total_flops() * ((1.0 - w.vectorizable_fraction) +
                         w.vectorizable_fraction / vec_speed);
  const double compute = flops_eff / (static_cast<double>(arch.n_pes) *
                                      arch.pe_flops_per_cycle *
                                      arch.pe_freq_ghz * kGiga);
  const double mem = w.total_bytes() / (arch.node_mem_bw_gbs * kGiga);
  // Cache-based cores overlap compute and memory reasonably well.
  return std::max(compute, mem);
}

namespace {

// Local reduction throughput: scalar MPE loop (two reads + one write at
// single-core stream bandwidth) vs the CPE-pipelined variant of paper
// Algorithm 3 (double-buffered LDM blocks on all CPEs at DMA bandwidth).
double mpe_reduce_bw(const ArchParams& a) {
  return a.mpe_mem_bw_gbs * kGiga / 3.0;
}
double cpe_reduce_bw(const ArchParams& a) {
  return std::min(a.dma_bw_gbs, a.node_mem_bw_gbs) * kGiga / 1.5;
}

// Synchronous MPE orchestration costs a scheduling gap per step (the
// idleness the paper calls out in Sec. 3.4).
constexpr double kMpeSched = 30e-6;

}  // namespace

double modeled_allreduce_time(double bytes, std::size_t n_ranks,
                              const ArchParams& arch,
                              const AllreduceModel& model) {
  SWRAMAN_REQUIRE(bytes >= 0.0 && n_ranks >= 1,
                  "modeled_allreduce_time: invalid arguments");
  if (n_ranks == 1) return 0.0;
  const double p = static_cast<double>(n_ranks);
  const double log2p = std::log2(p);
  const double alpha = arch.net_latency_us * 1e-6;
  const double beta = arch.net_bw_gbs * kGiga;

  const double mpe_reduce_bw = sunway::mpe_reduce_bw(arch);
  const double cpe_reduce_bw = sunway::cpe_reduce_bw(arch);
  const double mpe_sched = kMpeSched;

  const double wire = 2.0 * (p - 1.0) / p * bytes / beta;
  const double reduced = (p - 1.0) / p * bytes;
  if (!model.cpe_offload) {
    // Reduce-scatter + allgather with the reduction on the MPE, serialized
    // with communication ("before MPI optimization").
    return 2.0 * log2p * alpha + wire + reduced / mpe_reduce_bw +
           log2p * mpe_sched;
  }
  // CPE-offloaded pipelined reduction overlapped with the transfers
  // ("after"): the reduction hides under the wire time.
  return 2.0 * log2p * alpha +
         std::max(wire, reduced / cpe_reduce_bw);
}

double modeled_gather_allreduce_time(double bytes, std::size_t n_ranks,
                                     const ArchParams& arch,
                                     const AllreduceModel& model) {
  SWRAMAN_REQUIRE(bytes >= 0.0 && n_ranks >= 1,
                  "modeled_gather_allreduce_time: invalid arguments");
  if (n_ranks == 1) return 0.0;
  const double others = static_cast<double>(n_ranks) - 1.0;
  const double alpha = arch.net_latency_us * 1e-6;
  const double beta = arch.net_bw_gbs * kGiga;
  // (P-1)·B through rank 0's port inbound (the gather) and outbound (the
  // broadcast), one message latency per transfer.
  const double leg = others * bytes / beta;
  const double folded = others * bytes;
  if (!model.cpe_offload) {
    // Each received vector is folded on the MPE before the next one, with
    // a scheduling gap per fold.
    return 2.0 * others * alpha + 2.0 * leg + folded / mpe_reduce_bw(arch) +
           others * kMpeSched;
  }
  // The CPE fold streams under the receives; the broadcast follows it.
  return 2.0 * others * alpha + std::max(leg, folded / cpe_reduce_bw(arch)) +
         leg;
}

double modeled_host_allreduce_time(double bytes, std::size_t n_ranks,
                                   const ArchParams& arch,
                                   const AllreduceModel& model) {
  const bool power_of_two = (n_ranks & (n_ranks - 1)) == 0;
  const double doubles = bytes / static_cast<double>(sizeof(double));
  if (power_of_two && doubles >= static_cast<double>(n_ranks)) {
    return modeled_allreduce_time(bytes, n_ranks, arch, model);
  }
  return modeled_gather_allreduce_time(bytes, n_ranks, arch, model);
}

double modeled_hierarchical_allreduce_time(
    double bytes, std::size_t n_ranks, const ArchParams& arch,
    const HierarchicalAllreduceModel& model) {
  SWRAMAN_REQUIRE(bytes >= 0.0 && n_ranks >= 1,
                  "modeled_hierarchical_allreduce_time: invalid arguments");
  if (n_ranks == 1) return 0.0;
  const std::size_t m =
      std::clamp<std::size_t>(model.node_size, 1, n_ranks);
  const std::size_t g = (n_ranks + m - 1) / m;
  const double members = static_cast<double>(m);
  const double rma_bw = arch.rma_bw_gbs * kGiga;
  const double rma_latency_s =
      arch.rma_latency_cycles / (arch.pe_freq_ghz * kGiga);

  double t = 0.0;
  if (m > 1) {
    // Stage 1: node members stream their vectors to the leader over the
    // CPE RMA mesh while the leader's chunked LDM pipeline folds them in;
    // wire and reduce overlap, latency is per-member.
    t += std::max((members - 1.0) * bytes / rma_bw,
                  (members - 1.0) * bytes / cpe_reduce_bw(arch)) +
         (members - 1.0) * rma_latency_s;
    // Stage 3: leader broadcasts the global sum back over the mesh.
    t += bytes / rma_bw + rma_latency_s;
  }
  // Stage 2: leaders run the CPE-offloaded flat exchange over the (much
  // smaller) inter-node network, as the host runtime schedules it.
  t += modeled_host_allreduce_time(bytes, g, arch, AllreduceModel{true});
  // Orchestration: the MPE schedules the level transitions.
  t += 2.0 * kMpeSched;
  return t;
}

}  // namespace swraman::sunway
