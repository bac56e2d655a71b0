#pragma once

#include <cstddef>
#include <string>

#include "sunway/arch.hpp"

// Analytic performance model for grid kernels on the modeled architectures.
// A kernel execution is summarized by a KernelWorkload (operation counts
// gathered from the *actual* functional execution); the model converts the
// counts into time under each optimization variant of paper Sec. 3.2:
//
//   MpeScalar      — the original single-MPE version (Fig. 12 baseline),
//   CpeTiled       — CPE port with static DMA loop tiling,
//   CpeTiledDb     — + double buffering (DMA/compute overlap, Fig. 6),
//   CpeTiledDbSimd — + 512-bit vectorization (Fig. 7).
//
// Speedups emerge from the counts and the ArchParams ratios, not from
// hard-coded factors.

namespace swraman::sunway {

struct KernelWorkload {
  std::string name;
  double elements = 0;                // independent work items
  double flops_per_element = 0;       // arithmetic per item
  double stream_bytes_per_element = 0;   // regularly streamed in+out
  double irregular_bytes_per_element = 0;  // gathered (WPxy-style) accesses
  // Extra DMA traffic on the scratchpad architecture only (LDM spills when
  // tiles exceed the 256 KB budget); cache-based machines re-hit caches.
  double ldm_refetch_bytes_per_element = 0;
  // Tile-level reuse on the scratchpad architecture: DMA traffic divides by
  // this factor (denser grids share spline-coefficient tiles; > 1 helps the
  // CPE port, the MPE's scattered access order gains nothing).
  double cpe_reuse_factor = 1.0;
  double vectorizable_fraction = 0.9;  // share of flops in SIMD-able loops

  [[nodiscard]] double total_flops() const {
    return elements * flops_per_element;
  }
  [[nodiscard]] double total_bytes() const {
    return elements * (stream_bytes_per_element + irregular_bytes_per_element);
  }
};

enum class Variant {
  MpeScalar,
  CpeTiled,
  CpeTiledDb,
  CpeTiledDbSimd,
};

const char* variant_name(Variant v);

// Modeled execution time in seconds of the workload on one core group of
// `arch` under the given optimization variant.
double modeled_time(const KernelWorkload& w, const ArchParams& arch,
                    Variant variant);

// Modeled core cycles of the same execution: modeled_time converted at the
// clock of the core that runs the kernel (MPE for MpeScalar, PE for the CPE
// variants). This is the machine-time attribute attached to kernel trace
// spans, so profiles compare runs across hosts of different speeds.
double modeled_cycles(const KernelWorkload& w, const ArchParams& arch,
                      Variant variant);

// Modeled time on a cache-based multicore CPU (all cores, vectorized) —
// the Fig. 14 Xeon baseline path.
double modeled_cpu_time(const KernelWorkload& w, const ArchParams& arch);

// Modeled time of a reduce-scatter + allgather Allreduce of `bytes` over
// `n_ranks`, with the local reduction arithmetic executed on the MPE
// (baseline) or offloaded to the CPE cluster (paper Sec. 3.4).
struct AllreduceModel {
  bool cpe_offload = false;  // pipelined CPE local reduction
};

double modeled_allreduce_time(double bytes, std::size_t n_ranks,
                              const ArchParams& arch,
                              const AllreduceModel& model);

// Gather-to-root + broadcast Allreduce of `bytes` over `n_ranks`: rank 0
// receives every other rank's vector and folds it in (on the MPE, or on
// the CPEs under the receives), then sends the sum to every rank. (P-1)·B
// crosses rank 0's port in each direction, one latency per message.
double modeled_gather_allreduce_time(double bytes, std::size_t n_ranks,
                                     const ArchParams& arch,
                                     const AllreduceModel& model);

// The flat Allreduce of a payload of doubles as the host runtime runs it
// (parallel::Communicator's reduce-scatter + allgather): Rabenseifner on a
// power-of-two rank count with at least one double per rank, the gather
// Allreduce otherwise.
double modeled_host_allreduce_time(double bytes, std::size_t n_ranks,
                                   const ArchParams& arch,
                                   const AllreduceModel& model);

// Two-level topology-aware Allreduce (paper Sec. 3.4 / Fig. 15): groups of
// node_size consecutive ranks reduce onto a leader over the intra-node RMA
// mesh (CPE-pipelined), leaders run the CPE-offloaded host exchange
// (modeled_host_allreduce_time) across groups, then each leader
// broadcasts inside its node.
struct HierarchicalAllreduceModel {
  std::size_t node_size = 4;  // ranks per node group (clamped to [1, P])
};

double modeled_hierarchical_allreduce_time(
    double bytes, std::size_t n_ranks, const ArchParams& arch,
    const HierarchicalAllreduceModel& model);

}  // namespace swraman::sunway
