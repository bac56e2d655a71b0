#include "parallel/allreduce_select.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "sunway/cost_model.hpp"

namespace swraman::parallel {

double modeled_allreduce_seconds(AllreduceAlgorithm algorithm, double bytes,
                                 std::size_t n_ranks, std::size_t node_size,
                                 const sunway::ArchParams& arch) {
  SWRAMAN_REQUIRE(bytes >= 0.0 && n_ranks >= 1,
                  "modeled_allreduce_seconds: invalid arguments");
  if (n_ranks == 1 || bytes == 0.0) return 0.0;
  // Flat algorithms put every rank on the wire at once, so the node_size
  // ranks sharing each node's injection port split its bandwidth between
  // them. The hierarchical algorithm funnels inter-node traffic through
  // one leader per node, which therefore sees the full port (its model
  // uses the uncontended arch).
  sunway::ArchParams contended = arch;
  contended.net_bw_gbs /=
      static_cast<double>(std::clamp<std::size_t>(node_size, 1, n_ranks));
  switch (algorithm) {
    case AllreduceAlgorithm::ReduceScatterAllgather:
      return sunway::modeled_host_allreduce_time(
          bytes, n_ranks, contended, sunway::AllreduceModel{false});
    case AllreduceAlgorithm::CpePipelined:
      return sunway::modeled_host_allreduce_time(
          bytes, n_ranks, contended, sunway::AllreduceModel{true});
    case AllreduceAlgorithm::Hierarchical:
      return sunway::modeled_hierarchical_allreduce_time(
          bytes, n_ranks, arch,
          sunway::HierarchicalAllreduceModel{node_size});
    case AllreduceAlgorithm::Auto:
      return select_allreduce(bytes, n_ranks, node_size, arch)
          .modeled_seconds;
  }
  return 0.0;
}

double modeled_allreduce_cycles(AllreduceAlgorithm algorithm, double bytes,
                                std::size_t n_ranks, std::size_t node_size,
                                const sunway::ArchParams& arch) {
  return std::floor(modeled_allreduce_seconds(algorithm, bytes, n_ranks,
                                              node_size, arch) *
                        arch.mpe_freq_ghz * 1e9 +
                    0.5);
}

AllreduceChoice select_allreduce(double bytes, std::size_t n_ranks,
                                 std::size_t node_size,
                                 const sunway::ArchParams& arch) {
  SWRAMAN_REQUIRE(bytes >= 0.0 && n_ranks >= 1,
                  "select_allreduce: invalid arguments");
  if (n_ranks == 1 || bytes == 0.0) {
    return AllreduceChoice{AllreduceAlgorithm::CpePipelined, 0.0};
  }
  // Fixed evaluation order; strict < keeps the earlier entry on ties, so
  // identical inputs always produce the identical choice.
  constexpr std::array<AllreduceAlgorithm, 3> kCandidates = {
      AllreduceAlgorithm::ReduceScatterAllgather,
      AllreduceAlgorithm::CpePipelined,
      AllreduceAlgorithm::Hierarchical,
  };
  AllreduceChoice best;
  bool have = false;
  for (const AllreduceAlgorithm a : kCandidates) {
    const double t =
        modeled_allreduce_seconds(a, bytes, n_ranks, node_size, arch);
    if (!have || t < best.modeled_seconds) {
      best = AllreduceChoice{a, t};
      have = true;
    }
  }
  return best;
}

}  // namespace swraman::parallel
