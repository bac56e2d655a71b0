#pragma once

#include <cstddef>

#include "parallel/comm.hpp"
#include "sunway/arch.hpp"

// Cost-model-driven Allreduce algorithm selection (DESIGN.md S10). Every
// concrete AllreduceAlgorithm has an analytic time under the calibrated
// sunway cost model; AllreduceAlgorithm::Auto resolves to the argmin for
// the given payload, rank count, and node-group size. Selection is a pure
// function of its arguments — every rank evaluates the same inputs and
// lands on the same algorithm without communicating.

namespace swraman::parallel {

struct AllreduceChoice {
  AllreduceAlgorithm algorithm = AllreduceAlgorithm::CpePipelined;
  double modeled_seconds = 0.0;
};

// Modeled time of one allreduce of `bytes` over `n_ranks` under the given
// concrete algorithm, as Communicator::allreduce schedules it: the flat
// exchange and the leaders' stage gather through rank 0 when their rank
// count is not a power of two or exceeds the payload's doubles
// (sunway::modeled_host_allreduce_time).
// Auto evaluates to the minimum, i.e. the time of the algorithm it would
// pick. node_size sets the flat algorithms' port sharing and
// Hierarchical's node groups.
double modeled_allreduce_seconds(
    AllreduceAlgorithm algorithm, double bytes, std::size_t n_ranks,
    std::size_t node_size,
    const sunway::ArchParams& arch = sunway::sw26010pro());

// Same, converted to whole MPE cycles (rounded to an integer value so
// obs counter sums of it stay exact and deterministic).
double modeled_allreduce_cycles(
    AllreduceAlgorithm algorithm, double bytes, std::size_t n_ranks,
    std::size_t node_size,
    const sunway::ArchParams& arch = sunway::sw26010pro());

// Picks the cheapest concrete algorithm. Evaluation order is fixed
// (ReduceScatterAllgather, CpePipelined, Hierarchical) and ties keep the
// earlier entry, so the choice is deterministic. Degenerate inputs (one
// rank or empty payload) resolve to CpePipelined at 0 s. On sw26010pro()
// the pick is always CpePipelined or Hierarchical (DESIGN.md S10).
AllreduceChoice select_allreduce(
    double bytes, std::size_t n_ranks, std::size_t node_size,
    const sunway::ArchParams& arch = sunway::sw26010pro());

}  // namespace swraman::parallel
