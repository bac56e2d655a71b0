#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/allreduce_select.hpp"
#include "parallel/comm.hpp"
#include "sunway/cost_model.hpp"
#include "robustness/fault.hpp"

// Property-based sweep over the whole collectives surface: every
// AllreduceAlgorithm × rank counts {1, 2, 3, 4, 7, 8} × payload sizes
// {0 (empty), 1, 31 (prime), 1000 (not divisible by most P), 20011
// (large prime)} on seeded random vectors.
//
// Correctness contract (comm.hpp): where ReduceScatterAllgather and
// CpePipelined fall back to the gather to rank 0 (non-power-of-two P, or
// fewer elements than ranks) they reduce in ascending rank order and must
// match a serial fold bitwise; every other path reassociates the sum, so it
// is held to a reassociation bound of a few ulp per combining level.

namespace swraman::parallel {
namespace {

constexpr AllreduceAlgorithm kAll[] = {
    AllreduceAlgorithm::ReduceScatterAllgather,
    AllreduceAlgorithm::CpePipelined,
    AllreduceAlgorithm::Hierarchical,
    AllreduceAlgorithm::Auto,
};

constexpr std::size_t kRankCounts[] = {1, 2, 3, 4, 7, 8};
constexpr std::size_t kSizes[] = {0, 1, 31, 1000};

// Seeded per-(rank, size) input — every rank regenerates the full set, so
// the expected serial fold needs no communication.
std::vector<double> rank_input(std::uint32_t seed, std::size_t rank,
                               std::size_t n) {
  std::mt19937 rng(seed + 1000003u * static_cast<std::uint32_t>(rank));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

// The gather fallback's reduction order: ascending ranks, left fold.
std::vector<double> serial_fold(std::uint32_t seed, std::size_t p,
                                std::size_t n) {
  std::vector<double> acc = rank_input(seed, 0, n);
  for (std::size_t r = 1; r < p; ++r) {
    const std::vector<double> in = rank_input(seed, r, n);
    for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
  }
  return acc;
}

// Reassociation bound: |x - ref| for a reordered p-term sum is at most a
// few ulp of the intermediate magnitudes per combining level. Inputs are
// in [-1, 1], so intermediates are bounded by p and eps * p * log2(p) * C
// with a small constant covers every tree shape the algorithms use.
double reassociation_tol(std::size_t p, double ref) {
  const double eps = std::numeric_limits<double>::epsilon();
  const double levels = std::ceil(std::log2(static_cast<double>(p) + 1.0));
  const double magnitude =
      std::max(std::abs(ref), static_cast<double>(p));
  return 8.0 * eps * magnitude * (levels + 1.0);
}

void check_algorithm(AllreduceAlgorithm alg, std::size_t p, std::size_t n,
                     std::uint32_t seed, std::size_t node_size) {
  CommConfig cfg;
  cfg.node_size = node_size;
  const std::vector<double> expected = serial_fold(seed, p, n);
  const bool flat = alg == AllreduceAlgorithm::ReduceScatterAllgather ||
                    alg == AllreduceAlgorithm::CpePipelined;
  const bool gather_fallback = flat && (!std::has_single_bit(p) || n < p);
  run_spmd(
      p,
      [&](Communicator& comm) {
        std::vector<double> data = rank_input(seed, comm.rank(), n);
        comm.allreduce(data, alg);
        ASSERT_EQ(data.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          if (gather_fallback) {
            // Bitwise: documented ascending-rank reduction order.
            ASSERT_EQ(data[i], expected[i])
                << allreduce_algorithm_name(alg) << " gather fallback "
                << "mismatch at element " << i << " (P=" << p
                << ", n=" << n << ")";
          } else {
            ASSERT_NEAR(data[i], expected[i],
                        reassociation_tol(p, expected[i]))
                << allreduce_algorithm_name(alg) << " at element " << i
                << " (P=" << p << ", n=" << n
                << ", node_size=" << node_size << ")";
          }
        }
      },
      cfg);
}

TEST(AllreduceProperty, AllAlgorithmsAllRankCountsAllSizes) {
  std::uint32_t seed = 42;
  for (const AllreduceAlgorithm alg : kAll) {
    for (const std::size_t p : kRankCounts) {
      for (const std::size_t n : kSizes) {
        SCOPED_TRACE(testing::Message()
                     << allreduce_algorithm_name(alg) << " P=" << p
                     << " n=" << n);
        check_algorithm(alg, p, n, seed++, /*node_size=*/4);
      }
    }
  }
}

TEST(AllreduceProperty, LargePayloadNonDivisibleByRanks) {
  // 20011 is prime: no rank count divides it, exercising every uneven
  // chunking path (rsag windows, hierarchical groups).
  std::uint32_t seed = 1234;
  for (const AllreduceAlgorithm alg : kAll) {
    for (const std::size_t p : {std::size_t{3}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message()
                   << allreduce_algorithm_name(alg) << " P=" << p);
      check_algorithm(alg, p, 20011, seed++, /*node_size=*/4);
    }
  }
}

TEST(AllreduceProperty, HierarchicalNodeSizeSweep) {
  // node_size 1 (every rank a leader — degenerates to the leader rsag),
  // equal to P, larger than P (clamped), and non-divisors of P.
  std::uint32_t seed = 777;
  for (const std::size_t node_size :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{9}}) {
    for (const std::size_t p : {std::size_t{4}, std::size_t{7}}) {
      SCOPED_TRACE(testing::Message()
                   << "node_size=" << node_size << " P=" << p);
      check_algorithm(AllreduceAlgorithm::Hierarchical, p, 257, seed++,
                      node_size);
    }
  }
}

TEST(AllreduceProperty, EmptyPayloadIsANoOpNotABarrier) {
  // An empty allreduce must not turn into a barrier — that would deadlock
  // any rank pair whose collective schedules diverge on empty payloads
  // (and corrupt generation counts when issued from iallreduce
  // communication threads).
  for (const AllreduceAlgorithm alg : kAll) {
    run_spmd(3, [alg](Communicator& comm) {
      std::vector<double> empty;
      comm.allreduce(empty, alg);  // must return immediately on every rank
      EXPECT_TRUE(empty.empty());
    });
  }
}

TEST(AllreduceProperty, SingleRankIsIdentity) {
  for (const AllreduceAlgorithm alg : kAll) {
    run_spmd(1, [alg](Communicator& comm) {
      std::vector<double> data = {1.5, -2.25, 3.125};
      const std::vector<double> orig = data;
      comm.allreduce(data, alg);
      EXPECT_EQ(data, orig);
    });
  }
}

TEST(AllreduceProperty, AutoResolvesIdenticallyOnEveryRank) {
  // Auto must be a pure function of (bytes, P, node_size): all ranks pick
  // the same algorithm, and the pick is reported by the selector.
  const AllreduceChoice choice =
      select_allreduce(1000 * sizeof(double), 7, 4);
  EXPECT_NE(choice.algorithm, AllreduceAlgorithm::Auto);
  EXPECT_GT(choice.modeled_seconds, 0.0);
  const AllreduceChoice again =
      select_allreduce(1000 * sizeof(double), 7, 4);
  EXPECT_EQ(choice.algorithm, again.algorithm);
  EXPECT_EQ(choice.modeled_seconds, again.modeled_seconds);
}

TEST(AllreduceProperty, SelectorPrefersHierarchicalAtScale) {
  // The acceptance regime of the bench: >= 16 ranks, >= 1 MB payloads.
  const AllreduceChoice choice = select_allreduce(1 << 20, 16, 4);
  EXPECT_EQ(choice.algorithm, AllreduceAlgorithm::Hierarchical);
}

TEST(AllreduceProperty, SelectorPicksOnlyCpePipelinedOrHierarchical) {
  // The premise of the four-value enum: on sw26010pro(), the architecture
  // every Auto resolution uses, the selector never picks the flat MPE-side
  // ReduceScatterAllgather. P = 2..4096 (every P below 32, then steps of
  // about 6%), node_size = 1..32, payloads 1 B..128 MB (2^k and 1.5 * 2^k).
  constexpr double kMaxBytes = 128.0 * (1 << 20);
  std::size_t cpe_pipelined = 0;
  std::size_t hierarchical = 0;
  for (std::size_t p = 2; p <= 4096; p += std::max<std::size_t>(1, p / 16)) {
    for (std::size_t node_size = 1; node_size <= 32; ++node_size) {
      for (double bytes = 1.0; bytes <= kMaxBytes; bytes *= 2.0) {
        for (const double b : {bytes, 1.5 * bytes}) {
          if (b > kMaxBytes) continue;
          const AllreduceChoice c = select_allreduce(b, p, node_size);
          ASSERT_GT(c.modeled_seconds, 0.0);
          if (c.algorithm == AllreduceAlgorithm::CpePipelined) {
            ++cpe_pipelined;
          } else if (c.algorithm == AllreduceAlgorithm::Hierarchical) {
            ++hierarchical;
          } else {
            ADD_FAILURE() << "selector picked "
                          << allreduce_algorithm_name(c.algorithm)
                          << " at bytes=" << b << " P=" << p
                          << " node_size=" << node_size;
          }
        }
      }
    }
  }
  // Both kept algorithms win somewhere, so neither is dead either.
  EXPECT_GT(cpe_pipelined, 0u);
  EXPECT_GT(hierarchical, 0u);
}

// The flat algorithms' arch: every node member shares the injection port.
sunway::ArchParams contended_arch(std::size_t node_size, std::size_t p) {
  sunway::ArchParams arch = sunway::sw26010pro();
  arch.net_bw_gbs /=
      static_cast<double>(std::clamp<std::size_t>(node_size, 1, p));
  return arch;
}

TEST(AllreduceCost, GatherFallbackIsPricedThroughRankZero) {
  // P = 6 is not a power of two, so allreduce_rsag gathers every vector to
  // rank 0 and broadcasts the sum: 5 * B through rank 0's port each way,
  // with the CPE fold streaming under the receives.
  const sunway::ArchParams arch = sunway::sw26010pro();
  const double bytes = 4099.0 * sizeof(double);
  const double alpha = arch.net_latency_us * 1e-6;
  const double leg = 5.0 * bytes / (arch.net_bw_gbs * 1e9);
  const double cpe_fold =
      5.0 * bytes /
      (std::min(arch.dma_bw_gbs, arch.node_mem_bw_gbs) * 1e9 / 1.5);
  const double want = 10.0 * alpha + std::max(leg, cpe_fold) + leg;
  const double got = modeled_allreduce_seconds(
      AllreduceAlgorithm::CpePipelined, bytes, 6, /*node_size=*/1, arch);
  EXPECT_DOUBLE_EQ(got, want);
  // Dearer than the Rabenseifner price of the same payload, which moves
  // only 2 (P - 1) / P * B per rank.
  EXPECT_GT(got, sunway::modeled_allreduce_time(bytes, 6, arch,
                                                sunway::AllreduceModel{true}));
  // The MPE-side variant runs the same exchange and folds on the MPE.
  EXPECT_GT(modeled_allreduce_seconds(AllreduceAlgorithm::ReduceScatterAllgather,
                                      bytes, 6, 1, arch),
            got);
  // Fewer doubles than ranks falls back too, at a power-of-two P.
  EXPECT_DOUBLE_EQ(
      modeled_allreduce_seconds(AllreduceAlgorithm::CpePipelined,
                                7.0 * sizeof(double), 8, 1, arch),
      sunway::modeled_gather_allreduce_time(7.0 * sizeof(double), 8, arch,
                                            sunway::AllreduceModel{true}));
}

TEST(AllreduceCost, HierarchicalLeadersOnThreeNodesPayTheGather) {
  // 12 ranks in nodes of 4 leave 3 leaders, who run the gather fallback;
  // 16 ranks leave 4, who run Rabenseifner. The intra-node stages are the
  // same, so the difference is the leaders' stage alone.
  const sunway::ArchParams arch = sunway::sw26010pro();
  const double bytes = 1 << 20;
  const sunway::AllreduceModel cpe{true};
  const double three = modeled_allreduce_seconds(
      AllreduceAlgorithm::Hierarchical, bytes, 12, 4, arch);
  const double four = modeled_allreduce_seconds(
      AllreduceAlgorithm::Hierarchical, bytes, 16, 4, arch);
  EXPECT_NEAR(three - sunway::modeled_gather_allreduce_time(bytes, 3, arch, cpe),
              four - sunway::modeled_allreduce_time(bytes, 4, arch, cpe),
              1e-12 * four);
}

TEST(AllreduceCost, PowerOfTwoRankCountsKeepTheRabenseifnerPrice) {
  // With at least one double per rank, a power-of-two P runs recursive
  // halving + doubling, and both flat algorithms keep their price bitwise.
  for (std::size_t p = 2; p <= 4096; p *= 2) {
    for (const std::size_t node_size : {std::size_t{1}, std::size_t{4}}) {
      const sunway::ArchParams arch = contended_arch(node_size, p);
      for (const double bytes :
           {static_cast<double>(p * sizeof(double)), 1.5 * (1 << 20)}) {
        EXPECT_EQ(modeled_allreduce_seconds(
                      AllreduceAlgorithm::ReduceScatterAllgather, bytes, p,
                      node_size),
                  sunway::modeled_allreduce_time(
                      bytes, p, arch, sunway::AllreduceModel{false}))
            << "P=" << p << " bytes=" << bytes;
        EXPECT_EQ(modeled_allreduce_seconds(AllreduceAlgorithm::CpePipelined,
                                            bytes, p, node_size),
                  sunway::modeled_allreduce_time(
                      bytes, p, arch, sunway::AllreduceModel{true}))
            << "P=" << p << " bytes=" << bytes;
      }
    }
  }
}

TEST(AllreduceProperty, DegenerateInputsResolveToAKeptValueAtZeroSeconds) {
  for (const std::size_t node_size : {std::size_t{1}, std::size_t{4}}) {
    for (const AllreduceChoice c :
         {select_allreduce(0.0, 8, node_size),
          select_allreduce(1 << 20, 1, node_size)}) {
      EXPECT_EQ(c.algorithm, AllreduceAlgorithm::CpePipelined);
      EXPECT_EQ(c.modeled_seconds, 0.0);
    }
    EXPECT_EQ(modeled_allreduce_seconds(AllreduceAlgorithm::Auto, 0.0, 8,
                                        node_size),
              0.0);
  }
}

TEST(AllreducePropertyFaults, SurvivesInjectedDropsAllAlgorithms) {
  CommConfig cfg;
  cfg.recv_timeout_s = 0.25;
  cfg.recv_retries = 2;
  cfg.send_retries = 10;
  cfg.backoff_base_s = 1e-5;
  cfg.backoff_max_s = 1e-3;
  cfg.node_size = 2;

  std::uint32_t seed = 5150;
  for (const AllreduceAlgorithm alg : kAll) {
    fault::ScopedFaults guard;
    fault::FaultInjector::instance().set_seed(17);
    fault::FaultSpec spec;
    spec.probability = 0.1;  // retry budget 10 makes exhaustion negligible
    fault::FaultInjector::instance().configure(fault::kCommSendDrop, spec);

    const std::size_t p = 4;
    const std::size_t n = 129;
    const std::vector<double> expected = serial_fold(seed, p, n);
    run_spmd(
        p,
        [&](Communicator& comm) {
          std::vector<double> data = rank_input(seed, comm.rank(), n);
          comm.allreduce(data, alg);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_NEAR(data[i], expected[i],
                        reassociation_tol(p, expected[i]))
                << allreduce_algorithm_name(alg) << " under drops, element "
                << i;
          }
        },
        cfg);
    ++seed;
  }
}

TEST(AllreduceProperty, RepeatedMixedAlgorithmCallsStayIsolated) {
  // Back-to-back collectives with different algorithms on one communicator:
  // per-operation tag bases must keep their message namespaces disjoint.
  run_spmd(4, [](Communicator& comm) {
    for (int round = 0; round < 3; ++round) {
      for (const AllreduceAlgorithm alg : kAll) {
        std::vector<double> data = {static_cast<double>(comm.rank() + 1)};
        comm.allreduce(data, alg);
        EXPECT_DOUBLE_EQ(data[0], 10.0);
      }
    }
  });
}

}  // namespace
}  // namespace swraman::parallel
