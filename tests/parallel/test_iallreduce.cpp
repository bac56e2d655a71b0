#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "parallel/comm.hpp"

// Non-blocking allreduce: start/test/wait semantics, overlap with other
// collectives (blocking and non-blocking), degenerate cases, and the
// overlap counters.

namespace swraman::parallel {
namespace {

std::vector<double> rank_vector(std::size_t rank, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(rank) + 0.25 * static_cast<double>(i);
  }
  return v;
}

// sum over ranks r of (r + i/4) = p(p-1)/2 + p*i/4
double expected_sum(std::size_t p, std::size_t i) {
  return static_cast<double>(p * (p - 1)) / 2.0 +
         static_cast<double>(p) * 0.25 * static_cast<double>(i);
}

TEST(Iallreduce, WaitReturnsReducedData) {
  for (const AllreduceAlgorithm alg :
       {AllreduceAlgorithm::ReduceScatterAllgather,
        AllreduceAlgorithm::CpePipelined, AllreduceAlgorithm::Hierarchical,
        AllreduceAlgorithm::Auto}) {
    run_spmd(4, [alg](Communicator& comm) {
      AllreduceRequest req = comm.iallreduce(rank_vector(comm.rank(), 37), alg);
      ASSERT_TRUE(req.valid());
      const std::vector<double> out = req.wait();
      EXPECT_FALSE(req.valid());  // wait consumes the handle
      ASSERT_EQ(out.size(), 37u);
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_NEAR(out[i], expected_sum(4, i), 1e-12) << "element " << i;
      }
    });
  }
}

TEST(Iallreduce, TestEventuallyTrueAndWaitIsThenImmediate) {
  run_spmd(3, [](Communicator& comm) {
    AllreduceRequest req =
        comm.iallreduce(rank_vector(comm.rank(), 11),
                        AllreduceAlgorithm::ReduceScatterAllgather);
    while (!req.test()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const std::vector<double> out = req.wait();
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_NEAR(out[i], expected_sum(3, i), 1e-12);
    }
  });
}

TEST(Iallreduce, OverlapsWithLocalComputeAndOtherCollectives) {
  // Two requests in flight plus a blocking allreduce in between: the
  // per-operation tag bases must keep all three message spaces disjoint.
  run_spmd(4, [](Communicator& comm) {
    AllreduceRequest req_a =
        comm.iallreduce(rank_vector(comm.rank(), 513),
                        AllreduceAlgorithm::CpePipelined);
    AllreduceRequest req_b = comm.iallreduce(
        rank_vector(comm.rank(), 129), AllreduceAlgorithm::Hierarchical);

    std::vector<double> blocking = {static_cast<double>(comm.rank())};
    comm.allreduce(blocking, AllreduceAlgorithm::ReduceScatterAllgather);
    EXPECT_DOUBLE_EQ(blocking[0], 6.0);

    const std::vector<double> b = req_b.wait();
    const std::vector<double> a = req_a.wait();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], expected_sum(4, i), 1e-11);
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_NEAR(b[i], expected_sum(4, i), 1e-11);
    }
  });
}

TEST(Iallreduce, EmptyPayloadCompletesImmediately) {
  run_spmd(3, [](Communicator& comm) {
    AllreduceRequest req =
        comm.iallreduce({}, AllreduceAlgorithm::ReduceScatterAllgather);
    EXPECT_TRUE(req.test());  // no communication: done at start
    EXPECT_TRUE(req.wait().empty());
  });
}

TEST(Iallreduce, SingleRankCompletesImmediately) {
  run_spmd(1, [](Communicator& comm) {
    AllreduceRequest req =
        comm.iallreduce({3.5, -1.0}, AllreduceAlgorithm::Hierarchical);
    EXPECT_TRUE(req.test());
    const std::vector<double> out = req.wait();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], 3.5);
    EXPECT_DOUBLE_EQ(out[1], -1.0);
  });
}

TEST(Iallreduce, ManyOutstandingRequestsCompleteInAnyWaitOrder) {
  run_spmd(3, [](Communicator& comm) {
    std::vector<AllreduceRequest> reqs;
    for (int k = 0; k < 6; ++k) {
      reqs.push_back(comm.iallreduce(rank_vector(comm.rank(), 17),
                                     AllreduceAlgorithm::CpePipelined));
    }
    // Wait in reverse start order — completion must not depend on it.
    for (auto it = reqs.rbegin(); it != reqs.rend(); ++it) {
      const std::vector<double> out = it->wait();
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_NEAR(out[i], expected_sum(3, i), 1e-12);
      }
    }
  });
}

TEST(Iallreduce, OverlapCountersAccumulate) {
  obs::Registry::instance().reset_for_testing();
  obs::set_enabled(true);
  run_spmd(2, [](Communicator& comm) {
    AllreduceRequest req =
        comm.iallreduce(rank_vector(comm.rank(), 4097),
                        AllreduceAlgorithm::CpePipelined);
    // Represent overlapped local work.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)req.wait();
  });
  obs::set_enabled(false);
  const auto counters = obs::Registry::instance().counter_values();
  EXPECT_GE(counters.at("comm.iallreduce.calls"), 2.0);
  ASSERT_TRUE(counters.count("comm.allreduce.overlap_ns"));
  EXPECT_GT(counters.at("comm.allreduce.overlap_ns"), 0.0);
  obs::Registry::instance().reset_for_testing();
}

}  // namespace
}  // namespace swraman::parallel
