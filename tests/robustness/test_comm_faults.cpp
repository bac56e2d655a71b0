#include "parallel/comm.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "robustness/fault.hpp"

namespace swraman::parallel {
namespace {

// Fast-failing policy so timeout paths resolve in milliseconds.
CommConfig quick_config() {
  CommConfig cfg;
  cfg.recv_timeout_s = 0.05;
  cfg.recv_retries = 1;
  cfg.send_retries = 8;
  cfg.backoff_base_s = 1e-5;
  cfg.backoff_max_s = 1e-3;
  cfg.stall_s = 1e-4;
  return cfg;
}

TEST(CommFaults, DroppedSendsAreRetransmitted) {
  fault::ScopedFaults guard;
  fault::FaultInjector::instance().set_seed(11);
  fault::FaultSpec spec;
  // Drop a quarter of all message attempts. The retry budget (8) makes
  // exhaustion astronomically unlikely (0.25^9 per send) even though
  // thread interleaving decides which rank consumes which RNG draw.
  spec.probability = 0.25;
  fault::FaultInjector::instance().configure(fault::kCommSendDrop, spec);
  run_spmd(
      2,
      [](Communicator& comm) {
        for (int round = 0; round < 20; ++round) {
          if (comm.rank() == 0) {
            comm.send(1, {1.0 * round, 2.0, 3.0}, round);
            const std::vector<double> back = comm.recv(1, 100 + round);
            ASSERT_EQ(back.size(), 1u);
            EXPECT_DOUBLE_EQ(back[0], round + 0.5);
          } else {
            const std::vector<double> msg = comm.recv(0, round);
            ASSERT_EQ(msg.size(), 3u);
            EXPECT_DOUBLE_EQ(msg[0], 1.0 * round);
            comm.send(0, {round + 0.5}, 100 + round);
          }
        }
      },
      quick_config());
}

TEST(CommFaults, SendRetryBudgetExhaustionThrowsTimeout) {
  fault::ScopedFaults guard;
  fault::FaultSpec spec;
  spec.probability = 1.0;  // every attempt dropped
  fault::FaultInjector::instance().configure(fault::kCommSendDrop, spec);
  EXPECT_THROW(run_spmd(
                   2,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) comm.send(1, {1.0});
                     // rank 1 exits; its mailbox dies with the context.
                   },
                   quick_config()),
               TimeoutError);
}

TEST(CommFaults, RecvFromSilentPeerTimesOut) {
  fault::ScopedFaults guard;  // no faults needed: the peer just never sends
  EXPECT_THROW(run_spmd(
                   2,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       (void)comm.recv(1, 7);
                     }
                   },
                   quick_config()),
               TimeoutError);
}

TEST(CommFaults, AllreduceSurvivesMessageDrops) {
  fault::ScopedFaults guard;
  fault::FaultInjector::instance().set_seed(3);
  fault::FaultSpec spec;
  spec.probability = 0.1;
  fault::FaultInjector::instance().configure(fault::kCommSendDrop, spec);
  for (const AllreduceAlgorithm alg :
       {AllreduceAlgorithm::ReduceScatterAllgather,
        AllreduceAlgorithm::CpePipelined, AllreduceAlgorithm::Hierarchical}) {
    run_spmd(
        4,
        [alg](Communicator& comm) {
          std::vector<double> data(17);
          for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<double>(comm.rank() + i);
          }
          comm.allreduce(data, alg);
          for (std::size_t i = 0; i < data.size(); ++i) {
            // sum over ranks r of (r + i) = 6 + 4i
            EXPECT_DOUBLE_EQ(data[i], 6.0 + 4.0 * i) << "element " << i;
          }
        },
        quick_config());
  }
}

TEST(CommFaults, BarrierSurvivesInjectedStalls) {
  fault::ScopedFaults guard;
  fault::FaultInjector::instance().set_seed(5);
  fault::FaultSpec spec;
  spec.probability = 0.5;
  fault::FaultInjector::instance().configure(fault::kCommStall, spec);
  run_spmd(
      3,
      [](Communicator& comm) {
        for (int i = 0; i < 5; ++i) comm.barrier();
      },
      quick_config());
}

TEST(CommFaults, RecvDelayInjectionDoesNotLoseData) {
  fault::ScopedFaults guard;
  fault::FaultSpec spec;
  spec.probability = 1.0;  // every recv pays the injected delay
  fault::FaultInjector::instance().configure(fault::kCommRecvDelay, spec);
  run_spmd(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(1, {4.25}, 1);
        } else {
          const std::vector<double> msg = comm.recv(0, 1);
          ASSERT_EQ(msg.size(), 1u);
          EXPECT_DOUBLE_EQ(msg[0], 4.25);
        }
      },
      quick_config());
}

}  // namespace
}  // namespace swraman::parallel
