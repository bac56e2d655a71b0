#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <source_location>
#include <vector>

// SPMD message-passing runtime over std::thread — the stand-in for MPI
// (DESIGN.md S4). Ranks are threads sharing a CommContext of mailboxes;
// the API mirrors the MPI subset the paper's code needs: point-to-point,
// barrier, broadcast, communicator split (the geometry-level sub-groups of
// Fig. 4), and the Allreduce line of paper Sec. 3.4 / Fig. 15: "Reduce-
// Scatter followed by Allgather" with the local reduce on the MPE, the same
// with the reduce offloaded to the CPEs, and the two-level topology-aware
// Hierarchical scheme (DESIGN.md S10).
//
// Fault tolerance: the transport models acknowledged delivery, so a send
// whose message the injector drops (fault site comm.send.drop) is detected
// by the sender and retransmitted with exponential backoff; recv waits with
// a bounded timeout instead of blocking forever on a lost peer and throws
// TimeoutError once its retry budget is spent. All collectives are built on
// send/recv and inherit both behaviours.
//
// Concurrency: collectives may overlap. Every collective call draws a
// per-rank operation sequence number on the calling thread and derives all
// of its internal message tags from it, so a blocking allreduce can run
// while non-blocking iallreduce operations are still in flight without tag
// collisions — as long as every rank issues its collective calls in the
// same program order (the usual MPI requirement).

namespace swraman::parallel {

// Retry/backoff policy shared by every rank of a communicator (split
// children inherit the parent's config).
struct CommConfig {
  double recv_timeout_s = 60.0;   // first recv wait; doubles per retry
  int recv_retries = 3;           // additional timed waits after the first
  int send_retries = 8;           // retransmissions after a dropped send
  double backoff_base_s = 1e-4;   // first retransmit backoff; doubles
  double backoff_max_s = 0.05;    // backoff ceiling
  double stall_s = 1e-3;          // injected delay for comm.stall / delay
  // Ranks per node group for AllreduceAlgorithm::Hierarchical: consecutive
  // ranks [k*node_size, (k+1)*node_size) share one "node" whose intra
  // reduction runs over the CPE RMA mesh (clamped to [1, size()]).
  std::size_t node_size = 4;
};

// ReduceScatterAllgather and CpePipelined send the same messages and add in
// the same order; only the cost model tells them apart (local reduce on the
// MPE or on the CPEs, sunway::AllreduceModel::cpe_offload).
enum class AllreduceAlgorithm {
  ReduceScatterAllgather,  // Rabenseifner, local reduce on the MPE (Fig. 15)
  CpePipelined,            // same exchange, local reduce offloaded to CPEs
  Hierarchical,            // two-level: intra-node RMA mesh, leaders RSAG
  Auto,                    // cost-model-driven pick among the concrete ones
};

const char* allreduce_algorithm_name(AllreduceAlgorithm a);

class CommContext;
struct Hierarchy;

// Handle of a non-blocking allreduce started with Communicator::iallreduce.
// Exactly one of wait() must consume the handle; destroying a live request
// without wait() still completes the collective (so peers cannot deadlock)
// but is reported as the check violation "coll.abandoned_request" and
// counted under comm.iallreduce.abandoned — the reduced data is lost.
class AllreduceRequest {
 public:
  AllreduceRequest() = default;
  AllreduceRequest(AllreduceRequest&&) noexcept = default;
  AllreduceRequest& operator=(AllreduceRequest&& other) noexcept;
  AllreduceRequest(const AllreduceRequest&) = delete;
  AllreduceRequest& operator=(const AllreduceRequest&) = delete;
  // Destroying a live handle still completes the exchange (peers block on
  // our messages) but reports commcheck::kRuleCollAbandoned — the reduced
  // data was thrown away.
  ~AllreduceRequest();

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  // Non-blocking completion probe.
  [[nodiscard]] bool test() const;

  // Blocks until the collective finished, rethrows any error raised on the
  // communication thread, and returns the reduced data. Consumes the
  // handle. Records comm.allreduce.overlap_ns (communication time that ran
  // concurrently with the caller) and comm.allreduce.wait_ns (time the
  // caller stalled here).
  std::vector<double> wait();

 private:
  friend class Communicator;
  struct State;
  explicit AllreduceRequest(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  // Joins the worker and files the abandonment violation if the handle is
  // live and un-waited. Runs on the owner thread, never the worker.
  void abandon() noexcept;
  std::shared_ptr<State> state_;
};

class Communicator {
 public:
  Communicator(std::shared_ptr<CommContext> ctx, std::size_t rank);

  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] std::size_t size() const;

  void barrier();

  // Reliable send: retransmits (with exponential backoff) when the
  // transport drops the message; throws TimeoutError once the retry budget
  // of the communicator's CommConfig is exhausted. The source_location
  // defaults carry the caller's site into the checkers' reports; never
  // pass them explicitly.
  void send(std::size_t dest, const std::vector<double>& data, int tag = 0,
            std::source_location loc = std::source_location::current());

  // Timed receive: waits in bounded, doubling slices and throws
  // TimeoutError after CommConfig::recv_retries extra waits go unanswered.
  [[nodiscard]] std::vector<double> recv(
      std::size_t src, int tag = 0,
      std::source_location loc = std::source_location::current());

  [[nodiscard]] const CommConfig& config() const;

  // Root's data is copied to everyone.
  void broadcast(std::vector<double>& data, std::size_t root = 0);

  // Element-wise sum across ranks; result available on every rank. All
  // ranks must pass the same number of elements. An empty payload is a
  // no-op on every rank (NOT a synchronization point).
  void allreduce(std::vector<double>& data,
                 AllreduceAlgorithm algorithm = AllreduceAlgorithm::Auto);

  // Non-blocking allreduce: takes ownership of the payload, runs the
  // exchange on a communication thread, and returns a handle whose wait()
  // yields the reduced vector. Collective-order rules are as for
  // allreduce(): every rank must start its iallreduce calls (and any other
  // collectives) in the same program order. Auto resolution and (for
  // Hierarchical) topology construction happen on the calling thread, so
  // the background thread never issues collective-ordering operations.
  [[nodiscard]] AllreduceRequest iallreduce(
      std::vector<double> data,
      AllreduceAlgorithm algorithm = AllreduceAlgorithm::Auto);

  // Collective: every rank calls with its color; returns a communicator
  // over the ranks sharing the color (ranks ordered by parent rank).
  [[nodiscard]] Communicator split(int color);

 private:
  std::shared_ptr<CommContext> ctx_;
  std::size_t rank_;
  // Cached two-level topology for Hierarchical (built collectively on
  // first use; shared with iallreduce communication threads).
  std::shared_ptr<Hierarchy> hierarchy_;

  // Draws this rank's next collective-operation tag base (calling thread
  // only — never from a communication thread).
  int next_tag_base();
  // Resolves Auto against the calibrated sunway cost model.
  [[nodiscard]] AllreduceAlgorithm resolve_algorithm(AllreduceAlgorithm a,
                                                     std::size_t n) const;
  // Collectively builds (or reuses) the node-group topology.
  void ensure_hierarchy();

  void allreduce_with_base(std::vector<double>& data,
                           AllreduceAlgorithm algorithm, int tag_base);
  void broadcast_with_tag(std::vector<double>& data, std::size_t root,
                          int tag);
  void allreduce_rsag(std::vector<double>& data, int tag_base);
  void allreduce_hierarchical(std::vector<double>& data, int tag_base);
};

// Launches fn on n_ranks threads, each receiving its Communicator. Any
// exception on a rank is rethrown on the caller after all threads join.
// The config sets the communicator's timeout/retry policy.
void run_spmd(std::size_t n_ranks,
              const std::function<void(Communicator&)>& fn,
              const CommConfig& config = {});

}  // namespace swraman::parallel
