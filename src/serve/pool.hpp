#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lockcheck.hpp"
#include "serve/scheduler.hpp"

// Work-stealing worker pool (DESIGN.md S11). Each worker owns a deque:
// continuations (row/assembly tasks unlocked by a completion) are pushed
// to the *front* of the finishing worker's deque and popped from the
// front — depth-first, cache-warm. Idle workers first steal from the
// *back* of a victim's deque (oldest, widest work), then pull a
// cost-model-sized batch from the central fair-share scheduler through
// the refill callback, and finally park on a condition variable with a
// short timed wait.
//
// This file is the repo's only sanctioned home for raw std::thread
// construction outside common/threads.* (scripts/lint.py enforces it):
// every thread is joined in the destructor, and a simulated worker death
// (fault site serve.worker.death) exits the loop only after handing the
// worker's entire deque back through the orphan callback — the adoption
// path the robustness layer's CPE-death recovery established.

namespace swraman::serve {

// Fault site: a worker thread dies before starting its next task. The
// last surviving worker ignores the fault (the service must keep making
// progress), mirroring the balancer's surviving-CPE guarantee.
inline constexpr const char* kFaultWorkerDeath = "serve.worker.death";

class WorkerPool {
 public:
  struct Options {
    std::size_t n_workers = 2;
    bool steal = true;             // disable -> strict per-worker FIFO
    // Log-context prefix of the worker threads: worker i tags its log
    // lines "<log_prefix>/w<i>" ("w<i>" when empty), so a shard's worker
    // output is grep-able by shard and worker id.
    std::string log_prefix;
  };

  // run: execute one task (must not throw — the service owns retries).
  // refill: fetch up to (target_seconds, max_tasks) of central work;
  //         returns the number of tasks appended to the vector.
  // orphan: tasks abandoned by a dying worker, to be re-queued centrally.
  using RunFn = std::function<void(std::size_t worker, TaskRef ref)>;
  using RefillFn =
      std::function<std::size_t(double target_seconds, std::size_t max_tasks,
                                std::vector<TaskRef>* out)>;
  using OrphanFn = std::function<void(const std::vector<TaskRef>& tasks)>;

  WorkerPool(Options options, RunFn run, RefillFn refill, OrphanFn orphan);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Launches the worker threads (idempotent). A pool can be constructed
  // paused, jobs submitted deterministically, then started.
  void start();

  // Asks workers to finish and joins them. Outstanding local tasks are
  // still executed before a worker exits.
  void stop();

  // Push a continuation onto `worker`'s deque front (any thread).
  void push_local(std::size_t worker, TaskRef ref);

  // Wake idle workers: new central work is available.
  void notify();

  [[nodiscard]] std::size_t n_workers() const { return deques_.size(); }
  [[nodiscard]] std::size_t alive() const {
    return alive_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool started() const {
    return started_.load(std::memory_order_relaxed);
  }

 private:
  struct Deque {
    lockcheck::CheckedMutex mutex{"serve.pool.deque"};
    std::deque<TaskRef> tasks;
  };

  void worker_loop(std::size_t id);
  bool pop_local(std::size_t id, TaskRef* out);
  bool steal(std::size_t thief, TaskRef* out);
  // True when the worker should simulate death; drains the deque into the
  // orphan callback (including `pending` if any).
  bool die(std::size_t id, const TaskRef* pending);

  Options options_;
  RunFn run_;
  RefillFn refill_;
  OrphanFn orphan_;
  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> threads_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> alive_{0};
  lockcheck::CheckedMutex idle_mutex_{"serve.pool.idle"};
  lockcheck::CheckedCondVar idle_cv_;
};

}  // namespace swraman::serve
