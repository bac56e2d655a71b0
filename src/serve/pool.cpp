#include "serve/pool.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"

namespace swraman::serve {

namespace {

// Central-pull batch of an idle worker: tasks of one tenant until their
// summed modeled cost passes the target, at most kPullMaxTasks of them.
constexpr double kPullTargetSeconds = 0.05;
constexpr std::size_t kPullMaxTasks = 64;

}  // namespace

WorkerPool::WorkerPool(Options options, RunFn run, RefillFn refill,
                       OrphanFn orphan)
    : options_(options),
      run_(std::move(run)),
      refill_(std::move(refill)),
      orphan_(std::move(orphan)) {
  SWRAMAN_REQUIRE(options_.n_workers >= 1, "WorkerPool: need >= 1 worker");
  SWRAMAN_REQUIRE(run_ && refill_ && orphan_, "WorkerPool: null callback");
  deques_.reserve(options_.n_workers);
  for (std::size_t i = 0; i < options_.n_workers; ++i) {
    deques_.push_back(std::make_unique<Deque>());
  }
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  alive_.store(options_.n_workers, std::memory_order_relaxed);
  threads_.reserve(options_.n_workers);
  for (std::size_t i = 0; i < options_.n_workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

void WorkerPool::stop() {
  stop_.store(true, std::memory_order_relaxed);
  idle_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void WorkerPool::push_local(std::size_t worker, TaskRef ref) {
  SWRAMAN_ASSERT(worker < deques_.size(), "WorkerPool: bad worker id");
  {
    const lockcheck::CheckedLock lock(deques_[worker]->mutex);
    deques_[worker]->tasks.push_front(ref);
  }
  idle_cv_.notify_all();
}

void WorkerPool::notify() { idle_cv_.notify_all(); }

bool WorkerPool::pop_local(std::size_t id, TaskRef* out) {
  const lockcheck::CheckedLock lock(deques_[id]->mutex);
  if (deques_[id]->tasks.empty()) return false;
  *out = deques_[id]->tasks.front();
  deques_[id]->tasks.pop_front();
  return true;
}

bool WorkerPool::steal(std::size_t thief, TaskRef* out) {
  if (!options_.steal) return false;
  const std::size_t n = deques_.size();
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t victim = (thief + k) % n;
    const lockcheck::CheckedLock lock(deques_[victim]->mutex);
    if (deques_[victim]->tasks.empty()) continue;
    *out = deques_[victim]->tasks.back();
    deques_[victim]->tasks.pop_back();
    obs::count("serve.steals");
    return true;
  }
  return false;
}

bool WorkerPool::die(std::size_t id, const TaskRef* pending) {
  if (!fault::should_fire(kFaultWorkerDeath)) return false;
  // The last surviving worker shrugs the fault off: the service must keep
  // draining (the balancer's surviving-CPE rule).
  std::size_t cur = alive_.load(std::memory_order_relaxed);
  do {
    if (cur <= 1) return false;
  } while (!alive_.compare_exchange_weak(cur, cur - 1,
                                         std::memory_order_relaxed));
  std::vector<TaskRef> orphans;
  if (pending != nullptr) orphans.push_back(*pending);
  {
    const lockcheck::CheckedLock lock(deques_[id]->mutex);
    orphans.insert(orphans.end(), deques_[id]->tasks.begin(),
                   deques_[id]->tasks.end());
    deques_[id]->tasks.clear();
  }
  obs::count("serve.worker.deaths");
  obs::instant("serve.worker.death", "orphans",
               static_cast<double>(orphans.size()));
  log::warn("serve: worker ", id, " died (injected), ", orphans.size(),
            " task(s) adopted");
  orphan_(orphans);
  notify();  // survivors must pick the adopted work up
  return true;
}

void WorkerPool::worker_loop(std::size_t id) {
  log::set_thread_context(
      (options_.log_prefix.empty() ? std::string()
                                   : options_.log_prefix + "/") +
      "w" + std::to_string(id));
  std::vector<TaskRef> batch;
  while (!stop_.load(std::memory_order_relaxed)) {
    TaskRef task;
    bool have = pop_local(id, &task);
    if (!have) have = steal(id, &task);
    if (!have) {
      batch.clear();
      const std::size_t n = refill_(kPullTargetSeconds, kPullMaxTasks, &batch);
      if (n > 0) {
        obs::count("serve.pool.pulls");
        task = batch.front();
        have = true;
        if (n > 1) {
          const lockcheck::CheckedLock lock(deques_[id]->mutex);
          for (std::size_t i = 1; i < n; ++i) {
            deques_[id]->tasks.push_back(batch[i]);
          }
        }
        if (n > 1) idle_cv_.notify_all();
      }
    }
    if (!have) {
      // Timed, predicate-less park: legal under the condvar audit (only
      // the *untimed* predicate-less wait() is a lost-wakeup hazard).
      lockcheck::CheckedLock lock(idle_mutex_);
      idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    if (die(id, &task)) return;
    run_(id, task);
  }
}

}  // namespace swraman::serve
