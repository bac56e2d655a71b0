#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/lockcheck.hpp"
#include "serve/job.hpp"

// Weighted fair-share scheduling + admission control (DESIGN.md S11).
//
// Fair share is stride scheduling over *modeled seconds*: every tenant
// carries a virtual time; dispatching a task advances the tenant's clock
// by cost / weight, and the scheduler always serves the tenant with the
// smallest clock among those with ready work. A tenant that goes idle and
// returns is fast-forwarded to the current minimum so it can neither
// starve (bounded lag) nor monopolize (no banked credit). Within one
// tenant, higher job priority drains first, FIFO inside a priority.
//
// Admission control bounds what a submission may add: the total number of
// outstanding tasks (queue depth) and the modeled resident footprint of
// in-flight jobs (sum of JobEstimate::modeled_bytes). A rejected job
// reports a retry-after hint derived from the outstanding modeled work —
// the backpressure contract of RamanService::submit.
//
// The scheduler does no locking; the service calls it under its mutex.
// That contract is checkable: set_guard() names the mutex, and in
// SWRAMAN_CHECK mode every mutating call verifies the calling thread
// holds it (lock.guard_unheld).

namespace swraman::serve {

struct TaskRef {
  std::uint64_t job = 0;
  std::size_t node = 0;
};

struct AdmissionLimits {
  std::size_t max_queued_tasks = 200000;  // outstanding DAG nodes
  double max_modeled_bytes = 4e9;         // modeled in-flight footprint
};

struct AdmissionDecision {
  bool admitted = true;
  std::string reason;               // "queue-depth" / "modeled-memory"
  double outstanding_seconds = 0.0; // modeled backlog at decision time
};

class FairShareScheduler {
 public:
  explicit FairShareScheduler(AdmissionLimits limits = {});

  // Installs the mutex the caller promises to hold around every mutating
  // call (nullptr: unchecked — standalone/unit-test use).
  void set_guard(const lockcheck::CheckedMutex* guard) { guard_ = guard; }

  // Charges the job against the limits or rejects it (nothing charged).
  // force: charge unconditionally (WAL replay of already-acknowledged
  // work — the limits still see the load, but cannot reject it).
  AdmissionDecision admit(const JobSpec& spec, const JobEstimate& est,
                          bool force = false);

  // Job left the system (completed or failed): releases its admission
  // charge.
  void release(const JobEstimate& est);

  // Ready task of `tenant` with the given modeled cost enters the pool.
  void push(const std::string& tenant, int priority, double cost_seconds,
            TaskRef ref);

  // Fair-share pick: fills `out` with up to max_tasks tasks of ONE tenant
  // (the one with the smallest virtual time), stopping once their summed
  // modeled cost exceeds target_seconds — expensive tasks move singly,
  // cheap ones in batches (the cost model setting the pull granularity).
  // Returns the number of tasks taken (0 when idle).
  std::size_t take(std::vector<TaskRef>* out, double target_seconds,
                   std::size_t max_tasks);

  [[nodiscard]] std::size_t queued() const { return n_ready_; }
  [[nodiscard]] std::size_t outstanding_tasks() const {
    return outstanding_tasks_;
  }
  [[nodiscard]] double outstanding_seconds() const {
    return outstanding_seconds_;
  }
  [[nodiscard]] double modeled_bytes() const { return modeled_bytes_; }

 private:
  struct ReadyTask {
    TaskRef ref;
    double cost_seconds = 0.0;
  };
  struct Tenant {
    double weight = 1.0;
    double virtual_seconds = 0.0;
    // Highest priority first (std::greater key order), FIFO within.
    std::map<int, std::deque<ReadyTask>, std::greater<>> ready;
    [[nodiscard]] bool idle() const { return ready.empty(); }
  };

  AdmissionLimits limits_;
  const lockcheck::CheckedMutex* guard_ = nullptr;
  std::map<std::string, Tenant> tenants_;
  std::size_t n_ready_ = 0;
  std::size_t outstanding_tasks_ = 0;
  double outstanding_seconds_ = 0.0;
  double modeled_bytes_ = 0.0;
};

}  // namespace swraman::serve
