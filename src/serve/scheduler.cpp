#include "serve/scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace swraman::serve {

FairShareScheduler::FairShareScheduler(AdmissionLimits limits)
    : limits_(limits) {}

AdmissionDecision FairShareScheduler::admit(const JobSpec& spec,
                                            const JobEstimate& est,
                                            bool force) {
  lockcheck::assert_held(guard_, "FairShareScheduler::admit");
  AdmissionDecision d;
  d.outstanding_seconds = outstanding_seconds_;
  if (!force &&
      outstanding_tasks_ + est.n_tasks > limits_.max_queued_tasks) {
    d.admitted = false;
    d.reason = "queue-depth";
    return d;
  }
  if (!force && modeled_bytes_ + est.modeled_bytes > limits_.max_modeled_bytes) {
    d.admitted = false;
    d.reason = "modeled-memory";
    return d;
  }
  outstanding_tasks_ += est.n_tasks;
  outstanding_seconds_ += est.total_seconds;
  modeled_bytes_ += est.modeled_bytes;
  Tenant& t = tenants_[spec.client];
  t.weight = std::max(t.weight, spec.weight);
  obs::gauge_set("serve.memory.modeled_bytes", modeled_bytes_);
  obs::gauge_set("serve.admission.outstanding_tasks",
                 static_cast<double>(outstanding_tasks_));
  return d;
}

void FairShareScheduler::release(const JobEstimate& est) {
  lockcheck::assert_held(guard_, "FairShareScheduler::release");
  SWRAMAN_ASSERT(outstanding_tasks_ >= est.n_tasks,
                 "FairShareScheduler::release: task underflow");
  outstanding_tasks_ -= est.n_tasks;
  outstanding_seconds_ = std::max(0.0, outstanding_seconds_ -
                                           est.total_seconds);
  modeled_bytes_ = std::max(0.0, modeled_bytes_ - est.modeled_bytes);
  obs::gauge_set("serve.memory.modeled_bytes", modeled_bytes_);
  obs::gauge_set("serve.admission.outstanding_tasks",
                 static_cast<double>(outstanding_tasks_));
}

void FairShareScheduler::push(const std::string& tenant, int priority,
                              double cost_seconds, TaskRef ref) {
  lockcheck::assert_held(guard_, "FairShareScheduler::push");
  Tenant& t = tenants_[tenant];
  if (t.idle()) {
    // Returning tenant: fast-forward its clock to the active minimum so
    // idle time is neither banked as credit nor counted as lag.
    double vmin = t.virtual_seconds;
    bool any = false;
    for (const auto& [name, other] : tenants_) {
      if (!other.idle()) {
        vmin = any ? std::min(vmin, other.virtual_seconds)
                   : other.virtual_seconds;
        any = true;
      }
    }
    if (any) t.virtual_seconds = std::max(t.virtual_seconds, vmin);
  }
  t.ready[priority].push_back({ref, cost_seconds});
  ++n_ready_;
  obs::gauge_set("serve.queue.depth", static_cast<double>(n_ready_));
}

std::size_t FairShareScheduler::take(std::vector<TaskRef>* out,
                                     double target_seconds,
                                     std::size_t max_tasks) {
  lockcheck::assert_held(guard_, "FairShareScheduler::take");
  if (n_ready_ == 0 || max_tasks == 0) return 0;
  Tenant* pick = nullptr;
  for (auto& [name, t] : tenants_) {
    if (t.idle()) continue;
    if (pick == nullptr || t.virtual_seconds < pick->virtual_seconds) {
      pick = &t;
    }
  }
  SWRAMAN_ASSERT(pick != nullptr, "FairShareScheduler: ready count drifted");
  std::size_t taken = 0;
  double cost = 0.0;
  while (taken < max_tasks && !pick->idle()) {
    auto bucket = pick->ready.begin();
    ReadyTask task = bucket->second.front();
    if (taken > 0 && cost + task.cost_seconds > target_seconds) break;
    bucket->second.pop_front();
    if (bucket->second.empty()) pick->ready.erase(bucket);
    --n_ready_;
    cost += task.cost_seconds;
    pick->virtual_seconds += task.cost_seconds / pick->weight;
    out->push_back(task.ref);
    ++taken;
  }
  obs::gauge_set("serve.queue.depth", static_cast<double>(n_ready_));
  return taken;
}

}  // namespace swraman::serve
