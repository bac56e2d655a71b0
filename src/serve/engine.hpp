#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/lockcheck.hpp"
#include "scf/forces.hpp"
#include "serve/job.hpp"

// Evaluation-task backends. The service hands one evaluation task (a
// displaced geometry of the dfpt tier or a field point of the bec tier,
// chosen by the job's tier) at a time to one of
//
//   evaluate_real  SCF + DFPT on the actual displaced molecule, or the
//                  finite-field SCF + forces of a bec stencil point,
//                  through raman::evaluate, the solve RamanCalculator and
//                  BecCalculator run, so a served job reproduces the
//                  single-job pipeline.
//   ModeledEngine  deterministic synthetic evaluation for machine-scale
//                  systems (RBD, Table-1 silicon): the result is a pure
//                  function of (canonical key, seed) and the engine burns
//                  a calibrated amount of CPU proportional to the task's
//                  sunway-cost-model seconds, so scheduler benchmarks
//                  exercise real contention with paper-shaped costs.
//
// Both may throw (ConvergenceError, TimeoutError, injected faults); the
// service owns the bounded retry.

namespace swraman::serve {

// One bec job's force evaluator: the 6N displaced sibling engines its 13
// field tasks share (scf/forces.hpp). The job owns the slot. Its first
// field task to reach the force step builds the evaluator under the
// slot's own lock, so concurrent tasks of the same job wait for that one
// build and tasks of other jobs never do. The service releases the slot
// when the job reaches a terminal state; in-flight tasks keep the
// evaluator alive through their shared_ptr.
class ForceSlot {
 public:
  // `held` counts the evaluators built into slots and not yet released.
  explicit ForceSlot(std::atomic<std::size_t>& held) : held_(held) {}

  // The job's evaluator, built on first use. After release() each call
  // builds a private one that is not kept: a task still in flight when
  // its job failed may finish its solve, but never refills the slot.
  std::shared_ptr<const scf::ForceEvaluator> get(const JobSpec& spec);

  // Empties the slot for good. The caller drops the returned evaluator
  // (null when none was built) off every lock.
  std::shared_ptr<const scf::ForceEvaluator> release();

 private:
  std::atomic<std::size_t>& held_;
  lockcheck::CheckedMutex mutex_{"serve.job.forces"};
  std::shared_ptr<const scf::ForceEvaluator> evaluator_;  // guarded by mutex_
  bool released_ = false;                                 // guarded by mutex_
};

struct TaskContext {
  const JobSpec* spec = nullptr;  // its tier picks the kind of evaluation
  std::size_t coord = 0;  // displacement coordinate, or field stencil index
  int sign = +1;          // 0 for a field point
  std::uint64_t canonical_key = 0;
  AxisTransform to_canonical;    // canonical frame = T(own frame)
  double cost_seconds = 0.0;     // modeled cost of this evaluation
  ForceSlot* forces = nullptr;   // the job's slot; real bec tasks use it
};

// Polarizability + dipole of the displaced geometry — or, in the bec
// tier, the 3N force vector (plus the dipole) at one field stencil point
// — in the task's own frame.
raman::GeometryRecord evaluate_real(const TaskContext& ctx);

struct ModeledEngineOptions {
  std::uint64_t seed = 12345;
  // Spin iterations burned per modeled second. Trace jobs model at
  // roughly 1-2.5 s/task, so the default maps a displacement to ~1 ms of
  // real CPU (the xorshift loop retires ~1e9 iterations/s): long enough
  // to dominate scheduling overhead, short enough for second-scale
  // benches. Clamped to keep outliers bounded.
  double iterations_per_modeled_second = 400000.0;
  std::uint64_t min_iterations = 2000;
  std::uint64_t max_iterations = 5000000;
};

class ModeledEngine {
 public:
  explicit ModeledEngine(ModeledEngineOptions options = {});
  // The synthetic record of the task, in its own frame.
  raman::GeometryRecord evaluate(const TaskContext& ctx);

 private:
  ModeledEngineOptions options_;
  // Spin-kernel results land here so the work cannot be optimized away.
  std::atomic<double> sink_{0.0};
};

// splitmix64: the deterministic stream behind modeled results.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace swraman::serve
