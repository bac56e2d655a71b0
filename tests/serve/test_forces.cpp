#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "core/molecules.hpp"
#include "obs/trace.hpp"
#include "raman/bec.hpp"
#include "robustness/fault.hpp"
#include "serve/service.hpp"

// The bec tier's force evaluator through the serving layer: each real bec
// job owns one scf::ForceEvaluator (its 6N displaced sibling engines),
// built once by its first field task however the scheduler interleaves
// jobs, and released when the job completes or fails. Results stay
// bitwise those of raman::BecCalculator.

namespace swraman::serve {
namespace {

// Serve-tier numerics: pseudized minimal basis on a 12/5 grid.
raman::RamanOptions small_grid_options() {
  raman::RamanOptions opt;
  opt.vibrations.scf.grid.n_radial = 12;
  opt.vibrations.scf.grid.angular_order = 5;
  opt.vibrations.scf.species.tier = basis::Tier::Minimal;
  opt.vibrations.scf.species.pseudized = true;
  return opt;
}

JobSpec h2_bec_job(const char* client, double stretch) {
  JobSpec spec;
  spec.client = client;
  spec.engine = EngineKind::Real;
  spec.atoms = molecules::h2();
  spec.atoms[1].pos.z += stretch;
  spec.options = small_grid_options();
  spec.tier = Tier::Bec;
  return spec;
}

struct Reference {
  std::vector<raman::GeometryRecord> records;
  linalg::Matrix dalpha;
  linalg::Matrix dmu;
};

// What BecCalculator computes for the job, run before any fault is armed.
Reference bec_reference(const JobSpec& spec) {
  raman::BecOptions bopt;
  bopt.vibrations = spec.options.vibrations;
  bopt.field_strength = spec.bec_field;
  raman::BecCalculator calc(spec.atoms, bopt);
  Reference ref;
  ref.records = calc.field_records();
  raman::bec_derivatives(ref.records, spec.bec_field, 3 * spec.atoms.size(),
                         /*enforce_sum_rule=*/true, &ref.dalpha, &ref.dmu);
  return ref;
}

// Records and finish notifications of tagged jobs, gathered from the
// service hooks (worker threads).
struct HookLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::uint64_t, std::map<std::size_t, raman::GeometryRecord>>
      records;  // tag -> stencil index -> record
  std::set<std::uint64_t> finished;

  void install(ServiceHooks* hooks) {
    hooks->on_task_durable = [this](std::uint64_t tag, std::size_t coord,
                                    int, const raman::GeometryRecord& rec) {
      const std::lock_guard<std::mutex> lock(mutex);
      records[tag][coord] = rec;
    };
    hooks->on_finish = [this](std::uint64_t tag, const JobResult&) {
      const std::lock_guard<std::mutex> lock(mutex);
      finished.insert(tag);
      cv.notify_all();
    };
  }

  // The service drops a job's evaluator before its on_finish hook runs.
  bool wait_finished(std::uint64_t tag) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(60),
                       [&] { return finished.count(tag) != 0; });
  }
};

void expect_bitwise(const JobResult& result, const Reference& ref,
                    const std::map<std::size_t, raman::GeometryRecord>& got) {
  ASSERT_EQ(got.size(), ref.records.size());
  for (std::size_t idx = 0; idx < ref.records.size(); ++idx) {
    const raman::GeometryRecord& want = ref.records[idx];
    const raman::GeometryRecord& rec = got.at(idx);
    EXPECT_EQ(rec.forces, want.forces) << "field point " << idx;
    EXPECT_EQ(rec.dipole, want.dipole) << "field point " << idx;
  }
  ASSERT_EQ(result.dalpha.rows(), ref.dalpha.rows());
  for (std::size_t i = 0; i < ref.dalpha.rows(); ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(result.dalpha(i, j), ref.dalpha(i, j)) << i << "," << j;
    }
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(result.dmu(i, j), ref.dmu(i, j)) << i << "," << j;
    }
  }
}

std::size_t force_builds() {
  std::size_t n = 0;
  for (const obs::SpanRecord& rec : obs::snapshot()) {
    if (rec.name == "scf.forces.build") ++n;
  }
  return n;
}

TEST(ServeForces, InterleavedBecJobsBuildOneEvaluatorEach) {
  fault::ScopedFaults guard;
  const JobSpec a = h2_bec_job("tenant-a", 0.0);
  const JobSpec b = h2_bec_job("tenant-b", 0.05);
  const Reference ref_a = bec_reference(a);
  const Reference ref_b = bec_reference(b);

  // One worker and two tenants: the fair-share scheduler alternates the
  // two jobs' field tasks, so each job's tasks run between the other's.
  ServiceOptions options;
  options.n_workers = 1;
  options.start_paused = true;
  options.use_symmetry = false;  // every field point solved fresh
  HookLog log;
  log.install(&options.hooks);
  obs::reset_for_testing();
  obs::set_enabled(true);
  JobResult result_a;
  JobResult result_b;
  {
    RamanService service(options);
    SubmitOptions sub_a;
    sub_a.tag = 1;
    SubmitOptions sub_b;
    sub_b.tag = 2;
    const SubmitResult ra = service.submit(a, sub_a);
    const SubmitResult rb = service.submit(b, sub_b);
    ASSERT_TRUE(ra.accepted);
    ASSERT_TRUE(rb.accepted);
    service.start();
    result_a = service.wait(ra.job_id);
    result_b = service.wait(rb.job_id);
    ASSERT_TRUE(log.wait_finished(1));
    ASSERT_TRUE(log.wait_finished(2));
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.field_tasks_executed, 26u);
    // Both jobs are terminal: neither still holds its evaluator.
    EXPECT_EQ(stats.force_evaluators, 0u);
  }
  obs::set_enabled(false);
  EXPECT_EQ(force_builds(), 2u);
  obs::reset_for_testing();

  ASSERT_EQ(result_a.status, JobStatus::Completed) << result_a.error;
  ASSERT_EQ(result_b.status, JobStatus::Completed) << result_b.error;
  expect_bitwise(result_a, ref_a, log.records[1]);
  expect_bitwise(result_b, ref_b, log.records[2]);
}

TEST(ServeForces, FailedBecJobReleasesItsEvaluator) {
  fault::ScopedFaults guard;
  const JobSpec spec = [] {
    JobSpec s = h2_bec_job("tenant-a", 0.0);
    s.attempts = 1;
    return s;
  }();
  const Reference ref = bec_reference(spec);

  ServiceOptions options;
  options.n_workers = 1;
  options.use_symmetry = false;
  HookLog log;
  log.install(&options.hooks);
  RamanService service(options);

  // The fourth field task fails with no retry left: three field points
  // are done, so the job has built its evaluator when it fails.
  obs::reset_for_testing();
  obs::set_enabled(true);
  fault::FaultSpec fs;
  fs.fire_at = 4;
  fault::FaultInjector::instance().configure(kFaultTaskFail, fs);
  SubmitOptions first;
  first.tag = 1;
  const SubmitResult failed = service.submit(spec, first);
  ASSERT_TRUE(failed.accepted);
  EXPECT_EQ(service.wait(failed.job_id).status, JobStatus::Failed);
  ASSERT_TRUE(log.wait_finished(1));
  EXPECT_EQ(force_builds(), 1u);
  EXPECT_EQ(service.stats().force_evaluators, 0u);

  // The resubmission reuses the three finished field points from the
  // cache and builds a fresh evaluator for the other ten.
  SubmitOptions second;
  second.tag = 2;
  const SubmitResult retry = service.submit(spec, second);
  ASSERT_TRUE(retry.accepted);
  const JobResult result = service.wait(retry.job_id);
  ASSERT_TRUE(log.wait_finished(2));
  obs::set_enabled(false);
  EXPECT_EQ(force_builds(), 2u);
  obs::reset_for_testing();
  ASSERT_EQ(result.status, JobStatus::Completed) << result.error;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.force_evaluators, 0u);
  EXPECT_EQ(stats.field_tasks_executed, 13u);
  expect_bitwise(result, ref, log.records[2]);
}

}  // namespace
}  // namespace swraman::serve
