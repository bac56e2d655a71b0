#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/lockcheck.hpp"
#include "robustness/fault.hpp"
#include "serve/cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "serve/sharded.hpp"

// The serve tier under SWRAMAN_CHECK: real workloads through the real
// services with the concurrency contract checker on, asserting zero
// violations — the lock-order graph of the migrated tier is acyclic,
// nothing stricter than the sanctioned control-plane locks blocks, the
// guard contracts hold. Plus one seeded guard violation proving the
// clean runs are not vacuous.

namespace swraman::serve {
namespace {

using check::ScopedChecking;

JobSpec modeled_spec(const std::string& client, std::size_t n_atoms) {
  JobSpec spec;
  spec.client = client;
  spec.name = client + "-" + std::to_string(n_atoms);
  spec.engine = EngineKind::Modeled;
  spec.scale.n_atoms = n_atoms;
  return spec;
}

ServiceOptions fast_options() {
  ServiceOptions options;
  options.n_workers = 2;
  options.modeled.iterations_per_modeled_second = 100.0;
  options.modeled.min_iterations = 50;
  options.modeled.max_iterations = 500;
  return options;
}

TEST(ServeCheck, ServiceRunsCleanUnderCheck) {
  fault::ScopedFaults guard;
  const ScopedChecking checking;
  {
    RamanService service(fast_options());
    std::vector<std::uint64_t> ids;
    for (const JobSpec& spec :
         {modeled_spec("alice", 2), modeled_spec("bob", 3),
          modeled_spec("alice", 2), modeled_spec("carol", 4)}) {
      const SubmitResult res = service.submit(spec);
      ASSERT_TRUE(res.accepted) << res.reason;
      ids.push_back(res.job_id);
    }
    for (const std::uint64_t id : ids) {
      const JobResult r = service.wait(id);
      EXPECT_EQ(r.status, JobStatus::Completed) << r.error;
    }
    service.drain();
  }
  EXPECT_EQ(check::total_violations(), 0u)
      << check::summary_json();
}

TEST(ServeCheck, ShardedTierWithKillRecoverRunsCleanUnderCheck) {
  fault::ScopedFaults guard;
  const ScopedChecking checking;
  const std::string wal_dir = ::testing::TempDir() + "serve_check_tier";
  std::filesystem::create_directories(wal_dir);
  {
    ShardedOptions opts;
    opts.n_shards = 2;
    opts.wal_dir = wal_dir;
    opts.service.n_workers = 2;
    opts.service.modeled.iterations_per_modeled_second = 100.0;
    opts.service.modeled.min_iterations = 50;
    opts.service.modeled.max_iterations = 500;
    ShardedRamanService tier(opts);
    std::vector<std::uint64_t> gids;
    for (const JobSpec& spec :
         {modeled_spec("alice", 2), modeled_spec("bob", 3),
          modeled_spec("carol", 2), modeled_spec("dave", 4)}) {
      const SubmitResult res = tier.submit(spec);
      ASSERT_TRUE(res.accepted) << res.reason;
      gids.push_back(res.job_id);
    }
    // Crash/recover one shard mid-flight: the failover path (workers
    // joined and WAL replayed while the shard control-plane lock is
    // held) is exactly what kAllowsBlocking sanctions — and nothing
    // beyond it may block.
    tier.kill_shard(0);
    tier.recover_shard(0);
    for (const std::uint64_t gid : gids) {
      const JobResult r = tier.wait(gid);
      EXPECT_EQ(r.status, JobStatus::Completed) << r.error;
    }
    tier.drain();
  }
  std::filesystem::remove_all(wal_dir);
  EXPECT_EQ(check::total_violations(), 0u)
      << check::summary_json();
}

TEST(ServeCheck, SeededSchedulerGuardViolationCaught) {
  const ScopedChecking checking;
  lockcheck::CheckedMutex guard("test.service.guard");
  FairShareScheduler scheduler;
  scheduler.set_guard(&guard);
  const JobSpec spec = modeled_spec("mallory", 2);
  const JobEstimate est = estimate_job(spec);
  std::string what;
  try {
    // Calling a "caller locks for us" component without the lock — the
    // bug class the guard contract exists to catch.
    static_cast<void>(scheduler.admit(spec, est));
    FAIL() << "guard violation not reported";
  } catch (const CheckViolation& v) {
    EXPECT_EQ(v.rule(), lockcheck::kRuleGuardUnheld);
    what = v.what();
  }
  EXPECT_NE(what.find("FairShareScheduler::admit"), std::string::npos)
      << what;
  {
    const lockcheck::CheckedLock lock(guard);
    static_cast<void>(scheduler.admit(spec, est));  // held: clean
    scheduler.release(est);
  }
  EXPECT_EQ(
      check::violation_counts().at(lockcheck::kRuleGuardUnheld), 1u);
}

}  // namespace
}  // namespace swraman::serve
