#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "robustness/fault.hpp"
#include "serve/service.hpp"
#include "serve/sharded.hpp"

namespace swraman::serve {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

JobSpec modeled_spec(const std::string& client, std::size_t n_atoms) {
  JobSpec spec;
  spec.client = client;
  spec.name = client + "-" + std::to_string(n_atoms);
  spec.engine = EngineKind::Modeled;
  spec.scale.n_atoms = n_atoms;
  return spec;
}

std::vector<JobSpec> small_trace() {
  return {modeled_spec("alice", 2), modeled_spec("bob", 3),
          modeled_spec("carol", 2), modeled_spec("alice", 4),
          modeled_spec("dave", 3),  modeled_spec("bob", 2)};
}

ShardedOptions fast_sharded(const std::string& wal_dir,
                            std::size_t n_shards) {
  ShardedOptions opts;
  opts.n_shards = n_shards;
  opts.wal_dir = wal_dir;
  opts.service.n_workers = 2;
  opts.service.modeled.iterations_per_modeled_second = 100.0;
  opts.service.modeled.min_iterations = 50;
  opts.service.modeled.max_iterations = 500;
  return opts;
}

std::uint64_t result_hash(const JobResult& r) {
  Hash64 h;
  h.u64(r.dalpha.rows());
  for (std::size_t i = 0; i < r.dalpha.rows(); ++i) {
    for (std::size_t j = 0; j < r.dalpha.cols(); ++j) h.f64(r.dalpha(i, j));
    for (std::size_t j = 0; j < r.dmu.cols(); ++j) h.f64(r.dmu(i, j));
  }
  return h.value();
}

// Hashes per trace index from a kill-free sharded run.
std::vector<std::uint64_t> reference_hashes(
    const std::vector<JobSpec>& trace, const ShardedOptions& opts) {
  ShardedRamanService svc(opts);
  std::vector<std::uint64_t> gids;
  for (const JobSpec& spec : trace) {
    const SubmitResult res = svc.submit(spec);
    EXPECT_TRUE(res.accepted) << res.reason;
    gids.push_back(res.job_id);
  }
  svc.drain();
  std::vector<std::uint64_t> hashes;
  for (const std::uint64_t gid : gids) {
    const JobResult r = svc.wait(gid);
    EXPECT_EQ(r.status, JobStatus::Completed) << r.error;
    hashes.push_back(result_hash(r));
  }
  return hashes;
}

TEST(ServeSharded, MultiShardMatchesSingleServiceBitwise) {
  fault::ScopedFaults guard;
  const std::vector<JobSpec> trace = small_trace();
  const std::string wal_dir = temp_dir("sharded_bitwise");
  const ShardedOptions opts = fast_sharded(wal_dir, 3);

  // Single-service reference: the sharded tier must not change results,
  // only where they are computed.
  std::vector<std::uint64_t> single_hashes;
  {
    ServiceOptions so = opts.service;
    RamanService single(so);
    std::vector<std::uint64_t> ids;
    for (const JobSpec& spec : trace) {
      const SubmitResult res = single.submit(spec);
      ASSERT_TRUE(res.accepted) << res.reason;
      ids.push_back(res.job_id);
    }
    for (const std::uint64_t id : ids) {
      const JobResult r = single.wait(id);
      ASSERT_EQ(r.status, JobStatus::Completed) << r.error;
      single_hashes.push_back(result_hash(r));
    }
  }

  ShardedRamanService svc(opts);
  EXPECT_EQ(svc.n_shards(), 3u);
  EXPECT_EQ(svc.n_live(), 3u);
  std::vector<std::uint64_t> gids;
  for (const JobSpec& spec : trace) {
    const SubmitResult res = svc.submit(spec);
    ASSERT_TRUE(res.accepted) << res.reason;
    gids.push_back(res.job_id);
  }
  svc.drain();
  for (std::size_t k = 0; k < gids.size(); ++k) {
    const JobResult r = svc.wait(gids[k]);
    ASSERT_EQ(r.status, JobStatus::Completed) << r.error;
    EXPECT_EQ(result_hash(r), single_hashes[k]) << "job " << k;
  }

  const ShardedStats stats = svc.stats();
  EXPECT_EQ(stats.jobs_accepted, trace.size());
  EXPECT_EQ(stats.jobs_completed, trace.size());
  EXPECT_EQ(stats.kills, 0u);
  EXPECT_GT(stats.wal_records, 0u);  // log-before-ack left a durable trail
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(std::filesystem::exists(svc.wal_path(s))) << s;
  }
  std::filesystem::remove_all(wal_dir);
}

TEST(ServeSharded, KillAllShardsThenRecoverLosesNothing) {
  fault::ScopedFaults guard;
  const std::vector<JobSpec> trace = small_trace();
  const std::string wal_dir = temp_dir("sharded_killall");
  ShardedOptions opts = fast_sharded(wal_dir, 2);
  // Slow the spin kernel so both shards still hold unfinished jobs when
  // the kills land — the crash must interrupt real in-flight work.
  opts.service.modeled.min_iterations = 200000;
  opts.service.modeled.max_iterations = 200000;

  ShardedOptions ref_opts = opts;
  ref_opts.wal_dir = temp_dir("sharded_killall_ref");
  const std::vector<std::uint64_t> want = reference_hashes(trace, ref_opts);

  ShardedRamanService svc(opts);
  std::vector<std::uint64_t> gids;
  for (const JobSpec& spec : trace) {
    const SubmitResult res = svc.submit(spec);
    ASSERT_TRUE(res.accepted) << res.reason;
    gids.push_back(res.job_id);
  }
  svc.kill_shard(0);
  svc.kill_shard(1);
  EXPECT_EQ(svc.n_live(), 0u);
  svc.recover_all();
  EXPECT_EQ(svc.n_live(), 2u);
  svc.drain();

  for (std::size_t k = 0; k < gids.size(); ++k) {
    const JobResult r = svc.wait(gids[k]);
    ASSERT_EQ(r.status, JobStatus::Completed) << r.error;
    // Replayed jobs reproduce the fault-free spectra bit for bit.
    EXPECT_EQ(result_hash(r), want[k]) << "job " << k;
  }
  const ShardedStats stats = svc.stats();
  EXPECT_EQ(stats.kills, 2u);
  EXPECT_EQ(stats.recoveries, 2u);
  EXPECT_GE(stats.replayed_jobs, 1u);
  EXPECT_EQ(stats.jobs_completed, trace.size());
  EXPECT_EQ(stats.jobs_failed, 0u);
  ASSERT_EQ(stats.failover_latencies_s.size(), 2u);
  for (const double lat : stats.failover_latencies_s) EXPECT_GE(lat, 0.0);
  std::filesystem::remove_all(wal_dir);
  std::filesystem::remove_all(ref_opts.wal_dir);
}

// ISSUE-6 satellite regression: a rejection caused by shard health must
// hint the dead shard's recovery-probe estimate, never 0.0.
TEST(ServeSharded, DeadShardRejectionHintsRetryAfter) {
  fault::ScopedFaults guard;
  const std::string wal_dir = temp_dir("sharded_retry_after");
  ShardedOptions opts = fast_sharded(wal_dir, 1);
  opts.service.modeled.min_iterations = 200000;
  opts.service.modeled.max_iterations = 200000;
  ShardedRamanService svc(opts);

  const SubmitResult first = svc.submit(modeled_spec("alice", 3));
  ASSERT_TRUE(first.accepted);
  svc.kill_shard(0);

  const SubmitResult rejected = svc.submit(modeled_spec("bob", 2));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reason, "no-live-shard");
  EXPECT_GT(rejected.retry_after_s, 0.0);
  EXPECT_LE(rejected.retry_after_s, opts.router.probe.cap_s);
  const SubmitResult again = svc.submit(modeled_spec("bob", 2));
  EXPECT_FALSE(again.accepted);
  EXPECT_GT(again.retry_after_s, 0.0);

  svc.recover_shard(0);
  const SubmitResult after = svc.submit(modeled_spec("bob", 2));
  EXPECT_TRUE(after.accepted) << after.reason;
  svc.drain();
  // The job accepted before the kill survived it.
  EXPECT_EQ(svc.wait(first.job_id).status, JobStatus::Completed);
  EXPECT_EQ(svc.wait(after.job_id).status, JobStatus::Completed);
  std::filesystem::remove_all(wal_dir);
}

TEST(ServeSharded, KillFaultFailsSubmissionOverToSurvivor) {
  fault::ScopedFaults guard;
  fault::FaultSpec kill;
  kill.fire_at = 1;  // the first submission's routing kills its shard
  fault::FaultInjector::instance().configure(kFaultShardKill, kill);

  const std::string wal_dir = temp_dir("sharded_killfault");
  ShardedRamanService svc(fast_sharded(wal_dir, 2));
  const std::vector<JobSpec> trace = small_trace();
  std::vector<std::uint64_t> gids;
  for (const JobSpec& spec : trace) {
    const SubmitResult res = svc.submit(spec);
    ASSERT_TRUE(res.accepted) << res.reason;  // failover, not rejection
    gids.push_back(res.job_id);
  }
  EXPECT_EQ(svc.n_live(), 1u);
  svc.recover_all();
  EXPECT_EQ(svc.n_live(), 2u);
  svc.drain();
  for (const std::uint64_t gid : gids) {
    EXPECT_EQ(svc.wait(gid).status, JobStatus::Completed);
  }
  const ShardedStats stats = svc.stats();
  EXPECT_EQ(stats.kills, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.jobs_completed, trace.size());
  std::filesystem::remove_all(wal_dir);
}

TEST(ServeSharded, TornWalWedgeIsTreatedAsShardDeath) {
  fault::ScopedFaults guard;
  // The very first WAL append (the first job record anywhere) is torn:
  // that shard can no longer promise durability, so the submission must
  // fail over and still be acknowledged by a survivor.
  fault::FaultInjector::instance().configure_from_string(
      "serve.wal.torn_write:at=1");

  const std::string wal_dir = temp_dir("sharded_tornwal");
  ShardedRamanService svc(fast_sharded(wal_dir, 2));
  const SubmitResult res = svc.submit(modeled_spec("alice", 3));
  ASSERT_TRUE(res.accepted) << res.reason;
  EXPECT_EQ(svc.n_live(), 1u);
  EXPECT_EQ(svc.stats().kills, 1u);

  svc.recover_all();  // replays the torn log: header only, nothing lost
  EXPECT_EQ(svc.n_live(), 2u);
  svc.drain();
  EXPECT_EQ(svc.wait(res.job_id).status, JobStatus::Completed);
  std::filesystem::remove_all(wal_dir);
}

TEST(ServeSharded, WalWedgeDuringReplayRetriesWithFreshIncarnation) {
  fault::ScopedFaults guard;
  const std::string wal_dir = temp_dir("sharded_replaywedge");
  ShardedOptions opts = fast_sharded(wal_dir, 1);
  // Slow the spin kernel so the kill interrupts unfinished jobs — replay
  // must actually resubmit something for its WAL appends to happen.
  opts.service.modeled.min_iterations = 200000;
  opts.service.modeled.max_iterations = 200000;
  ShardedRamanService svc(opts);

  std::vector<std::uint64_t> gids;
  for (const JobSpec& spec : small_trace()) {
    const SubmitResult res = svc.submit(spec);
    ASSERT_TRUE(res.accepted) << res.reason;
    gids.push_back(res.job_id);
  }
  svc.kill_shard(0);

  // Arming resets the site's visit counter, so the next WAL append — the
  // first replay resubmission's log-before-ack record on the *fresh*
  // incarnation — is the one that tears. Recovery must not unwind (the
  // truncated log means the in-memory replay set is the only copy of the
  // undelivered jobs); it tears the wedged incarnation down and replays
  // onto another, and `at` implies max=1 so the retry goes through.
  fault::FaultInjector::instance().configure_from_string(
      "serve.wal.torn_write:at=1");
  svc.recover_shard(0);
  EXPECT_EQ(svc.n_live(), 1u);

  svc.drain();
  for (const std::uint64_t gid : gids) {
    EXPECT_EQ(svc.wait(gid).status, JobStatus::Completed);
  }
  const ShardedStats stats = svc.stats();
  EXPECT_EQ(stats.kills, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GE(stats.replayed_jobs, 1u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  std::filesystem::remove_all(wal_dir);
}

// A tenant whose routing key homes on a different shard than `spec`'s.
JobSpec twin_on_other_shard(const JobSpec& spec, std::size_t n_shards) {
  RouterOptions ro;
  ro.n_shards = n_shards;
  const ShardRouter router(ro);
  const std::size_t home = router.home(ShardRouter::job_key(spec));
  for (int k = 0; k < 256; ++k) {
    JobSpec twin = spec;
    twin.client = "twin-" + std::to_string(k);
    if (router.home(ShardRouter::job_key(twin)) != home) return twin;
  }
  ADD_FAILURE() << "no tenant routes off shard " << home;
  return spec;
}

TEST(ServeSharded, SameContentOnTwoShardsSolvesLocallyAndAgreesBitwise) {
  // Shards share no results: a job whose content twin lives on another
  // shard is solved from that shard's own cache and engine, and both
  // copies must still agree bitwise with the single-service answer.
  fault::ScopedFaults guard;
  const std::string wal_dir = temp_dir("sharded_twins");
  const ShardedOptions opts = fast_sharded(wal_dir, 2);
  const JobSpec first = modeled_spec("alice", 3);
  const JobSpec second = twin_on_other_shard(first, opts.n_shards);

  std::uint64_t reference = 0;
  {
    RamanService single(opts.service);
    const SubmitResult res = single.submit(first);
    ASSERT_TRUE(res.accepted) << res.reason;
    const JobResult r = single.wait(res.job_id);
    ASSERT_EQ(r.status, JobStatus::Completed) << r.error;
    reference = result_hash(r);
  }

  ShardedRamanService svc(opts);
  std::vector<std::uint64_t> gids;
  for (const JobSpec& spec : {first, second}) {
    const SubmitResult res = svc.submit(spec);
    ASSERT_TRUE(res.accepted) << res.reason;
    gids.push_back(res.job_id);
  }
  svc.drain();
  for (const std::uint64_t gid : gids) {
    const JobResult r = svc.wait(gid);
    ASSERT_EQ(r.status, JobStatus::Completed) << r.error;
    EXPECT_EQ(result_hash(r), reference) << "gid " << gid;
  }
  const ShardedStats stats = svc.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.failovers, 0u);
  std::filesystem::remove_all(wal_dir);
}

}  // namespace
}  // namespace swraman::serve
