#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/lockcheck.hpp"
#include "obs/slo.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/wal.hpp"

// Durable sharded serve tier (DESIGN.md S12): N RamanService shards, each
// with its own write-ahead job log, behind a rendezvous-hash router.
//
// Durability invariants:
//   1. Log-before-ack — submit() returns accepted only after the shard's
//      WAL holds the fsync'd job record. An accepted job survives any
//      single-shard crash: recover_shard() replays the log and resubmits
//      every unfinished job with its durable displacement results as the
//      warm set (force-admitted — acknowledged work is never re-rejected).
//   2. Durable-before-visible — displacement results are appended to the
//      WAL before the DAG sees them, so replay never re-runs a task whose
//      result was already made durable.
//   3. Wedged log = dead shard — a torn write (serve.wal.torn_write)
//      wedges the log; the tier treats the shard as crashed, fails the
//      submission over to the rendezvous runner-up, and routes around it
//      until recover_shard() brings it back.
//
// Failover is deterministic and stateless: placement is
// argmax_{s live} score(key, s), so every kill moves exactly the dead
// shard's keys (each to its runner-up) and every recovery moves them
// home. Rejections caused by shard health hint the dead shard's
// recovery-probe backoff through retry_after_s instead of 0.0.
//
// Results are delivered tier-side (keyed by durable gid, not by shard-
// local job id) so wait()/drain() span shard deaths: a job accepted
// before a kill is waited on across its replay on the recovered shard.

namespace swraman::serve {

// Fault site: the submission path kills the target shard first (simulated
// crash: workers torn down, WAL left as-is on disk, in-memory cache
// dropped) and the job fails over to a survivor.
inline constexpr const char* kFaultShardKill = "serve.shard.kill";

struct ShardedOptions {
  std::size_t n_shards = 2;
  // WAL location: shard k logs to <wal_dir>/shard-<k>.wal.
  std::string wal_dir = ".";
  // Template for every shard's service (hooks and start_paused are
  // overwritten by the tier; everything else applies per shard).
  ServiceOptions service;
  RouterOptions router;  // n_shards is overridden with the value above
  // Live health/SLO monitor: tier submit/finish/recover paths drive its
  // throttled ticks, and its backpressure hint stretches the shards'
  // retry_after_s while the error budget burns.
  obs::SloOptions slo;
};

struct ShardedStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t kills = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t failovers = 0;       // submissions rerouted off a dead shard
  std::uint64_t replayed_jobs = 0;   // resubmitted from a WAL on recovery
  std::uint64_t replayed_tasks = 0;  // durable results fed back as warm set
  std::uint64_t wal_records = 0;     // live incarnations only
  std::vector<double> failover_latencies_s;  // kill -> recovered, per kill
};

class ShardedRamanService {
 public:
  explicit ShardedRamanService(ShardedOptions options);
  ~ShardedRamanService();
  ShardedRamanService(const ShardedRamanService&) = delete;
  ShardedRamanService& operator=(const ShardedRamanService&) = delete;

  // Routes by tenant/content key, logs before acknowledging, fails over
  // when the target shard is dead or dies underneath the submission. On
  // success job_id is the durable gid (pass it to wait()). A rejection
  // with no live shard (or by admission control) reports retry_after_s
  // from the responsible shard's health/backlog.
  SubmitResult submit(const JobSpec& spec);

  // Blocks until the job's terminal result is delivered — across shard
  // deaths, provided the owning shard is eventually recovered.
  JobResult wait(std::uint64_t gid);

  // Blocks until every accepted job has delivered a terminal result.
  void drain();

  // Simulated shard crash: tears down the service (joining its workers),
  // closes the log, drops the shard's in-memory cache, and marks it dead
  // in the router. The WAL file stays on disk for recovery.
  void kill_shard(std::size_t shard);

  // Crash recovery: replays the on-disk WAL, rebuilds the shard with a
  // fresh log incarnation, resubmits every unfinished logged job with its
  // durable task records as the warm set, and marks the shard alive.
  void recover_shard(std::size_t shard);
  void recover_all();

  [[nodiscard]] std::size_t n_shards() const;
  [[nodiscard]] std::size_t n_live() const;
  [[nodiscard]] bool alive(std::size_t shard) const;
  [[nodiscard]] std::string wal_path(std::size_t shard) const;
  [[nodiscard]] ShardedStats stats() const;

  // The tier's live health monitor (snapshots, burn rates, backpressure
  // hint, swraman-health-v1 export).
  [[nodiscard]] obs::SloMonitor& slo() { return slo_; }
  [[nodiscard]] const obs::SloMonitor& slo() const { return slo_; }

 private:
  struct Shard {
    std::unique_ptr<JobLog> log;        // outlives service (hooks append)
    std::unique_ptr<RamanService> service;
    double kill_time = 0.0;
  };

  void make_shard(std::size_t shard);
  void kill_locked(std::size_t shard);
  // Submission into one shard; false when the shard died underneath it
  // (wedged WAL) and the caller must fail over.
  bool try_submit_locked(std::size_t shard, const JobSpec& spec,
                         const SubmitOptions& sub, SubmitResult* out);

  ShardedOptions options_;
  ShardRouter router_;
  obs::SloMonitor slo_;  // internally synchronized; ticked off-lock too

  // Lock order: shards_mutex_ -> (per-shard service mutex) ->
  // results_mutex_. Worker-thread hooks take results_mutex_ only, so
  // kill_locked may join workers while holding shards_mutex_ — which is
  // why it is kAllowsBlocking (held across joins, WAL replay and shard
  // reconstruction by design; the lockcheck audit verifies nothing
  // *stricter* blocks).
  mutable lockcheck::CheckedMutex shards_mutex_{
      "serve.tier.shards", lockcheck::CheckedMutex::kAllowsBlocking};
  std::vector<Shard> shards_;
  std::uint64_t next_gid_ = 1;
  std::uint64_t kills_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t replayed_jobs_ = 0;
  std::uint64_t replayed_tasks_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::vector<double> failover_latencies_s_;

  mutable lockcheck::CheckedMutex results_mutex_{"serve.tier.results"};
  lockcheck::CheckedCondVar results_cv_;
  std::map<std::uint64_t, JobResult> results_;  // by gid, terminal only
  std::set<std::uint64_t> accepted_gids_;
};

}  // namespace swraman::serve
