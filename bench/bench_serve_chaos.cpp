// Chaos harness for the durable sharded serve tier (DESIGN.md S12).
//
// Replays the mixed-tenant trace twice through a ShardedRamanService:
//
//   fault-free   no injector armed; per-job result hashes recorded.
//   chaos        serve.shard.kill armed at two points mid-trace (the
//                routed-to shard is crashed under the submission and the
//                job fails over), serve.wal.torn_write wedges one WAL
//                mid-run; dead shards are restarted mid-trace and at the
//                end, replaying their logs.
//
// Acceptance gates (the durability contract, exit 1 on violation):
//   * at least one kill fired and at least one job was replayed from a WAL
//   * zero lost accepted jobs — every acknowledged submission reaches a
//     terminal Completed result after failover/replay
//   * every job's (dalpha, dmu) hash is bitwise identical to the
//     fault-free run
//   * as many jobs accepted as in the fault-free run; a no-live-shard
//     rejection is resubmitted after its retry_after_s hint (bounded), and
//     a job still rejected fails this gate, not the bitwise one
//
// The chaos pass also drives the observability plane end to end
// (DESIGN.md S13) and gates on its artifacts:
//   * jobtrace stitching — some chaos-pass job must carry spans from both
//     shard incarnations (pre-kill work, the replay marker, post-kill
//     work) on ONE gid timeline (--jobtrace FILE exports all of them);
//   * flight recorder — every injected shard kill dumps a postmortem
//     ring (flight-serve.shard.kill.json in the working directory);
//   * SLO monitor — with a deliberately unattainable latency SLO the
//     per-tenant burn rate must light up during the chaos window
//     (--health FILE exports the swraman-health-v1 history).
//
// --json writes the swraman-bench-v1 chaos record consumed by
// scripts/check_perf_json.py (dispatched on "recovered_jobs").

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"
#include "serve/sharded.hpp"
#include "serve/trace.hpp"

namespace {

using namespace swraman;
using namespace swraman::serve;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t result_hash(const JobResult& r) {
  Hash64 h;
  h.u64(r.dalpha.rows());
  h.u64(r.dalpha.cols());
  for (std::size_t i = 0; i < r.dalpha.rows(); ++i) {
    for (std::size_t j = 0; j < r.dalpha.cols(); ++j) {
      h.f64(r.dalpha(i, j));
    }
  }
  for (std::size_t i = 0; i < r.dmu.rows(); ++i) {
    for (std::size_t j = 0; j < r.dmu.cols(); ++j) h.f64(r.dmu(i, j));
  }
  return h.value();
}

ShardedOptions make_options(const std::string& wal_dir,
                            std::size_t n_shards) {
  ShardedOptions opts;
  opts.n_shards = n_shards;
  opts.wal_dir = wal_dir;
  // Effectively unbounded admission: the chaos gates measure durability,
  // not backpressure — a rejection would masquerade as a lost job.
  opts.service.admission.max_queued_tasks = 1u << 30;
  opts.service.admission.max_modeled_bytes = 1e15;
  opts.service.n_workers = 2;
  return opts;
}

// Resubmissions per job after a no-live-shard rejection, and the cap on
// each wait for the retry_after_s hint.
constexpr int kMaxResubmits = 3;
constexpr double kMaxRetryWaitS = 0.5;

struct RunOutcome {
  std::map<std::size_t, std::uint64_t> hashes;  // trace index -> hash
  std::set<std::size_t> rejected;  // trace indices never accepted
  std::size_t resubmits = 0;       // after no-live-shard rejections
  std::size_t accepted = 0;
  std::size_t completed = 0;
  ShardedStats stats;
  std::string health_json;  // swraman-health-v1 from this run's monitor
  double max_burn = 0.0;    // worst max_burn_rate across its snapshots
};

// kill_at: trace indices whose submission is preceded by arming
// serve.shard.kill (fires on that submission's routing decision);
// restart_at: indices where every dead shard is recovered first.
RunOutcome run_trace(const std::vector<JobSpec>& trace,
                     const ShardedOptions& opts,
                     const std::vector<std::size_t>& kill_at,
                     const std::vector<std::size_t>& restart_at) {
  std::filesystem::create_directories(opts.wal_dir);
  ShardedRamanService svc(opts);
  std::map<std::size_t, std::uint64_t> gids;  // trace index -> gid
  RunOutcome out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (std::find(restart_at.begin(), restart_at.end(), i) !=
        restart_at.end()) {
      svc.recover_all();
    }
    if (std::find(kill_at.begin(), kill_at.end(), i) != kill_at.end()) {
      fault::FaultSpec spec;
      spec.fire_at = 1;  // the very next routing decision kills its shard
      fault::FaultInjector::instance().configure(kFaultShardKill, spec);
    }
    SubmitResult res = svc.submit(trace[i]);
    // A client honours a no-live-shard rejection's retry_after_s: it waits
    // out the hint (capped), the dead shards get their recovery probe, and
    // it resubmits, a bounded number of times. Slow runs (sanitizers) can
    // leave every shard dead at once between the scripted restarts.
    for (int retry = 0; !res.accepted && res.reason == "no-live-shard" &&
                        retry < kMaxResubmits;
         ++retry) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(res.retry_after_s, kMaxRetryWaitS)));
      svc.recover_all();
      res = svc.submit(trace[i]);
      ++out.resubmits;
    }
    if (!res.accepted) {
      std::printf("  (rejected '%s': %s, retry after %.3f s)\n",
                  trace[i].name.c_str(), res.reason.c_str(),
                  res.retry_after_s);
      out.rejected.insert(i);
      continue;
    }
    gids[i] = res.job_id;
    ++out.accepted;
  }
  svc.recover_all();
  svc.drain();
  for (const auto& [idx, gid] : gids) {
    const JobResult r = svc.wait(gid);
    if (r.status == JobStatus::Completed) {
      ++out.completed;
      out.hashes[idx] = result_hash(r);
    } else {
      std::printf("  job %zu FAILED: %s\n", idx, r.error.c_str());
    }
  }
  out.stats = svc.stats();
  // Export the monitor's history before the service (and its registry
  // observations) go away with the run.
  out.health_json = svc.slo().export_json();
  for (const obs::HealthSnapshot& s : svc.slo().history()) {
    out.max_burn = std::max(out.max_burn, s.max_burn_rate);
  }
  return out;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out.good()) {
    std::printf("bench_serve_chaos: FAIL cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// The stitched-timeline gate: at least one chaos-pass job whose single
// gid timeline shows work from incarnation 0, the replay marker, and
// resumed work from incarnation >= 1 — proof the trace context survived
// the WAL round-trip through the shard death.
bool any_stitched_timeline() {
  auto& jt = obs::JobTraceRegistry::instance();
  for (const std::uint64_t gid : jt.gids()) {
    if (jt.incarnation(gid) == 0) continue;
    bool pre_kill = false;
    bool replay = false;
    bool post_kill = false;
    for (const obs::JobSpan& s : jt.spans(gid)) {
      if (s.incarnation == 0 && s.id != 1) pre_kill = true;
      if (s.name == "replay" && s.incarnation >= 1) replay = true;
      if (s.incarnation >= 1 && !s.event && s.name != "replay" &&
          s.id != 1) {
        post_kill = true;
      }
    }
    if (pre_kill && replay && post_kill) return true;
  }
  return false;
}

void write_json(const std::string& path, std::size_t jobs,
                const ShardedStats& s, double replayed_fraction,
                std::size_t lost_jobs, std::size_t bitwise_mismatches) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"swraman-bench-v1\",\n"
      << "  \"bench\": \"serve_chaos\",\n  \"records\": [\n"
      << "    {\"series\": \"chaos\", \"jobs\": " << jobs
      << ", \"kills\": " << s.kills
      << ", \"recovered_jobs\": " << s.replayed_jobs
      << ", \"replayed_tasks\": " << s.replayed_tasks
      << ", \"replayed_fraction\": " << replayed_fraction
      << ", \"failovers\": " << s.failovers
      << ", \"failover_p50_s\": " << percentile(s.failover_latencies_s, 0.50)
      << ", \"failover_p95_s\": " << percentile(s.failover_latencies_s, 0.95)
      << ", \"failover_p99_s\": " << percentile(s.failover_latencies_s, 0.99)
      << ", \"lost_jobs\": " << lost_jobs
      << ", \"bitwise_mismatches\": " << bitwise_mismatches << "}\n"
      << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::Error);
  std::string json_path;
  std::string jobtrace_path;
  std::string health_path;
  std::size_t n_shards = 3;
  bool short_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobtrace") == 0 && i + 1 < argc) {
      jobtrace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--health") == 0 && i + 1 < argc) {
      health_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      n_shards = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--short") == 0) {
      short_trace = true;
    }
  }

  // The chaos harness always runs with the full observability plane on:
  // the acceptance gates below require its artifacts. Flight dumps land
  // in the working directory (flight-serve.shard.kill.json per kill).
  obs::set_enabled(true);
  obs::flight::set_enabled(true);

  TraceOptions topts;
  if (short_trace) {
    topts.rbd_submissions = 2;
    topts.silicon_submissions = 2;
    topts.water_submissions = 6;
  }
  const std::vector<JobSpec> trace = mixed_tenant_trace(topts);
  const std::size_t nominal = trace_nominal_tasks(trace);
  std::printf("bench_serve_chaos: %zu jobs, %zu nominal tasks, %zu shards\n",
              trace.size(), nominal, n_shards);

  fault::ScopedFaults guard;  // both passes start from a clean injector

  std::printf("\nfault-free pass...\n");
  const RunOutcome clean =
      run_trace(trace, make_options("bench_chaos_wal/clean", n_shards),
                {}, {});

  std::printf("chaos pass (kills + torn WAL)...\n");
  // Jobtrace only now: both passes replay the same trace through fresh
  // services, so gids repeat — tracing the fault-free pass would merge
  // its spans into the chaos timelines the stitching gate inspects.
  obs::set_jobtrace_enabled(true);
  // The torn-write site stays armed for the whole pass; the kill site is
  // re-armed at each kill point inside run_trace.
  fault::reset();
  fault::FaultInjector::instance().configure_from_string(
      "serve.wal.torn_write:at=120");
  const std::size_t k1 = trace.size() / 3;
  const std::size_t k2 = 2 * trace.size() / 3;
  const std::size_t r1 = (k1 + k2) / 2;  // restart between the kills
  ShardedOptions chaos_opts = make_options("bench_chaos_wal/chaos", n_shards);
  // An unattainable latency SLO: every modeled job misses it, so the SLO
  // monitor must show the error budget burning while the chaos window is
  // open — that the burn actually registers is one of the gates.
  chaos_opts.slo.latency_slo_s = 1e-6;
  chaos_opts.slo.min_period_s = 0.0;  // snapshot on every tier tick
  const RunOutcome chaos = run_trace(trace, chaos_opts, {k1, k2}, {r1});

  // A mismatch is a job both passes completed with different spectra. A
  // job the chaos pass never completed is not one: it is either lost
  // (accepted, counted below) or rejected (fails the accepted gate).
  std::size_t mismatches = 0;
  for (const auto& [idx, h] : clean.hashes) {
    const auto it = chaos.hashes.find(idx);
    if (it != chaos.hashes.end() && it->second != h) ++mismatches;
  }
  const std::size_t lost = chaos.accepted - chaos.completed;
  const double replayed_fraction =
      nominal == 0 ? 0.0
                   : std::min(1.0, static_cast<double>(
                                       chaos.stats.replayed_tasks) /
                                       static_cast<double>(nominal));

  std::printf(
      "\nchaos: %zu accepted, %zu completed, %llu kills, %llu failovers, "
      "%llu jobs / %llu tasks replayed\n",
      chaos.accepted, chaos.completed,
      static_cast<unsigned long long>(chaos.stats.kills),
      static_cast<unsigned long long>(chaos.stats.failovers),
      static_cast<unsigned long long>(chaos.stats.replayed_jobs),
      static_cast<unsigned long long>(chaos.stats.replayed_tasks));
  std::printf(
      "lost jobs: %zu, bitwise mismatches: %zu, rejected: %zu "
      "(%zu resubmitted after retry_after_s)\n",
      lost, mismatches, chaos.rejected.size(), chaos.resubmits);
  std::printf(
      "obs plane: %llu flight dump(s), %zu traced jobs, "
      "max SLO burn %.1fx\n",
      static_cast<unsigned long long>(obs::flight::dump_count()),
      obs::JobTraceRegistry::instance().n_jobs(), chaos.max_burn);

  if (!json_path.empty()) {
    write_json(json_path, trace.size(), chaos.stats, replayed_fraction, lost,
               mismatches);
  }
  bool artifacts_ok = true;
  if (!jobtrace_path.empty()) {
    if (obs::write_jobtrace_file(jobtrace_path)) {
      std::printf("wrote %s\n", jobtrace_path.c_str());
    } else {
      std::printf("bench_serve_chaos: FAIL cannot write %s\n",
                  jobtrace_path.c_str());
      artifacts_ok = false;
    }
  }
  if (!health_path.empty()) {
    artifacts_ok = write_text(health_path, chaos.health_json) && artifacts_ok;
  }

  bool ok = artifacts_ok;
  if (chaos.stats.kills < 1) {
    std::printf("bench_serve_chaos: FAIL no shard kill fired\n");
    ok = false;
  }
  if (chaos.stats.replayed_jobs < 1) {
    std::printf("bench_serve_chaos: FAIL no job replayed from a WAL\n");
    ok = false;
  }
  if (chaos.accepted != clean.accepted) {
    std::printf("bench_serve_chaos: FAIL accepted %zu != fault-free %zu\n",
                chaos.accepted, clean.accepted);
    ok = false;
  }
  if (lost != 0) {
    std::printf("bench_serve_chaos: FAIL %zu accepted jobs lost\n", lost);
    ok = false;
  }
  if (mismatches != 0) {
    std::printf("bench_serve_chaos: FAIL %zu spectra differ bitwise\n",
                mismatches);
    ok = false;
  }
  if (!any_stitched_timeline()) {
    std::printf("bench_serve_chaos: FAIL no job timeline stitched across "
                "the kill/replay boundary\n");
    ok = false;
  }
  if (obs::flight::dump_count() < 1) {
    std::printf("bench_serve_chaos: FAIL no flight-recorder dump for the "
                "injected kills\n");
    ok = false;
  }
  if (!(chaos.max_burn > 0.0)) {
    std::printf("bench_serve_chaos: FAIL SLO burn never registered during "
                "the chaos window\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
