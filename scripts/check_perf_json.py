#!/usr/bin/env python3
"""Validate a swraman perf/bench/observability JSON report.

Usage: check_perf_json.py JSON_FILE [CHROME_TRACE_JSON]

The schema is autodetected from the top-level "schema" field:
  swraman-perf-v1      the tracing report emitted by src/obs/report.cpp
  swraman-bench-v1     benchmark series emitted by bench/*.cpp --json
  swraman-jobtrace-v1  per-job cross-shard timelines (src/obs/jobtrace.cpp)
  swraman-health-v1    SLO monitor snapshots (src/obs/slo.cpp)
  swraman-flight-v1    flight-recorder postmortem dumps (src/obs/flight.cpp)
  swraman-check-v2     checker exit summary (src/common/check.cpp): one
                       document for swcheck, lockcheck and commcheck

Exits non-zero with a diagnostic on any violation.  Used by
scripts/tier1.sh after the traced smoke run, the bench smoke runs, and
the chaos run's observability-plane artifacts.
"""

import json
import math
import sys


def fail(msg: str) -> None:
    print(f"check_perf_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def _finite_nonneg(path: str, where: str, r: dict, key: str) -> float:
    v = r.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        fail(f"{path}: {where} {key} must be a number")
    if not math.isfinite(v):
        fail(f"{path}: {where} {key} must be finite (got {v!r})")
    if v < 0:
        fail(f"{path}: {where} {key} must be non-negative (got {v!r})")
    return float(v)


def check_serve_record(path: str, i: int, r: dict) -> None:
    """One record of the serve-throughput bench: job counts plus wall time,
    throughput, latency percentiles, and the dedup-cache hit ratio."""
    where = f"records[{i}]"
    for key in ("jobs", "tasks", "executed_tasks"):
        if isinstance(r.get(key), bool) or not isinstance(r.get(key), int) \
                or r[key] < 0:
            fail(f"{path}: {where} {key} must be a non-negative integer")
    for key in ("seconds", "throughput_per_s", "p50_s", "p95_s", "p99_s"):
        _finite_nonneg(path, where, r, key)
    if not (r["p50_s"] <= r["p95_s"] <= r["p99_s"]):
        fail(f"{path}: {where} latency percentiles must be ordered "
             f"p50 <= p95 <= p99 (got {r['p50_s']}, {r['p95_s']}, "
             f"{r['p99_s']})")
    ratio = _finite_nonneg(path, where, r, "cache_hit_ratio")
    if ratio > 1.0:
        fail(f"{path}: {where} cache_hit_ratio must be <= 1 (got {ratio})")
    if r["executed_tasks"] > r["tasks"]:
        fail(f"{path}: {where} executed_tasks exceeds tasks")


def check_chaos_record(path: str, i: int, r: dict) -> None:
    """One record of the serve-chaos bench: recovered-job counts, failover
    latency percentiles, and the two hard durability gates (no lost
    accepted jobs, no bitwise spectrum drift vs the fault-free run)."""
    where = f"records[{i}]"
    for key in ("jobs", "kills", "recovered_jobs", "replayed_tasks",
                "failovers", "lost_jobs", "bitwise_mismatches"):
        if isinstance(r.get(key), bool) or not isinstance(r.get(key), int) \
                or r[key] < 0:
            fail(f"{path}: {where} {key} must be a non-negative integer")
    for key in ("failover_p50_s", "failover_p95_s", "failover_p99_s"):
        _finite_nonneg(path, where, r, key)
    if not (r["failover_p50_s"] <= r["failover_p95_s"]
            <= r["failover_p99_s"]):
        fail(f"{path}: {where} failover percentiles must be ordered "
             f"p50 <= p95 <= p99")
    frac = _finite_nonneg(path, where, r, "replayed_fraction")
    if frac > 1.0:
        fail(f"{path}: {where} replayed_fraction must be <= 1 (got {frac})")
    if r["kills"] < 1 or r["recovered_jobs"] < 1:
        fail(f"{path}: {where} chaos run must kill at least one shard and "
             f"replay at least one job (kills={r['kills']}, "
             f"recovered_jobs={r['recovered_jobs']})")
    if r["lost_jobs"] != 0:
        fail(f"{path}: {where} {r['lost_jobs']} accepted job(s) lost — "
             f"the WAL durability contract is broken")
    if r["bitwise_mismatches"] != 0:
        fail(f"{path}: {where} {r['bitwise_mismatches']} spectra differ "
             f"bitwise from the fault-free run")


def check_tiers_record(path: str, i: int, r: dict) -> None:
    """The accuracy-tier record of bench_serve_tiers: the bec tier must be
    a capacity win (speedup >= 1) bought with strictly fewer engine
    evaluations than full DFPT, and the golden-water error margins must be
    finite."""
    where = f"records[{i}]"
    speedup = _finite_nonneg(path, where, r, "speedup")
    if speedup < 1.0:
        fail(f"{path}: {where} tier speedup must be >= 1 (got {speedup})")
    dfpt = _finite_nonneg(path, where, r, "dfpt_evals")
    bec = _finite_nonneg(path, where, r, "bec_evals")
    if bec < 1:
        fail(f"{path}: {where} bec_evals must be >= 1 (got {bec})")
    if dfpt <= bec:
        fail(f"{path}: {where} evaluation counts must be ordered "
             f"dfpt_evals > bec_evals (got {dfpt} vs {bec})")
    for key in ("max_activity_rel_err", "max_dmu_err", "max_dalpha_err",
                "max_freq_abs_err_cm"):
        if key in r:
            _finite_nonneg(path, where, r, key)


def _host_threads(path: str, where: str, r: dict) -> None:
    """bench_fmm_crossover's fmm_s runs on every host core: it means
    nothing without the core count."""
    v = r.get("host_threads")
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        fail(f"{path}: {where} host_threads must be a positive integer "
             f"(fmm_s runs on that many cores)")


def check_fmm_cluster_record(path: str, i: int, r: dict,
                             prev_atoms: int) -> int:
    """One cluster-size row of bench_fmm_crossover: positive sizes that
    strictly grow across the series, finite timings, a speedup consistent
    with the one-core timings (direct_s / fmm_one_core_s), a live far
    field (M2L pairs), a sane relative error, and the host thread count
    the all-core fmm_s ran on."""
    where = f"records[{i}]"
    _host_threads(path, where, r)
    for key in ("molecules", "atoms", "points", "m2l_pairs", "p2p_pairs"):
        v = r.get(key)
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            fail(f"{path}: {where} {key} must be a non-negative integer")
    if r["atoms"] <= prev_atoms:
        fail(f"{path}: {where} cluster sizes must be strictly increasing "
             f"(got {r['atoms']} after {prev_atoms})")
    direct_s = _finite_nonneg(path, where, r, "direct_s")
    fmm_s = _finite_nonneg(path, where, r, "fmm_s")
    fmm_one_core_s = _finite_nonneg(path, where, r, "fmm_one_core_s")
    if direct_s <= 0 or fmm_s <= 0 or fmm_one_core_s <= 0:
        fail(f"{path}: {where} timings must be positive")
    speedup = _finite_nonneg(path, where, r, "speedup")
    if abs(speedup - direct_s / fmm_one_core_s) > 1e-3 * max(1.0, speedup):
        fail(f"{path}: {where} speedup {speedup} inconsistent with "
             f"direct_s/fmm_one_core_s ({direct_s / fmm_one_core_s})")
    if r["m2l_pairs"] < 1:
        fail(f"{path}: {where} a cluster row with no M2L pairs means the "
             f"far field never engaged")
    err = _finite_nonneg(path, where, r, "max_rel_err")
    if err > 1.0:
        fail(f"{path}: {where} max_rel_err must be <= 1 (got {err})")
    return r["atoms"]


def check_fmm_crossover_record(path: str, i: int, r: dict,
                               max_cluster_atoms: int) -> None:
    """The crossover summary of bench_fmm_crossover: a crossover must
    exist (the O(N) claim), the largest cluster must win under FMM, and
    the summary must agree with the cluster rows it summarizes."""
    where = f"records[{i}]"
    _host_threads(path, where, r)
    for key in ("crossover_atoms", "max_atoms"):
        v = r.get(key)
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            fail(f"{path}: {where} {key} must be a non-negative integer")
    if r["crossover_atoms"] < 1:
        fail(f"{path}: {where} crossover_atoms must be positive — no "
             f"crossover means direct summation never lost")
    if r["crossover_atoms"] > r["max_atoms"]:
        fail(f"{path}: {where} crossover_atoms exceeds max_atoms")
    if max_cluster_atoms and r["max_atoms"] != max_cluster_atoms:
        fail(f"{path}: {where} max_atoms {r['max_atoms']} disagrees with "
             f"the largest cluster row ({max_cluster_atoms})")
    speedup = _finite_nonneg(path, where, r, "speedup_at_max")
    if speedup < 1.0:
        fail(f"{path}: {where} speedup_at_max must be >= 1 "
             f"(got {speedup})")


def check_fig15_overlapped_record(path: str, i: int, r: dict) -> None:
    """An `overlapped` row of bench_fig15_allreduce: the hierarchical
    collective (comm_s) hidden under one DFPT iteration's kernels
    (compute_s) exposes only seconds == max(comm_s - compute_s, 0), to the
    six significant digits the bench prints."""
    where = f"records[{i}]"
    comm_s = _finite_nonneg(path, where, r, "comm_s")
    compute_s = _finite_nonneg(path, where, r, "compute_s")
    exposed = max(comm_s - compute_s, 0.0)
    if abs(r["seconds"] - exposed) > 1e-5 * max(comm_s, compute_s):
        fail(f"{path}: {where} seconds {r['seconds']} must equal "
             f"max(comm_s - compute_s, 0) = {exposed}")


def check_bench(path: str, doc: dict) -> None:
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(f"{path}: bench must be a non-empty string")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail(f"{path}: records must be a non-empty array")
    series = set()
    prev_cluster_atoms = 0
    for i, r in enumerate(records):
        if not isinstance(r.get("series"), str) or not r["series"]:
            fail(f"{path}: records[{i}] series must be a non-empty string")
        series.add(r["series"])
        if "fmm_s" in r:
            # fmm-crossover cluster row (bench_fmm_crossover --json)
            prev_cluster_atoms = check_fmm_cluster_record(
                path, i, r, prev_cluster_atoms)
            continue
        if "crossover_atoms" in r:
            # fmm-crossover summary (bench_fmm_crossover --json)
            check_fmm_crossover_record(path, i, r, prev_cluster_atoms)
            continue
        if "recovered_jobs" in r:
            # serve-chaos shape (bench_serve_chaos --json)
            check_chaos_record(path, i, r)
            continue
        if "dfpt_evals" in r:
            # accuracy-tier shape (bench_serve_tiers --json)
            check_tiers_record(path, i, r)
            continue
        if "throughput_per_s" in r:
            # serve-throughput shape (bench_serve_throughput --json)
            check_serve_record(path, i, r)
            continue
        if "value" in r and "ranks" not in r:
            # scalar summary record, e.g. the serve bench's speedup line
            _finite_nonneg(path, f"records[{i}]", r, "value")
            continue
        if not isinstance(r.get("ranks"), int) or r["ranks"] < 1:
            fail(f"{path}: records[{i}] ranks must be a positive integer")
        for key in ("bytes", "seconds"):
            _finite_nonneg(path, f"records[{i}]", r, key)
        if "cycles" in r:
            _finite_nonneg(path, f"records[{i}]", r, "cycles")
        if doc["bench"] == "fig15_allreduce" and r["series"] == "overlapped":
            check_fig15_overlapped_record(path, i, r)
    print(f"check_perf_json: {path}: OK "
          f"(bench {doc['bench']!r}, {len(records)} records, "
          f"{len(series)} series)")


def _finite_num(path: str, where: str, obj: dict, key: str) -> float:
    v = obj.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        fail(f"{path}: {where} {key} must be a number")
    if not math.isfinite(v):
        fail(f"{path}: {where} {key} must be finite (got {v!r})")
    return float(v)


def check_jobtrace(path: str, doc: dict) -> None:
    """swraman-jobtrace-v1: every job is one causal timeline.  Span ids
    are unique and ascending, the root is span 1, parents exist and start
    no later than their children (monotone nesting), events are
    zero-width, and a span may legitimately be open (end_ns == 0) — that
    is the footprint of work interrupted by a shard death."""
    jobs = doc.get("jobs")
    if not isinstance(jobs, list):
        fail(f"{path}: jobs must be an array")
    n_spans = 0
    n_open = 0
    n_replayed = 0
    for j, job in enumerate(jobs):
        where = f"jobs[{j}]"
        gid = job.get("gid")
        if isinstance(gid, bool) or not isinstance(gid, int) or gid < 1:
            fail(f"{path}: {where} gid must be a positive integer")
        incs = job.get("incarnations")
        if isinstance(incs, bool) or not isinstance(incs, int) or incs < 1:
            fail(f"{path}: {where} incarnations must be >= 1")
        if incs > 1:
            n_replayed += 1
        spans = job.get("spans")
        if not isinstance(spans, list) or not spans:
            fail(f"{path}: {where} spans must be a non-empty array")
        by_id = {}
        prev_id = 0
        for k, s in enumerate(spans):
            w = f"{where}.spans[{k}]"
            for key in ("id", "parent", "name", "shard", "incarnation",
                        "start_ns", "end_ns", "event", "attrs"):
                if key not in s:
                    fail(f"{path}: {w} missing {key!r}")
            if s["id"] <= prev_id:
                fail(f"{path}: {w} span ids must be unique and ascending "
                     f"(got {s['id']} after {prev_id})")
            prev_id = s["id"]
            if k == 0 and (s["id"] != 1 or s["parent"] != 0):
                fail(f"{path}: {w} the first span must be the root "
                     f"(id 1, parent 0)")
            if not (0 <= s["incarnation"] < incs):
                fail(f"{path}: {w} incarnation {s['incarnation']} outside "
                     f"[0, {incs})")
            if s["parent"] != 0:
                parent = by_id.get(s["parent"])
                if parent is None:
                    fail(f"{path}: {w} parent {s['parent']} does not exist "
                         f"(or follows its child)")
                # Monotone nesting: a child never starts before its
                # parent.  (A replayed child under the original root is
                # still later — the root predates the crash.)
                if s["start_ns"] < parent["start_ns"]:
                    fail(f"{path}: {w} starts before its parent "
                         f"({s['start_ns']} < {parent['start_ns']})")
            if s["end_ns"] == 0:
                n_open += 1
                if s["event"]:
                    fail(f"{path}: {w} an event cannot be open")
            else:
                if s["event"]:
                    if s["end_ns"] != s["start_ns"]:
                        fail(f"{path}: {w} events must be zero-width")
                elif s["end_ns"] < s["start_ns"]:
                    fail(f"{path}: {w} ends before it starts")
            by_id[s["id"]] = s
            n_spans += 1
    print(f"check_perf_json: {path}: OK ({len(jobs)} job timelines, "
          f"{n_spans} spans, {n_replayed} replayed, "
          f"{n_open} open across shard deaths)")


def check_health(path: str, doc: dict) -> None:
    """swraman-health-v1: SLO monitor history.  Snapshot times ascend,
    ratios stay in [0, 1], percentiles are finite and ordered, per-tenant
    counters never run backwards, and every burn rate obeys
    burn = (1 - window_attainment) / (1 - objective) within float slack."""
    slo = _finite_num(path, "top-level", doc, "latency_slo_s")
    if slo <= 0:
        fail(f"{path}: latency_slo_s must be positive")
    objective = _finite_num(path, "top-level", doc, "objective")
    if not (0.0 <= objective < 1.0):
        fail(f"{path}: objective must lie in [0, 1) (got {objective})")
    budget = 1.0 - objective
    full_burn = 1.0 / budget
    snaps = doc.get("snapshots")
    if not isinstance(snaps, list) or not snaps:
        fail(f"{path}: snapshots must be a non-empty array")
    prev_t = 0
    prev_finished = {}
    max_burn_seen = 0.0
    tenants = set()
    for i, s in enumerate(snaps):
        where = f"snapshots[{i}]"
        t = s.get("t_ns")
        if isinstance(t, bool) or not isinstance(t, int) or t < prev_t:
            fail(f"{path}: {where} t_ns must be a non-decreasing integer")
        prev_t = t
        if _finite_num(path, where, s, "queue_depth") < 0:
            fail(f"{path}: {where} queue_depth must be non-negative")
        ratio = _finite_num(path, where, s, "cache_hit_ratio")
        if not (0.0 <= ratio <= 1.0):
            fail(f"{path}: {where} cache_hit_ratio outside [0, 1]")
        p99 = _finite_num(path, where, s, "wal_fsync_p99_s")
        fmax = _finite_num(path, where, s, "wal_fsync_max_s")
        if p99 < 0 or fmax < 0 or p99 > fmax * (1 + 1e-9):
            fail(f"{path}: {where} wal fsync percentiles must satisfy "
                 f"0 <= p99 <= max (got {p99}, {fmax})")
        max_burn = _finite_num(path, where, s, "max_burn_rate")
        if max_burn < 0 or max_burn > full_burn * (1 + 1e-9):
            fail(f"{path}: {where} max_burn_rate outside [0, 1/(1-obj)] "
                 f"(got {max_burn}, full burn {full_burn})")
        max_burn_seen = max(max_burn_seen, max_burn)
        worst = 0.0
        for k, ten in enumerate(s.get("tenants", [])):
            w = f"{where}.tenants[{k}]"
            name = ten.get("tenant")
            if not isinstance(name, str) or not name:
                fail(f"{path}: {w} tenant must be a non-empty string")
            tenants.add(name)
            finished = ten.get("finished")
            if isinstance(finished, bool) or not isinstance(finished, int) \
                    or finished < prev_finished.get(name, 0):
                fail(f"{path}: {w} finished count ran backwards")
            prev_finished[name] = finished
            wf = ten.get("window_finished")
            if isinstance(wf, bool) or not isinstance(wf, int) or wf < 0 \
                    or wf > finished:
                fail(f"{path}: {w} window_finished outside [0, finished]")
            att = _finite_num(path, w, ten, "attainment")
            watt = _finite_num(path, w, ten, "window_attainment")
            if not (0.0 <= att <= 1.0) or not (0.0 <= watt <= 1.0):
                fail(f"{path}: {w} attainment outside [0, 1]")
            burn = _finite_num(path, w, ten, "burn_rate")
            want = (1.0 - watt) / budget
            if abs(burn - want) > 1e-6 * max(1.0, want):
                fail(f"{path}: {w} burn_rate {burn} inconsistent with "
                     f"window_attainment (want {want})")
            worst = max(worst, burn)
            p50 = _finite_num(path, w, ten, "p50_s")
            p99t = _finite_num(path, w, ten, "p99_s")
            if p50 < 0 or p99t < 0 or p50 > p99t * (1 + 1e-9):
                fail(f"{path}: {w} latency percentiles must satisfy "
                     f"0 <= p50 <= p99 (got {p50}, {p99t})")
        if worst > max_burn * (1 + 1e-9):
            fail(f"{path}: {where} max_burn_rate {max_burn} below worst "
                 f"tenant burn {worst}")
    print(f"check_perf_json: {path}: OK ({len(snaps)} snapshots, "
          f"{len(tenants)} tenants, worst burn {max_burn_seen:.2f}x)")


def check_flight(path: str, doc: dict) -> None:
    """swraman-flight-v1: postmortem ring dump — a reason, decoded ring
    events with per-thread ordinals, and counter values with deltas since
    the previous dump."""
    if not isinstance(doc.get("reason"), str) or not doc["reason"]:
        fail(f"{path}: reason must be a non-empty string")
    seq = doc.get("dump_seq")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
        fail(f"{path}: dump_seq must be a positive integer")
    events = doc.get("events")
    if not isinstance(events, list):
        fail(f"{path}: events must be an array")
    per_thread = {}
    for i, e in enumerate(events):
        where = f"events[{i}]"
        for key in ("t_ns", "tid", "seq", "tag"):
            if key not in e:
                fail(f"{path}: {where} missing {key!r}")
        if not isinstance(e["tag"], str) or not e["tag"]:
            fail(f"{path}: {where} tag must be a non-empty string")
        _finite_num(path, where, e, "a")
        _finite_num(path, where, e, "b")
        # Per-thread ordinals are unique: the seqlock may drop slots but
        # must never duplicate one.
        tid_seqs = per_thread.setdefault(e["tid"], set())
        if e["seq"] in tid_seqs:
            fail(f"{path}: {where} duplicate ring ordinal {e['seq']} for "
                 f"tid {e['tid']}")
        tid_seqs.add(e["seq"])
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: counters must be an object")
    for name, c in counters.items():
        _finite_num(path, f"counters[{name!r}]", c, "value")
        _finite_num(path, f"counters[{name!r}]", c, "delta")
    print(f"check_perf_json: {path}: OK (flight dump "
          f"{doc['reason']!r}, {len(events)} events, "
          f"{len(counters)} counters)")


def check_perf_histograms(path: str, hists: dict) -> None:
    """Histogram summary audit: every exported histogram must have
    ordered, finite percentiles bracketed by min/max, and a mean
    consistent with count and sum (the edge cases the C++ side
    regression-tests: empty -> all zero, single sample -> min == max)."""
    for name, h in hists.items():
        where = f"histograms[{name!r}]"
        count = h.get("count")
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            fail(f"{path}: {where} count must be a non-negative integer")
        for key in ("sum", "min", "max", "mean", "p50", "p95", "p99"):
            _finite_num(path, where, h, key)
        if count == 0:
            if any(h[k] != 0 for k in ("sum", "min", "max", "mean",
                                       "p50", "p95", "p99")):
                fail(f"{path}: {where} empty histogram must report zeros")
            continue
        if h["min"] > h["max"]:
            fail(f"{path}: {where} min exceeds max")
        eps = 1e-9 * max(1.0, abs(h["max"]))
        if not (h["min"] - eps <= h["p50"] <= h["p95"] <= h["p99"]
                <= h["max"] + eps):
            fail(f"{path}: {where} percentiles must satisfy "
                 f"min <= p50 <= p95 <= p99 <= max (got {h['p50']}, "
                 f"{h['p95']}, {h['p99']} in [{h['min']}, {h['max']}])")
        if not (h["min"] - eps <= h["mean"] <= h["max"] + eps):
            fail(f"{path}: {where} mean outside [min, max]")
        if abs(h["mean"] * count - h["sum"]) > 1e-6 * max(1.0, abs(h["sum"])):
            fail(f"{path}: {where} mean * count != sum")


# Every violation rule the checker summary may tally: swcheck's
# accelerator-model rules, lockcheck's lock.* rules, commcheck's p2p.*
# rules and the communicator's coll.* rule share one tally.
CHECK_RULES = {
    "ldm.bounds",
    "ldm.use_after_reset",
    "dma.inflight_access",
    "dma.overlap",
    "dma.wait_unreachable",
    "dma.reply_overrun",
    "dma.unwaited_at_finish",
    "rma.unconsumed",
    "rma.deadlock",
    "lock.order_cycle",
    "lock.blocking_under_lock",
    "lock.condvar_no_predicate",
    "lock.guard_unheld",
    "p2p.orphaned_message",
    "p2p.recv_cycle",
    "coll.abandoned_request",
}

def check_checker_summary(path: str, doc: dict) -> None:
    """swraman-check-v2 exit summary: enabled flag, total, per-rule tally
    drawn from CHECK_RULES with the counts summing to the total, and a
    well-formed lock-class site table.  A disabled run must emit an
    empty report."""
    schema = "swraman-check-v2"
    enabled = doc.get("enabled")
    if not isinstance(enabled, bool):
        fail(f"{path}: {schema} enabled must be a boolean")
    total = doc.get("violations")
    if isinstance(total, bool) or not isinstance(total, int) or total < 0:
        fail(f"{path}: {schema} violations must be a non-negative integer")
    rules = doc.get("rules")
    if not isinstance(rules, dict):
        fail(f"{path}: {schema} rules must be an object")
    tallied = 0
    for rule, n in rules.items():
        if rule not in CHECK_RULES:
            fail(f"{path}: {schema} unknown rule {rule!r} (known: "
                 f"{sorted(CHECK_RULES)})")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            fail(f"{path}: {schema} rules[{rule!r}] must be a positive "
                 f"integer (a rule that never fired is omitted)")
        tallied += n
    if tallied != total:
        fail(f"{path}: {schema} rule counts sum to {tallied} but "
             f"violations is {total}")
    if not enabled and (total != 0 or rules):
        fail(f"{path}: {schema} disabled run must emit an empty report "
             f"(got violations={total}, {len(rules)} rules)")
    sites = doc.get("sites")
    if not isinstance(sites, list):
        fail(f"{path}: {schema} sites must be an array")
    seen_ids = set()
    for i, s in enumerate(sites):
        where = f"sites[{i}]"
        sid = s.get("id")
        if isinstance(sid, bool) or not isinstance(sid, int) or sid < 1:
            fail(f"{path}: {where} id must be a positive integer")
        if sid in seen_ids:
            fail(f"{path}: {where} duplicate lock-class id {sid}")
        seen_ids.add(sid)
        for key in ("name", "file"):
            if not isinstance(s.get(key), str) or not s[key]:
                fail(f"{path}: {where} {key} must be a non-empty string")
        line = s.get("line")
        if isinstance(line, bool) or not isinstance(line, int) or line < 1:
            fail(f"{path}: {where} line must be a positive integer")
    state = "enabled" if enabled else "disabled"
    print(f"check_perf_json: {path}: OK ({schema} {state}, "
          f"{total} violations, {len(rules)} rules fired, "
          f"{len(sites)} lock classes)")


def check_perf_v1(path: str, doc: dict) -> None:
    """swraman-perf-v1 run report: wall time, span count, DFS-ordered
    phase tree and the metrics registry with audited histograms."""
    if not isinstance(doc.get("total_wall_s"), (int, float)) or doc["total_wall_s"] <= 0:
        fail(f"{path}: total_wall_s must be a positive number")
    if not isinstance(doc.get("spans"), int) or doc["spans"] <= 0:
        fail(f"{path}: spans must be a positive integer")

    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        fail(f"{path}: phases must be a non-empty array")
    for i, p in enumerate(phases):
        for key in ("path", "name", "depth", "count", "wall_s", "self_s"):
            if key not in p:
                fail(f"{path}: phases[{i}] missing {key!r}")
        if p["wall_s"] < 0 or p["self_s"] < 0:
            fail(f"{path}: phases[{i}] has negative wall_s/self_s")
        if p["self_s"] > p["wall_s"] + 1e-9:
            fail(f"{path}: phases[{i}] self_s exceeds wall_s")
        if p["count"] < 1:
            fail(f"{path}: phases[{i}] count must be >= 1")
        # Non-root phases must appear after their parent (DFS order).
        parent = p["path"].rsplit("/", 1)[0] if "/" in p["path"] else None
        if parent is not None:
            earlier = {q["path"] for q in phases[:i]}
            if parent not in earlier:
                fail(f"{path}: phases[{i}] parent {parent!r} not listed before it")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"{path}: metrics must be an object")
    for group in ("counters", "gauges", "histograms"):
        if group not in metrics:
            fail(f"{path}: metrics missing {group!r}")
    check_perf_histograms(path, metrics["histograms"])

    print(f"check_perf_json: {path}: OK "
          f"({len(phases)} phases, {doc['spans']} spans, "
          f"{len(metrics['counters'])} counters, "
          f"{len(metrics['histograms'])} histograms audited)")


VALIDATORS = {
    "swraman-perf-v1": check_perf_v1,
    "swraman-bench-v1": check_bench,
    "swraman-jobtrace-v1": check_jobtrace,
    "swraman-health-v1": check_health,
    "swraman-flight-v1": check_flight,
    "swraman-check-v2": check_checker_summary,
}


def check_perf(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")

    schema = doc.get("schema")
    validator = VALIDATORS.get(schema) if isinstance(schema, str) else None
    if validator is None:
        known = ", ".join(repr(name) for name in VALIDATORS)
        fail(f"{path}: schema is {schema!r}, expected one of {known}")
    validator(path, doc)


def check_trace(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")
    for i, e in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in e:
                fail(f"{path}: traceEvents[{i}] missing {key!r}")
        if e["ph"] not in ("X", "i"):
            fail(f"{path}: traceEvents[{i}] unexpected ph {e['ph']!r}")
        if e["ph"] == "X" and "dur" not in e:
            fail(f"{path}: traceEvents[{i}] complete event missing 'dur'")
    print(f"check_perf_json: {path}: OK ({len(events)} trace events)")


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: check_perf_json.py PERF_JSON [CHROME_TRACE_JSON]")
    check_perf(sys.argv[1])
    if len(sys.argv) > 2:
        check_trace(sys.argv[2])


if __name__ == "__main__":
    main()
