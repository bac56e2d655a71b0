#!/usr/bin/env python3
"""swraman benchmark: one run of one workload.

    python3 swbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds swbench/ (CMake, into
$CARGO_TARGET_DIR/swbench, default .bench_build/swbench) on first use, runs
the workload for --seconds, checks every result, writes a stamped record to
<build>/records/ and prints it, then prints the result line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(README.md in this directory has the glossary).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "swbench")
GOLDEN = "tests/golden/golden_water_raman.txt"
WORKLOADS = ("water_raman", "cluster_polar", "serve_burst")
RUN_TIMEOUT_S = 170
# Time of the host-speed probe (calibrate() in cpp/main.cpp) on the host the
# benchmark was written on: Intel Xeon, 4-vCPU VM, GCC 12 -O3.
REFERENCE_CALIB_S = 0.075

# Per-layer self-time buckets: each span name lands in at most one, so the
# buckets partition the traced time. The benchmark's root span and any span
# name not listed stay unattributed and lower trace.coverage.
SELF_BUCKETS = {
    "raman.self_s": ["raman.compute", "raman.hessian", "raman.dalpha",
                     "raman.geometry", "raman.spectrum", "raman.bec.compute",
                     "raman.bec.dalpha", "raman.bec.fields", "raman.bec.field",
                     "bench.raman.hessian", "bench.raman.modes",
                     "bench.raman.dalpha", "bench.raman.assemble"],
    "scf.setup_s": ["scf.build_matrices", "grid.make_batches",
                    "grid.balance_batches", "bench.scf.build"],
    "scf.cycle_s": ["scf.solve", "scf.iter", "scf.density.wait",
                    "bench.scf.solve"],
    "scf.forces_s": ["scf.forces.build", "scf.forces"],
    "xc.eval_s": ["scf.veff", "dfpt.v1"],
    "grid.density_s": ["scf.density", "dfpt.n1"],
    "grid.integrate_s": ["scf.hamiltonian", "dfpt.h1"],
    "linalg.eigensolve_s": ["scf.eigensolve"],
    "hartree.multipole_s": ["hartree.multipole"],
    "hartree.direct_eval_s": ["hartree.poisson"],
    "fmm.build_s": ["hartree.fmm.build"],
    "fmm.upward_s": ["hartree.fmm.upward"],
    "fmm.traversal_s": ["hartree.fmm.traversal"],
    "fmm.downward_s": ["hartree.fmm.downward"],
    "fmm.p2p_s": ["hartree.fmm.p2p"],
    "dfpt.sternheimer_s": ["dfpt.sternheimer"],
    "dfpt.cycle_s": ["dfpt.response", "dfpt.iter", "dfpt.polarizability",
                     "bench.dfpt.polarizability"],
    "serve.self_s": ["serve.task", "serve.submit", "serve.hessian",
                     "serve.assemble", "serve.assemble.bec",
                     "bench.serve.construct", "bench.serve.submit"],
}

# Inclusive span time (children included).
TOTALS = {
    "raman.hessian_s": "bench.raman.hessian",
    "raman.dalpha_s": "bench.raman.dalpha",
    "hartree.poisson_s": "hartree.poisson",
    "dfpt.n1_s": "dfpt.n1",
    "dfpt.v1_s": "dfpt.v1",
    "dfpt.h1_s": "dfpt.h1",
    "serve.submit_s": "bench.serve.submit",
    "serve.engine_busy_s": "serve.task",
}

# Span counts.
COUNTS = {
    "raman.engine_builds": "scf.build_matrices",
    "hartree.solves": "hartree.poisson",
}

# Mean of a span attribute over its spans: per-geometry sizes.
ATTR_MEAN = {
    "grid.points": ("scf.build_matrices", "grid_points"),
    "grid.batches": ("scf.build_matrices", "batches"),
    "fmm.m2l_pairs": ("hartree.fmm.build", "m2l_pairs"),
    "fmm.p2p_pairs": ("hartree.fmm.build", "p2p_pairs"),
}

# Deltas of library counters over the traced operation.
COUNTERS = {
    "scf.solves": "scf.solves",
    "scf.iterations": "scf.iterations",
    "dfpt.responses": "dfpt.response.solves",
    "dfpt.iterations": "dfpt.iterations",
    "sunway.cpe_flops": "sunway.kernel.flops",
    "sunway.cpe_dma_bytes": "sunway.dma.bytes",
}

# ServiceStats of the traced burst (serve_burst only).
SERVICE = {
    "serve.tasks_executed": "tasks_executed",
    "serve.field_tasks_executed": "field_tasks_executed",
    "serve.cache_hit_ratio": "cache_hit_ratio",
    "serve.repeat_share": "repeat_share",
    "serve.task_retries": "task_retries",
    "serve.jobs_failed": "jobs_failed",
    "serve.jobs_rejected": "jobs_rejected",
}

UNITS = {"jobs_per_s": "1/s", "peak_rss_mb": "MB", "_s": "s",
         "_share": "ratio", "_ratio": "ratio", "_utilization": "ratio",
         "coverage": "ratio", "_bytes": "bytes", "_flops": "flop",
         "_cycles": "cycles"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(raw):
    """Timings in reference-host seconds: each measured time is scaled by
    REFERENCE_CALIB_S over the host-speed probes taken around it."""
    calib = raw["info"]["calib_s"]
    # Operation i ran between probes i and i + 1; set-up followed probe 0.
    scale = [2 * REFERENCE_CALIB_S / (calib[i] + calib[i + 1])
             for i in range(len(raw["op_s"]))]
    latencies = [x * s for lat, s in zip(raw["latency_s"], scale) for x in lat]
    per_op_jobs = [n / (t * s) for n, t, s in
                   zip(raw["info"]["completed"], raw["op_s"], scale) if t > 0]
    setup = sum(statistics.median(v) for v in raw["setup_parts"].values())
    return {
        "setup_s": setup * REFERENCE_CALIB_S / calib[0],
        "jobs_per_s": statistics.median(per_op_jobs) if per_op_jobs else 0.0,
        "job_latency_p50_s": percentile(latencies, 0.50) if latencies else 0.0,
        "job_latency_p75_s": percentile(latencies, 0.75) if latencies else 0.0,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    trace = raw["trace"]
    spans = trace["spans"]
    m = {name: sum(spans[n]["self_s"] for n in names if n in spans)
         for name, names in SELF_BUCKETS.items()}
    attributed = sum(m.values())
    for name, span in TOTALS.items():
        m[name] = spans.get(span, {}).get("total_s", 0.0)
    for name, span in COUNTS.items():
        m[name] = spans.get(span, {}).get("count", 0)
    for name, (span, attr) in ATTR_MEAN.items():
        agg = spans.get(span)
        m[name] = agg["attrs"].get(attr, 0.0) / agg["count"] if agg else 0.0
    for name, counter in COUNTERS.items():
        m[name] = trace["counters"].get(counter, 0.0)
    m["sunway.cpe_modeled_cycles"] = sum(
        a["attrs"].get("modeled_cycles_cpe", 0.0) for a in spans.values())
    info = trace["info"]
    for name, key in SERVICE.items():
        m[name] = info.get(key, 0.0)
    workers = info.get("workers", 0.0)
    m["serve.worker_utilization"] = (
        m["serve.engine_busy_s"] / (trace["op_s"] * workers) if workers else 0.0)

    untraced = statistics.median(raw["op_s"])
    m["trace.wall_s"] = trace["op_s"]
    m["trace.overhead_s"] = trace["op_s"] - untraced
    m["trace.overhead_share"] = m["trace.overhead_s"] / untraced
    m["trace.coverage"] = (attributed / trace["top_level_s"]
                           if trace["top_level_s"] > 0 else 0.0)
    m["trace.spans"] = sum(a["count"] for a in spans.values())
    m["trace.spans_dropped"] = trace["spans_dropped"]
    return m


def build_binary():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, base, "swbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True, timeout=300)
    subprocess.run(["cmake", "--build", bdir, "-j", "4",
                    "--target", "swbench_run"],
                   stdout=log, stderr=log, check=True, timeout=840)
    return bdir, os.path.join(bdir, "swbench_run")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "swbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bdir, binary = build_binary()
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--golden", GOLDEN],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, check=True)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        print(f"swbench: {e}", file=sys.stderr)
        return 1

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    record = {
        "benchmark": "swbench",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                 "platform": platform.platform()},
        "build": raw["build"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "raw": raw,
        "result": result,
        "summary": {
            "workload": args.workload,
            "correct": result["correct"],
            "failed_share": raw["failed"] / max(raw["attempted"], 1),
            "failures": raw["failures"],
            "claim": None,
        },
    }
    os.makedirs(os.path.join(bdir, "records"), exist_ok=True)
    path = os.path.join(
        bdir, "records",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
