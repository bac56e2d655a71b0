#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): full build + ctest, the repo lint
# gate, fully checked (SWRAMAN_CHECK=1) runs of the sunway suites AND
# the serve/obs/parallel suites (the host concurrency checker: lock
# order graph, blocking-under-lock audit, p2p protocol verifier — zero
# violations tolerated), the serve throughput gate (>= 2x over naive
# FIFO with dedup hits), the serve chaos gate (shard kills + WAL
# replay, zero lost jobs, bitwise spectra, lockcheck-clean), then
# instrumented passes — the robustness/fault-injection suite under
# ASan/UBSan, the obs + parallel + serve + sunway + fmm + hartree suites
# under TSan (the metrics registry claims lock-free counters, the serve
# pool race-free work stealing, the CPE dispatch race-free kernel bodies,
# the Hartree context race-free shared solves; this is where we prove
# them; plus the concurrent SCF grid-pass tests, serial and claim-next
# parallel, the nested fork-join and ordered-commit tests and the
# concurrent displaced-geometry Raman loops),
# and the serve, obs, hartree, grid, dfpt and fmm suites plus the SCF
# grid-pass reference tests under UBSan.
# Set SWRAMAN_SANITIZE=undefined to swap the robustness pass to UBSan,
# or SWRAMAN_SANITIZE=none to skip every instrumented pass.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER="${SWRAMAN_SANITIZE:-address}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# check_summary FILE LABEL MODE: validates a SWRAMAN_CHECK_FILE (one
# swraman-check-v2 document: the merged swcheck + lockcheck + commcheck
# tally), then asserts the checkers ran enabled. MODE=clean also asserts
# zero violations of any rule; MODE=seeded is for suites that plant
# violations on purpose.
check_summary() {
  local file="$1" label="$2" mode="$3"
  python3 scripts/check_perf_json.py "${file}"
  python3 - "${file}" "${label}" "${mode}" <<'EOF'
import json, sys
path, label, mode = sys.argv[1:4]
with open(path) as f:
    s = json.load(f)
assert s["enabled"] is True, s
if mode == "clean":
    assert s["violations"] == 0, \
        f"{label}: violations under SWRAMAN_CHECK=1: {s['rules']}"
print(f"{label}: checkers enabled, {s['violations']} violation(s)")
EOF
}

echo "== tier-1: plain build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== tier-1: stable test names =="
# A parameterized case without a printer is named by its raw bytes,
# uninitialized padding included, so its ctest name changes from build to
# build. Every parameter type needs a PrintTo.
if (cd build && ctest -N) | grep -F -- '-byte object <'; then
  echo "tier-1: FAIL: ctest names above print raw parameter bytes"
  exit 1
fi

echo "== tier-1: repo lint gate (scripts/lint.py) =="
python3 scripts/lint.py build

echo "== tier-1: checked execution (SWRAMAN_CHECK=1) =="
# test_sunway_check plants swcheck violations on purpose, so its run
# asserts only that the checkers ran. test_sunway (the paper kernels and
# the parallel logical-CPE dispatch) takes its one planted violation back
# out of the tally, so its run must read clean.
CHECK_DIR="build/check-smoke"
mkdir -p "${CHECK_DIR}"
SWRAMAN_CHECK=1 \
  SWRAMAN_CHECK_FILE="${CHECK_DIR}/swraman_check.json" \
  ./build/tests/test_sunway_check
check_summary "${CHECK_DIR}/swraman_check.json" "checked run" seeded
SWRAMAN_CHECK=1 \
  SWRAMAN_CHECK_FILE="${CHECK_DIR}/test_sunway_check.json" \
  ./build/tests/test_sunway >/dev/null
check_summary "${CHECK_DIR}/test_sunway_check.json" "test_sunway" clean

echo "== tier-1: fmm suite + golden Fmm water under the checkers =="
# The octree Hartree backend's CPE offload (M2L / P2P staging) runs with
# the accelerator shadow checker live, both on the unit/property suite
# and on the end-to-end golden water spectrum under HartreeBackend::Fmm.
# Unlike test_sunway_check there are no seeded violations here: any
# nonzero tally is a real LDM/DMA contract breach in the FMM kernels.
for run in "test_fmm:./build/tests/test_fmm" \
           "golden-fmm-water:./build/tests/test_golden --gtest_filter=GoldenSpectrum.WaterRamanUnderFmmBackendMatchesSnapshot"; do
  name="${run%%:*}"
  cmd="${run#*:}"
  SWRAMAN_CHECK=1 \
    SWRAMAN_CHECK_FILE="${CHECK_DIR}/${name}_check.json" \
    ${cmd} >/dev/null
  check_summary "${CHECK_DIR}/${name}_check.json" "${name}" clean
done

echo "== tier-1: serve + obs suites under the concurrency checker =="
# The whole serve tier, obs plane and SPMD runtime run with every checker
# live — lock-order graph, blocking-under-lock audit, p2p verifier,
# abandoned-collective rule and the CPE shadow state; each suite must be
# violation-free (the seeded-violation tests clean up after themselves
# via ScopedChecking, so any nonzero tally is a real contract breach).
for suite in test_serve test_obs test_parallel; do
  SWRAMAN_CHECK=1 \
    SWRAMAN_CHECK_FILE="${CHECK_DIR}/${suite}_check.json" \
    "./build/tests/${suite}" >/dev/null
  check_summary "${CHECK_DIR}/${suite}_check.json" "${suite}" clean
done

echo "== tier-1: traced smoke run (SWRAMAN_TRACE=1) =="
SMOKE_DIR="build/trace-smoke"
mkdir -p "${SMOKE_DIR}"
SWRAMAN_TRACE=1 \
  SWRAMAN_PERF_FILE="${SMOKE_DIR}/swraman_perf.json" \
  SWRAMAN_TRACE_FILE="${SMOKE_DIR}/swraman_trace.json" \
  ./build/bench/bench_fig15_allreduce >/dev/null
python3 scripts/check_perf_json.py \
  "${SMOKE_DIR}/swraman_perf.json" "${SMOKE_DIR}/swraman_trace.json"

echo "== tier-1: bench smoke (fig15 acceptance gate + JSON) =="
# The bench itself enforces the hierarchical-allreduce acceptance criteria
# (>= 1.5x over flat RSAG, >= 50% overlap-hidden) and exits non-zero on
# regression; the emitted swraman-bench-v1 series is validated and left in
# build/trace-smoke (the committed BENCH_*.json baselines are refreshed
# only on purpose, see README "Benchmarks").
./build/bench/bench_fig15_allreduce --json "${SMOKE_DIR}/BENCH_fig15.json" \
  >/dev/null
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_fig15.json"

echo "== tier-1: serve smoke + throughput gate (SWRAMAN_CHECK=1) =="
# The serve bench runs the mixed-tenant trace twice (naive FIFO vs the
# full scheduler) and exits non-zero unless the DAG/dedup path is >= 2x
# faster with a non-zero cache hit ratio; running it under SWRAMAN_CHECK=1
# keeps the shadow-state checker live across the whole service stack.
SWRAMAN_CHECK=1 SWRAMAN_CHECK_FILE="${CHECK_DIR}/serve_bench_check.json" \
  ./build/bench/bench_serve_throughput \
  --json "${SMOKE_DIR}/BENCH_serve.json" >/dev/null
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_serve.json"
check_summary "${CHECK_DIR}/serve_bench_check.json" "serve bench" clean

echo "== tier-1: accuracy-tier gate (bec vs dfpt, golden water) =="
# The tiers bench pushes the same water-scale job batch through both
# accuracy tiers (modeled, dedup off — capacity not caching) and then
# runs the golden water case on the real engine: it exits non-zero unless
# the bec tier is a wall-clock capacity win, performs >= 5x fewer engine
# evaluations than full DFPT, and lands inside the DESIGN.md S15 golden
# tolerances (activities within 5% on shared-Hessian modes).
SWRAMAN_CHECK=1 SWRAMAN_CHECK_FILE="${CHECK_DIR}/tiers_bench_check.json" \
  ./build/bench/bench_serve_tiers \
  --json "${SMOKE_DIR}/BENCH_tiers.json" >/dev/null
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_tiers.json"
check_summary "${CHECK_DIR}/tiers_bench_check.json" "tiers bench" clean

echo "== tier-1: fmm crossover gate (octree Hartree backend) =="
# Growing water clusters priced through both Hartree evaluation paths.
# The bench exits non-zero unless FMM crosses below direct summation
# before the largest cluster and wins >= 1.5x at the largest; the
# emitted swraman-bench-v1 series is validated and left in
# build/trace-smoke.
./build/bench/bench_fmm_crossover --json "${SMOKE_DIR}/BENCH_fmm.json"
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_fmm.json"

echo "== tier-1: hotspots pipeline (selftest + smoke report) =="
# The ranking core is pinned by its checked-in fixture, then run over the
# traced smoke report it will see in production (modeled allreduce cycles).
python3 scripts/hotspots.py --selftest
python3 scripts/hotspots.py "${SMOKE_DIR}/swraman_perf.json" --top 5
python3 scripts/hotspots.py "${SMOKE_DIR}/swraman_perf.json" \
  --json "${SMOKE_DIR}/hotspots.json" >/dev/null

echo "== tier-1: serve chaos gate (kills + WAL replay, SWRAMAN_CHECK=1) =="
# The chaos harness replays the short mixed-tenant trace through the
# sharded tier twice (fault-free vs shard kills + torn WAL) and exits non-zero unless every accepted job survives with a
# bitwise-identical spectrum. The same run drives the observability plane
# end to end: the bench itself gates on a jobtrace stitched across the
# kill/replay boundary, a flight-recorder dump per injected kill, and a
# non-zero SLO burn during the chaos window; the exported artifacts
# (chaos record, jobtrace, health history, kill postmortem) are then
# validated structurally here.
(cd "${SMOKE_DIR}" && SWRAMAN_CHECK=1 SWRAMAN_CHECK_FILE=chaos_check.json \
  ../../build/bench/bench_serve_chaos \
  --short --json BENCH_chaos.json --jobtrace chaos_jobtrace.json \
  --health chaos_health.json >/dev/null)
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_chaos.json"
# The chaos run is the concurrency checker's hardest gate: shard kills,
# WAL replay and failover, all with the lock graph live — and zero
# violations tolerated.
check_summary "${SMOKE_DIR}/chaos_check.json" "chaos run" clean
python3 scripts/check_perf_json.py "${SMOKE_DIR}/chaos_jobtrace.json"
python3 scripts/check_perf_json.py "${SMOKE_DIR}/chaos_health.json"
test -f "${SMOKE_DIR}/flight-serve.shard.kill.json" || {
  echo "tier-1: FAIL: no flight-recorder dump for the injected shard kills"
  exit 1
}
python3 scripts/check_perf_json.py "${SMOKE_DIR}/flight-serve.shard.kill.json"

if [ "${SANITIZER}" != "none" ]; then
  echo "== tier-1: robustness suite under -fsanitize=${SANITIZER} =="
  cmake -B "build-${SANITIZER}" -S . \
        -DSWRAMAN_SANITIZE="${SANITIZER}" \
        -DSWRAMAN_BUILD_BENCH=OFF -DSWRAMAN_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "build-${SANITIZER}" -j "${JOBS}" --target \
        test_robustness
  "./build-${SANITIZER}/tests/test_robustness"

  echo "== tier-1: obs + parallel + serve + sunway + fmm + hartree (+ scf grid passes, level-1 raman loops) under -fsanitize=thread =="
  # Bench stays ON here (only the chaos target is built): the sharded
  # tier's kill/replay interleavings are exactly what TSan must see.
  cmake -B build-thread -S . \
        -DSWRAMAN_SANITIZE=thread \
        -DSWRAMAN_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-thread -j "${JOBS}" --target test_obs test_parallel \
        test_serve test_sunway test_fmm test_hartree test_scf test_common \
        test_raman bench_serve_chaos
  ./build-thread/tests/test_obs
  ./build-thread/tests/test_parallel
  # The thread budget: a fork_join or claim loop inside a task runs inline
  # on that thread, run_dedicated keeps one real thread per SPMD rank, and
  # claim_each hands back the lowest failing index only after every call
  # has returned. claim_each_ordered commits strictly in index order from
  # whichever thread completes the prefix, never holds more than its
  # window uncommitted, and leaves no thread waiting after a throw.
  ./build-thread/tests/test_common \
    --gtest_filter='ForkJoin.*:ClaimEach.*:ClaimEachOrdered.*:RunDedicated.*:Joinable.*'
  # Level 1: energy_hessian, the displaced-geometry d(alpha)/dR loop and
  # the BEC field stencil solve on every core. Their engines share only
  # the equilibrium density, the ForceEvaluator's sibling engines and the
  # checkpoint (written under a lock); the results must stay bitwise those
  # of the serial loop. H2 in a minimal basis on a coarse grid, for time.
  ./build-thread/tests/test_raman --gtest_filter='GeometryParallel.*'
  # CpeCluster::run spreads the logical CPEs over host threads: every
  # kernel body (kernel1, kernel2, n1, H1 and the test kernels) must write
  # only its own slice.
  ./build-thread/tests/test_sunway
  # The FMM backend claims its CPE model fan-out is race-free; the
  # backend suite (M2L/P2P offload vs host path, dispatched over host
  # threads) runs under TSan, as do concurrent Direct solves on one
  # shared context.
  ./build-thread/tests/test_fmm
  # The Direct evaluation plan is built lazily under std::call_once while
  # threads race the first evaluation of a shared solver.
  ./build-thread/tests/test_hartree
  # One const SCF engine serves concurrent grid passes (the serve workers
  # share it): their scratch must be per call. On the 12-water cluster
  # (64 batches) each pass also runs claim-next over its batches on every
  # core, the integration committed in batch order from a bounded window
  # of slots. Three threads race the first forces() of one fresh
  # ForceEvaluator, and with it the sibling engines' plan builds (the
  # serve case: a bec job's field tasks share its evaluator). Only these
  # three tests, for time.
  ./build-thread/tests/test_scf \
    --gtest_filter='ScfEngine.ConcurrentGridPassesOnSharedEngineAreBitwise:ScfEngine.ConcurrentParallelGridPassesOnSharedClusterAreBitwise:ForceEvaluator.ConcurrentFirstForcesAreBitwise'
  # The serve pool/cache/scheduler run their full modeled-engine suite
  # under TSan; the RealEngine end-to-end tests are excluded only for
  # time (SCF under TSan is ~20x slower), not correctness.
  ./build-thread/tests/test_serve --gtest_filter=-ServeRealEngine.*
  (cd build-thread && ./bench/bench_serve_chaos --short --shards 2)

  echo "== tier-1: serve + obs + hartree + grid + dfpt + fmm (+ scf grid passes) under -fsanitize=undefined =="
  # UBSan complements the concurrency checker: lockcheck proves lock
  # discipline, UBSan proves the code under those locks is free of
  # undefined behavior (the WAL record codec, the histogram bucket math,
  # the seqlock ring arithmetic). The hartree and grid suites cover the
  # strided indexing into the knot-major multipole tables, the pair
  # records and the triangular Y_lm constants table; the dfpt and fmm
  # suites cover the lockstep per-axis indexing, the packed DIIS history
  # and the multi-potential M2L / P2P buffers.
  cmake -B build-undefined -S . \
        -DSWRAMAN_SANITIZE=undefined \
        -DSWRAMAN_BUILD_BENCH=OFF -DSWRAMAN_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-undefined -j "${JOBS}" --target test_obs test_serve \
        test_hartree test_grid test_scf test_dfpt test_fmm
  ./build-undefined/tests/test_obs
  ./build-undefined/tests/test_serve --gtest_filter=-ServeRealEngine.*
  ./build-undefined/tests/test_hartree
  ./build-undefined/tests/test_grid
  ./build-undefined/tests/test_dfpt
  ./build-undefined/tests/test_fmm
  # The strip-sparse grid kernels' tile and strip tails (DESIGN.md §17),
  # checked against the dense reference loops.
  ./build-undefined/tests/test_scf --gtest_filter='GridPassReference.*:ScfEngine.ConcurrentGridPassesOnSharedEngineAreBitwise'
fi

echo "tier-1: OK"
