#!/usr/bin/env python3
"""Repo lint gate for swraman (tier-1 stage).

Seven repo-specific rules that clang-tidy cannot express, plus an
optional clang-tidy pass over compile_commands.json when the binary is
available (the gate skips that stage gracefully when it is not). The
clang-tidy stage diffs its findings against a committed baseline
(scripts/clang_tidy_baseline.json): only *new* findings fail the gate,
so enabling a stricter check set never blocks on historical debt.
Refresh the baseline with --update-tidy-baseline after triaging.

  1. Every CpeCluster.run(...) kernel lambda in src/sunway must call
     ctx.charge_flops(...) before the context is finished — a kernel
     that forgets to charge flops silently corrupts the cost model the
     paper's scaling figures are built on.
  2. No raw memcpy outside src/sunway/. Host-side code must go through
     typed copies/std::copy; raw memcpy is reserved for the DMA engine
     model where the checker can see it.
  3. No std::endl in src/ — it flushes, and the obs/trace hot paths are
     called per-DMA. Use '\\n'.
  4. No detached or ad-hoc threads in src/. Calling .detach() on a
     thread orphans work the serve shutdown path and the sanitizer
     runs cannot see; constructing std::thread directly is reserved
     for the sanctioned homes (the serve worker pool and the common
     thread helpers in src/common/threads.*, whose one fork-join runs
     the SPMD ranks and the logical CPEs); everything else goes through
     them.
  5. No unflushed durability writes in src/serve/. The write-ahead job
     log's log-before-ack contract only holds if every byte it promises
     is fsync'd before the acknowledgment, so file *output* in the
     serve tier is confined to the WAL writer (serve/wal.cpp), which in
     turn must pair its writes with fflush + fsync. An ofstream or bare
     fwrite elsewhere in serve/ is a durability promise nobody keeps.
  6. No raw locking primitives in src/serve or src/obs. std::mutex,
     the std lock guards, std::condition_variable and explicit
     .lock()/.unlock()/.try_lock() calls bypass the lockcheck
     acquisition-order graph, the blocking-under-lock audit and the
     condvar-predicate rule — a raw mutex is a lock the deadlock
     checker cannot see. Use lockcheck::CheckedMutex / CheckedLock /
     CheckedCondVar (scope-ended, never manually unlocked). Sanctioned
     homes: the checker's own implementation (src/common/check.*,
     src/common/lockcheck.*, src/parallel/commcheck.*) and the seqlock
     flight recorder (src/obs/flight.cpp), which is lock-free by design
     and must stay dumpable from crash paths that may hold arbitrary
     locks.
  7. One displaced-geometry evaluator in src/raman and src/serve.
     scf::ScfEngine and dfpt::DfptEngine are constructed there only in
     src/raman/evaluate.cpp (raman::evaluate), which owns the solve,
     the convergence check and the result extraction for every
     displaced or finite-field geometry. A second engine build in those
     tiers is a second copy of that policy (seed, error type, what is
     pulled out of the ground state) and drifts from the first.

Exit status: 0 clean, 1 violations, 2 usage/setup error.

Usage: lint.py [build_dir] [--update-tidy-baseline]
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SUNWAY = SRC / "sunway"


def fail(violations: list[str]) -> None:
    for v in violations:
        print(f"lint: {v}", file=sys.stderr)


def cpp_sources(root: Path) -> list[Path]:
    return sorted(
        p for p in root.rglob("*")
        if p.suffix in {".cpp", ".hpp", ".h", ".cc"} and p.is_file()
    )


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments, preserving newlines for line numbers."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' and (i == 0 or text[i - 1] != "\\"):
            # String literal: copy verbatim until the closing quote.
            j = i + 1
            while j < n and not (text[j] == '"' and text[j - 1] != "\\"):
                j += 1
            out.append(text[i:j + 1])
            i = j + 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lambda_body(text: str, open_brace: int) -> str:
    """Return the brace-balanced body starting at text[open_brace] == '{'."""
    depth = 0
    for j in range(open_brace, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace:j + 1]
    return text[open_brace:]


RUN_CALL = re.compile(r"\.run\s*\(")


def check_charge_flops() -> list[str]:
    """Rule 1: every .run(...) kernel body in src/sunway charges flops."""
    violations: list[str] = []
    for path in cpp_sources(SUNWAY):
        text = strip_comments(path.read_text())
        for m in RUN_CALL.finditer(text):
            # Find the lambda introducer within the call's argument list.
            lam = text.find("[", m.end())
            if lam < 0:
                continue
            brace = text.find("{", lam)
            if brace < 0:
                continue
            body = lambda_body(text, brace)
            if "charge_flops" not in body:
                line = text.count("\n", 0, m.start()) + 1
                rel = path.relative_to(REPO)
                violations.append(
                    f"{rel}:{line}: kernel run() lambda never calls "
                    "ctx.charge_flops(...) — the cost model will "
                    "undercount this kernel")
    return violations


def check_raw_memcpy() -> list[str]:
    """Rule 2: no raw memcpy in src/ outside src/sunway/."""
    violations: list[str] = []
    pat = re.compile(r"\bmemcpy\s*\(")
    for path in cpp_sources(SRC):
        if SUNWAY in path.parents or path.parent == SUNWAY:
            continue
        text = strip_comments(path.read_text())
        for m in pat.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            rel = path.relative_to(REPO)
            violations.append(
                f"{rel}:{line}: raw memcpy outside src/sunway/ — use a "
                "typed copy (std::copy) so the type system and the "
                "checker can see it")
    return violations


def check_std_endl() -> list[str]:
    """Rule 3: no std::endl in src/ (it flushes; hot paths log per-DMA)."""
    violations: list[str] = []
    pat = re.compile(r"std::endl\b")
    for path in cpp_sources(SRC):
        text = strip_comments(path.read_text())
        for m in pat.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            rel = path.relative_to(REPO)
            violations.append(
                f"{rel}:{line}: std::endl flushes on every call — "
                "use '\\n'")
    return violations


# The only files allowed to construct std::thread directly: the serve
# worker pool (owns lifecycle, joins in stop()) and the common thread
# helpers (the fork-join behind run_spmd, CpeCluster::run and the Raman
# geometry loops, plus the joined iallreduce thread).
THREAD_HOMES = {
    SRC / "serve" / "pool.cpp",
    SRC / "serve" / "pool.hpp",
    SRC / "common" / "threads.cpp",
    SRC / "common" / "threads.hpp",
}


def check_threads() -> list[str]:
    """Rule 4: no .detach(), and std::thread construction only in the
    sanctioned homes (serve pool, common thread helpers)."""
    violations: list[str] = []
    detach = re.compile(r"\.\s*detach\s*\(")
    ctor = re.compile(r"\bstd::(?:jthread|thread)\b(?!\s*(?:&|\*|>|::))")
    for path in cpp_sources(SRC):
        text = strip_comments(path.read_text())
        rel = path.relative_to(REPO)
        for m in detach.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            violations.append(
                f"{rel}:{line}: thread .detach() — detached threads "
                "outlive shutdown and escape TSan; join them (see "
                "serve/pool.cpp)")
        if path in THREAD_HOMES:
            continue
        for m in ctor.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            violations.append(
                f"{rel}:{line}: raw std::thread outside the sanctioned "
                "homes (src/serve/pool.*, src/common/threads.*) — submit "
                "work to the serve worker pool or use threads::fork_join")
    return violations


# The one file allowed to write files in the serve tier: the fsync'd
# WAL writer. Everything durable must go through it.
WAL_WRITER = SRC / "serve" / "wal.cpp"

FILE_OUTPUT = re.compile(
    r"\bstd::ofstream\b|\bstd::fstream\b|\bfwrite\s*\(|"
    r"\bfopen\s*\(|\bfprintf\s*\(")


def check_wal_durability() -> list[str]:
    """Rule 5: file output in src/serve only via the fsync'd WAL writer."""
    violations: list[str] = []
    for path in cpp_sources(SRC / "serve"):
        text = strip_comments(path.read_text())
        rel = path.relative_to(REPO)
        if path == WAL_WRITER:
            # The writer itself must keep the durability pairing: a WAL
            # that writes without flushing + fsyncing acknowledges jobs
            # it cannot replay.
            if "fwrite" in text and ("fsync" not in text
                                     or "fflush" not in text):
                violations.append(
                    f"{rel}: WAL writer writes without fflush + fsync — "
                    "log-before-ack is broken")
            continue
        for m in FILE_OUTPUT.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            violations.append(
                f"{rel}:{line}: file output outside the WAL writer "
                "(serve/wal.cpp) — durability writes must go through "
                "the fsync'd JobLog, everything else is an unkept "
                "durability promise")
    return violations


# Rule 6: the lockcheck-migrated tiers. Everything here synchronizes
# through the checked primitives so the acquisition-order graph covers
# the whole tier; one raw mutex is a hole in the deadlock proof.
CHECKED_TIERS = (SRC / "serve", SRC / "obs")

# The checker's own implementation (it wraps the raw primitives) and the
# lock-free flight recorder (seqlock by design; must stay acquirable
# from crash paths holding arbitrary locks).
LOCK_HOMES = {
    SRC / "common" / "check.cpp",
    SRC / "common" / "lockcheck.hpp",
    SRC / "common" / "lockcheck.cpp",
    SRC / "parallel" / "commcheck.hpp",
    SRC / "parallel" / "commcheck.cpp",
    SRC / "obs" / "flight.cpp",
}

RAW_LOCK = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"recursive_timed_mutex|scoped_lock|lock_guard|unique_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
    r"|\.\s*(?:lock|unlock|try_lock)\s*\(")


def check_lock_primitives() -> list[str]:
    """Rule 6: serve + obs synchronize only through lockcheck wrappers."""
    violations: list[str] = []
    for tier in CHECKED_TIERS:
        for path in cpp_sources(tier):
            if path in LOCK_HOMES:
                continue
            text = strip_comments(path.read_text())
            rel = path.relative_to(REPO)
            for m in RAW_LOCK.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                violations.append(
                    f"{rel}:{line}: raw locking primitive "
                    f"'{m.group(0).strip()}' in a lockcheck-migrated "
                    "tier — use lockcheck::CheckedMutex/CheckedLock/"
                    "CheckedCondVar (scope-ended) so the deadlock "
                    "checker sees the acquisition")
    return violations


# Rule 7: the tiers whose engine builds all go through raman::evaluate,
# and the evaluator's own file.
EVALUATOR_TIERS = (SRC / "raman", SRC / "serve")
EVALUATOR_HOME = SRC / "raman" / "evaluate.cpp"

_ENGINE = r"(?:scf::)?ScfEngine|(?:dfpt::)?DfptEngine"
ENGINE_CTOR = re.compile(
    rf"\b(?:{_ENGINE})\s+[A-Za-z_]\w*\s*[({{]"   # ScfEngine e(...)
    rf"|\b(?:{_ENGINE})\s*[({{]"                  # ScfEngine(...) temporary
    rf"|\bmake_(?:unique|shared)\s*<\s*(?:const\s+)?(?:{_ENGINE})\s*>"
    rf"|\bnew\s+(?:{_ENGINE})\b")


def check_engine_builds() -> list[str]:
    """Rule 7: src/raman and src/serve build engines only in the
    displaced-geometry evaluator."""
    violations: list[str] = []
    for tier in EVALUATOR_TIERS:
        for path in cpp_sources(tier):
            if path == EVALUATOR_HOME:
                continue
            text = strip_comments(path.read_text())
            rel = path.relative_to(REPO)
            for m in ENGINE_CTOR.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                violations.append(
                    f"{rel}:{line}: engine constructed outside "
                    "src/raman/evaluate.cpp — solve displaced and "
                    "finite-field geometries through raman::evaluate")
    return violations


BASELINE_PATH = REPO / "scripts" / "clang_tidy_baseline.json"

# One clang-tidy finding line: /abs/path.cpp:LINE:COL: warning: ... [check]
TIDY_FINDING = re.compile(
    r"^(/[^:\n]+):\d+:\d+: warning: .*\[([\w.,-]+)\]\s*$", re.M)


def tidy_finding_counts(stdout: str) -> dict[str, int]:
    """Findings keyed by 'relpath:check-name' (line numbers drift with
    every edit; file+check is stable enough to diff against)."""
    counts: dict[str, int] = {}
    for m in TIDY_FINDING.finditer(stdout):
        try:
            rel = str(Path(m.group(1)).resolve().relative_to(REPO))
        except ValueError:
            continue  # a system header's finding — not this repo's debt
        for check in m.group(2).split(","):
            key = f"{rel}:{check}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def run_clang_tidy(build_dir: Path, update_baseline: bool) -> int:
    """Optional clang-tidy pass; returns the count of findings NOT
    explained by the committed baseline. Skips gracefully when the
    binary or compile_commands.json is unavailable."""
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        print("lint: clang-tidy not found — skipping static-analysis "
              "stage (repo rules still enforced)")
        return 0
    ccdb = build_dir / "compile_commands.json"
    if not ccdb.exists():
        print(f"lint: {ccdb} missing — configure with CMake first; "
              "skipping clang-tidy stage")
        return 0
    entries = json.loads(ccdb.read_text())
    files = sorted({e["file"] for e in entries
                    if str(SRC) in e["file"] and e["file"].endswith(".cpp")})
    if not files:
        return 0
    print(f"lint: clang-tidy over {len(files)} translation units")
    proc = subprocess.run(
        [tidy, "-p", str(build_dir), "--quiet", *files],
        capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    findings = tidy_finding_counts(proc.stdout)
    if update_baseline:
        BASELINE_PATH.write_text(
            json.dumps(findings, indent=2, sort_keys=True) + "\n")
        print(f"lint: baseline updated — {sum(findings.values())} "
              f"finding(s) across {len(findings)} (file, check) pairs "
              f"recorded in {BASELINE_PATH.relative_to(REPO)}")
        return 0
    baseline: dict[str, int] = {}
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
    new_total = 0
    for key in sorted(findings):
        extra = findings[key] - int(baseline.get(key, 0))
        if extra > 0:
            new_total += extra
            print(f"lint: clang-tidy: {extra} new finding(s) of {key} "
                  "(beyond the committed baseline — fix, or triage and "
                  "re-run with --update-tidy-baseline)", file=sys.stderr)
    stale = sorted(k for k in baseline if k not in findings)
    if stale:
        print(f"lint: note: {len(stale)} baseline entr(ies) no longer "
              "fire — consider --update-tidy-baseline to shrink the "
              "debt ledger")
    return new_total


def main(argv: list[str]) -> int:
    update_baseline = "--update-tidy-baseline" in argv
    args = [a for a in argv[1:] if a != "--update-tidy-baseline"]
    build_dir = Path(args[0]) if args else REPO / "build"
    if not SRC.is_dir():
        print(f"lint: source tree {SRC} not found", file=sys.stderr)
        return 2
    violations = (check_charge_flops() + check_raw_memcpy()
                  + check_std_endl() + check_threads()
                  + check_wal_durability() + check_lock_primitives()
                  + check_engine_builds())
    fail(violations)
    tidy_count = run_clang_tidy(build_dir, update_baseline)
    total = len(violations) + tidy_count
    if total:
        print(f"lint: FAILED ({total} violation(s))", file=sys.stderr)
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
