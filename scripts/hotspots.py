#!/usr/bin/env python3
"""Rank kernel hotspots in a swraman-perf-v1 report by modeled cycles and
by host wall time.

Usage:
  hotspots.py PERF_JSON [--top K] [--json [FILE]]
  hotspots.py --selftest

Wall-clock on a workstation says nothing about what the same run costs on
the target machine; the sunway kernels therefore charge *modeled* cycles
(the arch cost model of src/sunway/cost_model.cpp) onto their spans, and
the perf report sums those per phase. This tool reads the report and
answers the operator question "which kernels dominate the modeled
machine-time budget, and under which pipeline phase do they burn it":

  * top-K table of phases ranked by modeled cycles — each row shows the
    cycle total, its share of the whole report, call count, per-call
    cycles, and the host wall time of the same phase;
  * per-root rollup — the same cycles re-attributed to the top-level
    pipeline phase (scf, dfpt, comm, serve, ...) under which they ran, so
    a fat kernel that fires from three phases shows where it actually
    hurts;
  * top-K table of every phase, modeled or not, ranked by host wall_s —
    what the host run actually spent, beside what the model charges.
    Nested phases each show their own inclusive wall time, so a parent
    and its children can both rank.

A phase's cycles are the first of its "modeled_cycles_cpe",
"modeled_cycles_mpe", or "modeled_cycles" attribute sums (the CPE-tiled
variant is the paper's shipping configuration, so it wins when both were
modeled). Attribution is per-phase-path: a parent's own charge excludes
its children's (they are separate report rows), so the rollup never
double-counts a child under its parent's root.

--json emits the same ranking as a "swraman-hotspots-v1" document.
--selftest runs the ranking against scripts/testdata/hotspots_fixture.json
and verifies the expected order, totals, and rollup (used by tier1.sh).
"""

import json
import math
import os
import sys

# Preference order of the per-span cycle attributes (report sums them per
# phase). CPE-tiled first: it is the configuration the paper ships.
CYCLE_ATTRS = ("modeled_cycles_cpe", "modeled_cycles_mpe", "modeled_cycles")

SCHEMA_IN = "swraman-perf-v1"
SCHEMA_OUT = "swraman-hotspots-v1"


def fail(msg: str) -> None:
    print(f"hotspots: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def phase_cycles(phase: dict):
    """(cycles, attr_name) of a phase, or (0.0, None) when unmodeled."""
    attrs = phase.get("attrs") or {}
    for key in CYCLE_ATTRS:
        v = attrs.get(key)
        if isinstance(v, (int, float)) and not isinstance(v, bool) \
                and math.isfinite(v) and v > 0:
            return float(v), key
    return 0.0, None


def analyze(doc: dict) -> dict:
    """Pure ranking core (selftest and CLI share it)."""
    if doc.get("schema") != SCHEMA_IN:
        fail(f"schema is {doc.get('schema')!r}, expected {SCHEMA_IN!r}")
    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        fail("phases must be a non-empty array")

    hotspots = []
    rollup = {}
    total = 0.0
    wall = []
    for p in phases:
        wall.append({
            "path": p["path"],
            "wall_s": float(p.get("wall_s", 0.0)),
            "self_s": float(p.get("self_s", 0.0)),
            "count": max(1, int(p.get("count", 1))),
        })
        cycles, attr = phase_cycles(p)
        if attr is None:
            continue
        count = max(1, int(p.get("count", 1)))
        hotspots.append({
            "path": p["path"],
            "name": p.get("name", p["path"].rsplit("/", 1)[-1]),
            "cycles": cycles,
            "source": attr,
            "count": count,
            "cycles_per_call": cycles / count,
            "wall_s": float(p.get("wall_s", 0.0)),
        })
        root = p["path"].split("/", 1)[0]
        rollup[root] = rollup.get(root, 0.0) + cycles
        total += cycles

    hotspots.sort(key=lambda h: (-h["cycles"], h["path"]))
    wall.sort(key=lambda w: (-w["wall_s"], w["path"]))
    for h in hotspots:
        h["share"] = h["cycles"] / total if total > 0 else 0.0
    rollup_rows = [{"root": r, "cycles": c,
                    "share": c / total if total > 0 else 0.0}
                   for r, c in sorted(rollup.items(),
                                      key=lambda kv: (-kv[1], kv[0]))]
    return {
        "schema": SCHEMA_OUT,
        "total_modeled_cycles": total,
        "modeled_phases": len(hotspots),
        "hotspots": hotspots,
        "rollup": rollup_rows,
        "wall": wall,
    }


def human(cycles: float) -> str:
    for unit, div in (("Tcy", 1e12), ("Gcy", 1e9), ("Mcy", 1e6),
                      ("kcy", 1e3)):
        if cycles >= div:
            return f"{cycles / div:8.2f} {unit}"
    return f"{cycles:8.0f}  cy"


def print_report(result: dict, top: int) -> None:
    total = result["total_modeled_cycles"]
    spots = result["hotspots"]
    print(f"hotspots: {result['modeled_phases']} modeled phases, "
          f"{total:.3e} modeled cycles total")
    if not spots:
        print("hotspots: no phase carries a modeled-cycles attribute "
              "(run with SWRAMAN_TRACE=1 through the sunway kernels)")
    else:
        print_cycles(result, top)
    print_wall(result["wall"], top)


def print_wall(wall: list, top: int) -> None:
    shown = wall[:top]
    print(f"\n  top {len(shown)} phases by host wall time:")
    print(f"  {'#':>2} {'wall_s':>9} {'self_s':>9} {'calls':>7}  path")
    for i, w in enumerate(shown, 1):
        print(f"  {i:>2} {w['wall_s']:>9.4f} {w['self_s']:>9.4f} "
              f"{w['count']:>7}  {w['path']}")
    if len(wall) > top:
        print(f"     ({len(wall) - top} more phases)")


def print_cycles(result: dict, top: int) -> None:
    total = result["total_modeled_cycles"]
    spots = result["hotspots"]

    shown = spots[:top]
    print(f"\n  top {len(shown)} phases by modeled cycles:")
    print(f"  {'#':>2} {'cycles':>12} {'share':>6} {'calls':>7} "
          f"{'cy/call':>10} {'wall_s':>9}  path")
    for i, h in enumerate(shown, 1):
        print(f"  {i:>2} {human(h['cycles'])} {h['share']:6.1%} "
              f"{h['count']:>7} {h['cycles_per_call']:>10.3g} "
              f"{h['wall_s']:>9.4f}  {h['path']}")
    if len(spots) > top:
        rest = sum(h["cycles"] for h in spots[top:])
        print(f"     ({len(spots) - top} more phases, "
              f"{rest / total:.1%} of cycles)")

    print("\n  per-root attribution:")
    for r in result["rollup"]:
        bar = "#" * max(1, round(40 * r["share"]))
        print(f"  {r['share']:6.1%} {human(r['cycles'])}  "
              f"{r['root']:<24} {bar}")


def selftest() -> None:
    fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "testdata", "hotspots_fixture.json")
    with open(fixture, encoding="utf-8") as fh:
        doc = json.load(fh)
    r = analyze(doc)

    def expect(cond: bool, what: str) -> None:
        if not cond:
            fail(f"selftest: {what} (got {json.dumps(r, indent=2)[:800]})")

    expect(r["schema"] == SCHEMA_OUT, "output schema wrong")
    # The fixture charges: scf/hpsi 6e9 cpe, dfpt/sternheimer 3e9 cpe,
    # hartree.fmm.traversal 2e9 cpe, hartree.fmm.p2p 1.2e9 cpe,
    # comm.allreduce 1e9 plain, scf/rho 0.5e9 mpe; "scf/veff",
    # "serve.submit", "hartree.poisson" and "hartree.fmm.downward" carry
    # no cycle attrs and must not appear.
    expect(r["modeled_phases"] == 6, "expected 6 modeled phases")
    expect(abs(r["total_modeled_cycles"] - 13.7e9) < 1.0,
           "total cycles wrong")
    order = [h["path"] for h in r["hotspots"]]
    expect(order == ["scf/hpsi", "dfpt/sternheimer",
                     "hartree.poisson/hartree.fmm.traversal",
                     "hartree.poisson/hartree.fmm.downward/hartree.fmm.p2p",
                     "comm.allreduce", "scf/rho"],
           f"ranking order wrong: {order}")
    expect(r["hotspots"][0]["source"] == "modeled_cycles_cpe",
           "cpe attr must win over mpe")
    # The FMM kernels model both engines; the CPE-tiled cycles must rank.
    expect(r["hotspots"][2]["source"] == "modeled_cycles_cpe",
           "fmm traversal must rank by its cpe cycles")
    expect(r["hotspots"][3]["source"] == "modeled_cycles_cpe",
           "fmm p2p must rank by its cpe cycles")
    expect(r["hotspots"][5]["source"] == "modeled_cycles_mpe",
           "mpe fallback not used")
    expect(abs(r["hotspots"][0]["share"] - 6.0 / 13.7) < 1e-12,
           "share wrong")
    # hpsi ran 3 times in the fixture: per-call = 2e9.
    expect(abs(r["hotspots"][0]["cycles_per_call"] - 2e9) < 1.0,
           "cycles_per_call wrong")
    roots = {row["root"]: row["cycles"] for row in r["rollup"]}
    expect(abs(roots.get("scf", 0.0) - 6.5e9) < 1.0,
           "scf rollup must combine hpsi + rho")
    expect(abs(roots.get("dfpt", 0.0) - 3e9) < 1.0, "dfpt rollup wrong")
    expect(abs(roots.get("hartree.poisson", 0.0) - 3.2e9) < 1.0,
           "hartree.poisson rollup must combine traversal + p2p")
    expect(r["rollup"][0]["root"] == "scf", "rollup order wrong")
    expect(r["rollup"][1]["root"] == "hartree.poisson",
           "hartree.poisson must outrank dfpt in the rollup")
    # The wall table ranks every phase, modeled or not, by inclusive
    # wall_s, ties broken by path: scf/veff carries no cycles yet ranks
    # second, above the cycle-heaviest kernel scf/hpsi.
    wall_order = [w["path"] for w in r["wall"]]
    expect(wall_order == ["scf", "scf/veff", "scf/hpsi", "dfpt",
                          "dfpt/sternheimer", "scf/rho", "comm.allreduce",
                          "hartree.poisson",
                          "hartree.poisson/hartree.fmm.traversal",
                          "serve.submit",
                          "hartree.poisson/hartree.fmm.downward",
                          "hartree.poisson/hartree.fmm.downward/"
                          "hartree.fmm.p2p"],
           f"wall ranking order wrong: {wall_order}")
    expect(r["wall"][0]["self_s"] == 0.1 and r["wall"][1]["count"] == 12,
           "wall rows must carry self_s and calls")
    print("hotspots: selftest OK "
          f"(6 modeled phases, total {r['total_modeled_cycles']:.3e} cy; "
          f"{len(r['wall'])} phases by wall time)")


def main() -> None:
    args = sys.argv[1:]
    if "--selftest" in args:
        selftest()
        return
    top = 10
    json_out = None
    path = None
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--top" and i + 1 < len(args):
            top = int(args[i + 1])
            i += 2
        elif a == "--json":
            if i + 1 < len(args) and not args[i + 1].startswith("--"):
                json_out = args[i + 1]
                i += 2
            else:
                json_out = "-"
                i += 1
        elif a.startswith("--"):
            fail(f"unknown flag {a!r}")
        else:
            path = a
            i += 1
    if path is None:
        fail("usage: hotspots.py PERF_JSON [--top K] [--json [FILE]] | "
             "--selftest")

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    result = analyze(doc)
    if json_out is not None:
        text = json.dumps(result, indent=2) + "\n"
        if json_out == "-":
            sys.stdout.write(text)
        else:
            with open(json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"hotspots: wrote {json_out}")
    else:
        print_report(result, top)


if __name__ == "__main__":
    main()
