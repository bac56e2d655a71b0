#!/usr/bin/env python3
"""Self-check of the benchmark's input generator.

    python3 swbench/selfcheck.py [--seeds 1,2,3]

For each seed, two separate processes must print byte-identical inputs
(the serve_burst job list with hex-float geometries, plus the water_raman
and cluster_polar geometries); a different seed must change them; and every
burst must hold 40 jobs of which 13 are exact repeats. Exits non-zero on
the first violation.
"""

import argparse
import hashlib
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build_binary and ROOT)

BURST_JOBS = 40
BURST_REPEATS = 13


def dump(binary, seed):
    out = subprocess.run([binary, "--dump-inputs", "--seed", str(seed)],
                         cwd=run.ROOT, capture_output=True, check=True,
                         timeout=60)
    return out.stdout


def check_burst(text, seed):
    burst = text.split(b"serve_burst\n", 1)[1]
    jobs = [l for l in burst.splitlines() if l.startswith(b"job ")]
    repeats = [l for l in jobs if b"repeat_of=-1 " not in l]
    if len(jobs) != BURST_JOBS or len(repeats) != BURST_REPEATS:
        raise SystemExit(f"seed {seed}: {len(jobs)} jobs, {len(repeats)} "
                         f"repeats; want {BURST_JOBS} and {BURST_REPEATS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3")
    args = ap.parse_args()
    _, binary = run.build_binary()
    seeds = [int(s) for s in args.seeds.split(",")]
    digests = {}
    for seed in seeds:
        first, second = dump(binary, seed), dump(binary, seed)
        if first != second:
            raise SystemExit(f"seed {seed}: two runs generated different inputs")
        check_burst(first, seed)
        digests[seed] = hashlib.sha256(first).hexdigest()
        print(f"seed {seed}: inputs sha256 {digests[seed]}")
    if len(set(digests.values())) != len(digests):
        raise SystemExit("distinct seeds generated identical inputs")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
