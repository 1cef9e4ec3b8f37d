#!/usr/bin/env python3
"""Time exact lookups by value: exact-deep's N, R1 and R2 calls.

The calls are those of one pass of the benchmark's exact-deep workload
(`perfbench/workloads.py`, seed 0 by default): N, R1 and R2 at 280
seeded `Fraction` z up to level 9,900 on each of its 18 spectra, 15,120
calls.  They run in the pass's own (shuffled) order, so consecutive calls
read different tables, as in the benchmark.  Each call is timed on its
own; a pass sums the time of each kind and divides by its call count.
Fifteen timed passes run in a fresh interpreter after one untimed warm
pass; the workload's set-up has built the prefix tables before that.
Prints one JSON object: the median and every pass of microseconds per
call for N, R1 and R2.

Usage, from the root of a checkout:

    python scripts/bench_lookup.py [--src PATH] [--seed N]

--src is the engine's source directory (default: this checkout's src), so
the same script measures another commit's engine; the calls come from
this checkout's `perfbench/workloads.py`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")
PASSES = 15

#: Runs in the fresh interpreter; argv: seed, timed passes, output dir.
CHILD = r'''
import json, sys, time
from workloads import ExactDeep

KINDS = ("N", "R1", "R2")
ops = [(op.label.split(" ", 1)[0], op.call)
       for op in ExactDeep(int(sys.argv[1]), False, sys.argv[3]).ops()]
ops = [(kind, call) for kind, call in ops if kind in KINDS]
calls = {kind: sum(k == kind for k, _ in ops) for kind in KINDS}


def one_pass():
    spent = dict.fromkeys(KINDS, 0.0)
    clock = time.perf_counter
    for kind, call in ops:
        t0 = clock()
        call()
        spent[kind] += clock() - t0
    return {f"us_per_call_{kind}": spent[kind] / calls[kind] * 1e6
            for kind in KINDS}


one_pass()
print(json.dumps([one_pass() for _ in range(int(sys.argv[2]))]))
'''


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=SRC,
                    help="engine source directory (default: this checkout's)")
    ap.add_argument("--seed", type=int, default=0,
                    help="exact-deep workload seed (default: 0)")
    args = ap.parse_args()
    path = os.pathsep.join((os.path.abspath(args.src),
                            os.path.join(ROOT, "perfbench")))
    env = dict(os.environ, PYTHONPATH=path)
    with tempfile.TemporaryDirectory() as out_dir:
        out = subprocess.run(
            [sys.executable, "-c", CHILD, str(args.seed), str(PASSES),
             out_dir], env=env, capture_output=True, text=True, check=True)
    passes = json.loads(out.stdout)
    result = {}
    for figure in passes[0]:
        runs = [p[figure] for p in passes]
        result[figure + "_median"] = statistics.median(runs)
        result[figure + "_runs"] = runs
    print(json.dumps(result))


if __name__ == "__main__":
    main()
