#!/usr/bin/env python3
"""Time the figure pipeline by stage: series build, CSV text, SVG text.

One pass builds all ten figures with `scan.figure`, then formats them with
`output.series_csv` and `output.series_svg`, at the series workload's shape
(resolutions 39-41, l_max 59-61, cycled over the figures).  Fifteen timed
passes run in a fresh interpreter after one untimed warm pass, so the
prefix tables are built before the first timed pass.  Prints one JSON
object: the median and every pass of each stage in seconds, and the points
per pass.

Usage, from the root of a checkout:

    python scripts/bench_series.py [--src PATH]

--src is the engine's source directory (default: this checkout's src), so
the same script measures another commit's engine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
PASSES = 15

#: Runs in the fresh interpreter; argv[1] is the number of timed passes.
CHILD = r'''
import json, sys, time
from spectral_riesz import output, scan

FIGURES = ("f1", "f2", "f34", "f4", "f5", "f6", "f7", "f8", "f9", "f10")
SHAPES = ((39, 59), (40, 60), (41, 61))
jobs = [(f, *SHAPES[i % len(SHAPES)]) for i, f in enumerate(FIGURES)]


def one_pass():
    t0 = time.perf_counter()
    figs = [scan.figure(f, res, l_max) for f, res, l_max in jobs]
    t1 = time.perf_counter()
    for series in figs:
        output.series_csv(series)
    t2 = time.perf_counter()
    for series in figs:
        output.series_svg(series)
    t3 = time.perf_counter()
    points = sum(len(s.points) for series in figs for s in series)
    return {"build": t1 - t0, "csv": t2 - t1, "svg": t3 - t2,
            "points": points}


one_pass()
print(json.dumps([one_pass() for _ in range(int(sys.argv[1]))]))
'''


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=SRC,
                    help="engine source directory (default: this checkout's)")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    out = subprocess.run([sys.executable, "-c", CHILD, str(PASSES)],
                         env=env, capture_output=True, text=True, check=True)
    passes = json.loads(out.stdout)
    result = {"points_per_pass": passes[0]["points"]}
    for stage in ("build", "csv", "svg"):
        runs = [p[stage] for p in passes]
        result[stage + "_s_median"] = statistics.median(runs)
        result[stage + "_s_runs"] = runs
    print(json.dumps(result))


if __name__ == "__main__":
    main()
