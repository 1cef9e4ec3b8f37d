#!/usr/bin/env python3
"""Time the catalog verification loop by layer, and evaluate_grid per point.

One pass runs the catalog sweep's shape: for every `bounds.entry_matrix()`
pair (73), `bounds.standard_grid` at 400 points and 40 levels, then
`bounds.verify` on that grid.  The pass is split into the grid build, the
target column (`evaluate_grid`, and `eigenvalue_sums` where the engine
has it), `_scan_side`, and the rest of `verify`.  Then each of N, R1, R2
and average is timed through `riesz.evaluate_grid` on one 400-point
standard grid (hemi2.nd.polya, sd.r1.lower d=3, sd.r2.twosided sphere:3,
sd.avg.twosided d=3), in microseconds per point.  Fifteen timed passes run
in a fresh interpreter after one untimed warm pass, so the prefix tables
are built before the first timed pass.  Prints one JSON object: the median
and every pass of each figure (stages in seconds per pass).

Usage, from the root of a checkout:

    python scripts/bench_verify.py [--src PATH]

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
from spectral_riesz import bounds, riesz, spaces

POINTS, LEVELS, CALLS = 400, 40, 20
spent = dict.fromkeys(("targets", "scan_side"), 0.0)


def timed(stage, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - t0
    return wrapper


# verify reads these names from the bounds module, so the wrappers see
# every call it makes and no other.
bounds.evaluate_grid = timed("targets", bounds.evaluate_grid)
if hasattr(bounds, "eigenvalue_sums"):
    bounds.eigenvalue_sums = timed("targets", bounds.eigenvalue_sums)
bounds._scan_side = timed("scan_side", bounds._scan_side)
pairs = bounds.entry_matrix()
COLUMNS = {"N": ("hemi2.nd.polya", {}), "R1": ("sd.r1.lower", {"d": 3}),
           "R2": ("sd.r2.twosided", {"space": spaces.sphere(3)}),
           "average": ("sd.avg.twosided", {"d": 3})}
columns = {}
for quantity, (bound_id, params) in COLUMNS.items():
    spec = bounds.get(bound_id)
    query = spec.query(spec.validate(dict(params)))
    columns[quantity] = (query, bounds.standard_grid(bound_id, params,
                                                     points=POINTS))


def one_pass():
    for stage in spent:
        spent[stage] = 0.0
    grid_s = verify_s = 0.0
    for bound_id, params in pairs:
        t0 = time.perf_counter()
        grid = bounds.standard_grid(bound_id, params, points=POINTS,
                                    levels=LEVELS)
        t1 = time.perf_counter()
        bounds.verify(bound_id, params, grid, levels=LEVELS)
        t2 = time.perf_counter()
        grid_s += t1 - t0
        verify_s += t2 - t1
    out = {"standard_grid_s": grid_s, "evaluate_grid_s": spent["targets"],
           "scan_side_s": spent["scan_side"],
           "verify_rest_s": verify_s - spent["targets"] - spent["scan_side"]}
    for quantity, (query, grid) in columns.items():
        t0 = time.perf_counter()
        for _ in range(CALLS):
            riesz.evaluate_grid(query, quantity, grid)
        out[f"us_per_point_{quantity}"] = (
            (time.perf_counter() - t0) / (CALLS * len(grid)) * 1e6)
    return out


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
    result = {}
    for figure in passes[0]:
        runs = [p[figure] for p in passes]
        result[figure + "_median"] = statistics.median(runs)
        result[figure + "_runs"] = runs
    print(json.dumps(result))


if __name__ == "__main__":
    main()
