#!/usr/bin/env python3
"""Paired A/B timing of this checkout's engine against another commit's.

Imports the change (`src/`) and the parent (`git archive REV src`) into one
process, each under its own copy of this checkout's perfbench workloads,
and times pairs of warm passes of the same seeded calls, interleaved in 64
slices, the first tree flipping at every slice and pair, the collector run
before a pair and off during it.  A pair's ratio is parent time over change
time.  The tree built second is faster (x1.02-1.03 between two builds of
one tree on exact-deep), so half the pairs come from a worker that builds
the parent first and half from one that builds the change first.

Stages: each workload's pass and its SPLITS (N, R1, R2 in us per call).
One JSON line each: median ratio, quartiles, pairs the change won and each
tree's median.  series is the noisy stage: an unchanged tree read x1.020,
quartiles 0.82-1.10, in whole passes, and x0.999-1.004, within 0.985-1.033,
in slices.  `peak_rss_mb`, `setup_s` and data-layout changes still need
perfbench process pairs (perfbench/run.py).

Usage: python scripts/ab.py [--parent REV] [--stage WORKLOAD] [--seed N]
"""

import argparse
import collections
import gc
import importlib
import io
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PAIRS = 20      # per build order
SLICES = 64

#: Time in the named functions (wrapped on the tree's module) or, where
#: none are named, in the calls whose label starts with the split's name.
SPLITS = {
    "catalog-sweep": {
        "standard_grid": ("bounds.standard_grid",),
        "targets": ("bounds.evaluate_grid", "bounds.eigenvalue_sums"),
        "verify": ("bounds.verify",)},
    "exact-deep": {"N": (), "R1": (), "R2": ()},
    "series": {"build": ("scan.figure",), "csv": ("output.series_csv",),
               "svg": ("output.series_svg",)},
}


def load(src):
    """This checkout's perfbench `workloads` over new engine modules from
    src; sys.modules and sys.path are as before on return."""
    saved, path = dict(sys.modules), list(sys.path)
    for name in saved:
        if name == "workloads" or name.partition(".")[0] == "spectral_riesz":
            del sys.modules[name]
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    try:
        return importlib.import_module("workloads")
    finally:
        for name in set(sys.modules) - set(saved):
            del sys.modules[name]
        sys.modules.update(saved)
        sys.path[:] = path


class Tree:
    """One engine tree's workload, set up and warm, ready for timed passes."""

    def __init__(self, src, stage, seed, out_dir):
        workloads = load(src)
        workload = workloads.WORKLOADS[stage](seed, False, out_dir)
        workload.warm_up()
        self.stage, self.spent, kinds = stage, {stage: 0.0}, {}
        for split, names in SPLITS[stage].items():
            key = f"{stage}.{split}"
            self.spent[key] = 0.0
            if not names:
                kinds[split] = key
            for name in names:
                module, attr = name.split(".")
                module = getattr(workloads, module)
                fn = getattr(module, attr, None)  # a parent may predate it
                if fn:
                    setattr(module, attr, self._timed(key, fn))
        self.ops = [(kinds.get(op.label.split(" ", 1)[0]), op)
                    for op in workload.ops()]
        self.calls = collections.Counter(k for k, _ in self.ops if k)
        self.run(self.ops)   # the untimed pass
        self.end_pass()

    def _timed(self, key, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[key] += time.perf_counter() - t0
        return wrapper

    def run(self, ops):
        """Make the calls ops, each timed on its own, adding to the pass."""
        spent, whole, clock = self.spent, self.stage, time.perf_counter
        for kind, op in ops:
            t0 = clock()
            try:
                op.call()
            except Exception:
                if not op.edge:  # an edge call feeds a bad input on purpose
                    raise
            took = clock() - t0
            spent[whole] += took
            if kind:
                spent[kind] += took

    def end_pass(self):
        """The pass's seconds by stage (us per call for N, R1, R2)."""
        times = {key: s / self.calls[key] * 1e6 if key in self.calls else s
                 for key, s in self.spent.items()}
        self.spent.update(dict.fromkeys(times, 0.0))
        return times


def time_pairs(parent_src, stage, seed, out_dir, change_first):
    """Build both trees, the change first if change_first, and time PAIRS
    pairs: (parent passes, change passes)."""
    order = (SRC, parent_src) if change_first else (parent_src, SRC)
    trees = {src: Tree(src, stage, seed, os.path.join(out_dir, str(i)))
             for i, src in enumerate(order)}
    pair_of = (trees[parent_src], trees[SRC])
    cuts = [len(pair_of[1].ops) * s // SLICES for s in range(SLICES + 1)]
    passes = ([], [])
    for pair in range(PAIRS):
        gc.collect()
        gc.disable()   # a worker that raises ends here anyway
        for s in range(SLICES):
            for tree in pair_of[::1 if (pair + s) % 2 else -1]:
                tree.run(tree.ops[cuts[s]:cuts[s + 1]])
        gc.enable()
        for tree, runs in zip(pair_of, passes):
            runs.append(tree.end_pass())
    return passes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD", help="commit to compare with")
    ap.add_argument("--stage", choices=sorted(SPLITS), help="one workload")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    args = ap.parse_args()
    archive = subprocess.run(["git", "-C", ROOT, "archive", args.parent,
                              "src"], stdout=subprocess.PIPE, check=True)
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        for stage in [args.stage] if args.stage else sorted(SPLITS):
            # A fresh worker for each build order, one after the other.
            with multiprocessing.get_context("spawn").Pool(
                    1, maxtasksperchild=1) as pool:
                halves = [pool.apply(time_pairs, (os.path.join(tmp, "src"),
                                                  stage, args.seed, tmp,
                                                  first))
                          for first in (False, True)]
            passes = [[p for half in halves for p in half[i]] for i in (0, 1)]
            for key in passes[1][0]:
                b, a = ([p[key] for p in runs] for runs in passes)
                ratios = [x / y for x, y in zip(b, a)]
                q1, _, q3 = statistics.quantiles(ratios, n=4)
                print(json.dumps({
                    "stage": key, "ratio": round(statistics.median(ratios), 4),
                    "q1": round(q1, 4), "q3": round(q3, 4),
                    "change_faster": sum(r > 1 for r in ratios),
                    "pairs": len(ratios), "parent": statistics.median(b),
                    "change": statistics.median(a)}), flush=True)


if __name__ == "__main__":
    main()
