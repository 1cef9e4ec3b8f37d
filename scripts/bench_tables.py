#!/usr/bin/env python3
"""Time a cold build of the exact-deep workload's prefix tables.

The build is the exact-deep set-up's own: for each of the nine spaces at
p = 1 and p = 2 (18 tables), `riesz.counting` at the value of level 9,901,
which grows the table from empty through that level.  Each of five runs
times it in a fresh interpreter, so every table starts cold, and reads the
process's peak resident set (`ru_maxrss`) right after the build; one more
fresh run, untimed, counts the rows built and the evaluations of the
multiplicity formulas (`record.mult` of each family).  Every run also
counts the distinct int objects that the tables (`riesz._tables`, with
the level columns `riesz._spectra` where an engine keeps them) hold, and
their bytes (`sys.getsizeof`).
Prints one JSON object: the median and every run of the seconds and of
the peak RSS in MB, rows, evaluations, ints and their bytes.

With --parent REV it times this checkout's engine against REV's instead
(`git archive REV src`), in pairs of fresh-interpreter runs whose first
tree flips at every pair: PAIRS cold builds, then COLUMN_PAIRS calls of
`spaces.level_columns` for each run of COLUMN_RUNS.  One JSON line per
stage, as `scripts/ab.py` prints them: the median ratio of parent time
over change time, its quartiles, the pairs the change won and each tree's
median seconds; a last line gives each tree's formula evaluations.

With --crossover SPACE... it times, in one process, the two ways this
engine builds a run of multiplicities: the formula at every level and the
method of differences (`spaces._difference_run`), best of CROSSOVER_REPS,
for each run length of --lengths from level 1 and from level n (a run of
fewer than d levels, or one past level DEFAULT_LEVEL_CAP + 1, is skipped).
One JSON line per run; `spaces.DIFFERENCE_RUN_MIN` cites these numbers.

Usage, from the root of a checkout:

    python scripts/bench_tables.py [--src PATH]
    python scripts/bench_tables.py --parent REV
    python scripts/bench_tables.py --crossover SPACE... --lengths N...

--src is the engine's source directory (default: this checkout's src), so
the same script measures another commit's engine.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from ab import parent_src, ratio_record

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
RUNS = 5
PAIRS = 10
COLUMN_PAIRS = 8
CROSSOVER_REPS = 3
#: (space, start, stop) of the timed `level_columns` runs, one level
#: either side of the difference rule (`spaces.DIFFERENCE_RUN_MIN`): on
#: the Cayley plane the exact-deep build's run from level 1,024, over
#: 1,023 and 1,024 levels, and on the one-binomial hemisphere at d = 1,000,
#: the family slowest to pay, 3,999 and 4,000 levels from level 1.  The
#: shorter run takes the formula on both trees.
COLUMN_RUNS = (("cayley:16", 1024, 2047), ("cayley:16", 1024, 2048),
               ("hemisphere-n:1000", 1, 4000), ("hemisphere-n:1000", 1, 4001))

#: Runs in the fresh interpreter; argv[1] is "time", "count" or
#: "columns" (then argv[2:] is a space, start and stop of `COLUMN_RUNS`).
CHILD = r'''
import json, resource, sys, time
from spectral_riesz import riesz, spaces

if sys.argv[1] == "columns":
    space = spaces.parse_space(sys.argv[2])
    start, stop = map(int, sys.argv[3:])
    begin = time.perf_counter()
    spaces.level_columns(space, start, stop)
    print(json.dumps({"seconds": time.perf_counter() - begin}))
    sys.exit()

SPACES = ("sphere:1", "sphere:2", "sphere:8", "hemisphere-d:5",
          "hemisphere-n:4", "rp:3", "cp:6", "hp:12", "cayley:16")
TOP_LEVEL = 9900
evaluations = [0]


def counted(mult):
    def wrapper(d, l):
        evaluations[0] += 1
        return mult(d, l)
    return wrapper


if sys.argv[1] == "count":
    for family, record in list(spaces._FAMILIES.items()):
        spaces._FAMILIES[family] = record._replace(mult=counted(record.mult))
queries = [riesz.SpectrumQuery(spaces.parse_space(s), power=p)
           for s in SPACES for p in (1, 2)]
start = time.perf_counter()
for q in queries:
    riesz.counting(q, q.level_value(TOP_LEVEL + 1))
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
held = {id(v): sys.getsizeof(v)
        for cols in [*riesz._tables.values(),
                     *getattr(riesz, "_spectra", {}).values()]
        for col in cols for v in col}
print(json.dumps({"seconds": seconds, "peak_rss_mb": rss_mb,
                  "rows": sum(len(t[0]) for t in riesz._tables.values()),
                  "mult_evaluations": evaluations[0],
                  "ints": len(held), "int_bytes": sum(held.values())}))
'''


def _child(mode, src, *args):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", CHILD, mode, *map(str, args)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _paired(stage, pairs, parent, mode, *args):
    """One `ratio_record`: `pairs` pairs of fresh-interpreter runs of each
    tree, the first tree flipping at every pair."""
    sides = {parent: [], SRC: []}
    for pair in range(pairs):
        for src in (parent, SRC)[::1 if pair % 2 else -1]:
            sides[src].append(_child(mode, src, *args)["seconds"])
    return ratio_record(stage, sides[parent], sides[SRC])


def compare(rev):
    """The --parent report, one JSON line per stage."""
    with tempfile.TemporaryDirectory() as tmp:
        parent = parent_src(rev, tmp)
        print(json.dumps(_paired("build", PAIRS, parent, "time")),
              flush=True)
        for desc, start, stop in COLUMN_RUNS:
            print(json.dumps(_paired(f"level_columns {desc} levels "
                                     f"{start}..{stop - 1}", COLUMN_PAIRS,
                                     parent, "columns", desc, start, stop)),
                  flush=True)
        print(json.dumps({"stage": "mult_evaluations",
                          "parent": _child("count", parent)[
                              "mult_evaluations"],
                          "change": _child("count", SRC)[
                              "mult_evaluations"]}))


def _best(run):
    """The fastest of CROSSOVER_REPS calls of run, in seconds."""
    times = []
    for _ in range(CROSSOVER_REPS):
        gc.collect()
        begin = time.perf_counter()
        run()
        times.append(time.perf_counter() - begin)
    return min(times)


def crossover(src, descs, lengths):
    """The --crossover report: a run of multiplicities by the formula at
    every level and by differences, one JSON line per run."""
    sys.path.insert(0, os.path.abspath(src))
    from spectral_riesz import spaces
    for desc in descs:
        space = spaces.parse_space(desc)
        mult, d = space.record.mult, space.dim
        for n in lengths:
            for start in sorted({1, n}):
                stop = start + n
                if n < d or stop > spaces.DEFAULT_LEVEL_CAP + 2:
                    continue
                per_level = _best(lambda: [mult(d, l)
                                           for l in range(start, stop)])
                diffs = _best(lambda: spaces._difference_run(space, start,
                                                             stop))
                print(json.dumps({"space": desc, "levels": n,
                                  "start": start, "per_level_s": per_level,
                                  "differences_s": diffs,
                                  "ratio": round(per_level / diffs, 3)}),
                      flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=SRC,
                    help="engine source directory (default: this checkout's)")
    ap.add_argument("--parent", metavar="REV",
                    help="time this checkout against REV's engine, paired")
    ap.add_argument("--crossover", nargs="+", metavar="SPACE",
                    help="time runs by the formula and by differences")
    ap.add_argument("--lengths", nargs="+", type=int,
                    default=[256, 512, 1024, 2048, 4096],
                    help="run lengths of --crossover (levels)")
    args = ap.parse_args()
    if args.parent:
        return compare(args.parent)
    if args.crossover:
        return crossover(args.src, args.crossover, args.lengths)
    runs = [_child("time", args.src) for _ in range(RUNS)]
    seconds = [run["seconds"] for run in runs]
    rss = [round(run["peak_rss_mb"], 2) for run in runs]
    counts = _child("count", args.src)
    print(json.dumps({"tables": 18, "top_level": 9901,
                      "seconds_median": statistics.median(seconds),
                      "seconds_runs": seconds,
                      "peak_rss_mb_median": statistics.median(rss),
                      "peak_rss_mb_runs": rss,
                      "rows": counts["rows"],
                      "mult_evaluations": counts["mult_evaluations"],
                      "ints": counts["ints"],
                      "int_bytes": counts["int_bytes"]}))


if __name__ == "__main__":
    main()
