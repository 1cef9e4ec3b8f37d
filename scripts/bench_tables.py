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

Usage, from the root of a checkout:

    python scripts/bench_tables.py [--src PATH]

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
RUNS = 5

#: Runs in the fresh interpreter; argv[1] is "time" or "count".
CHILD = r'''
import json, resource, sys, time
from spectral_riesz import riesz, spaces

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


def _child(mode, src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", CHILD, mode], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=SRC,
                    help="engine source directory (default: this checkout's)")
    args = ap.parse_args()
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
