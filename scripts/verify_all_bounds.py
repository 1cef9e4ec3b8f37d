#!/usr/bin/env python3
"""Sweep the whole bound catalog over a parameter matrix and print a table.

A compact research loop: every catalog entry at the representative
parameters it declares (bounds.entry_matrix) on the standard grid, minimum
slack and witness columns, exit status 1 if anything behaves unexpectedly.
Each line ends with the seconds its verify call took; the total line sums
the points and seconds over all pairs.

Usage:
    python scripts/verify_all_bounds.py [--points 2000] [--levels 40]
"""

import argparse
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spectral_riesz import bounds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=int, default=2000)
    ap.add_argument("--levels", type=int, default=40)
    args = ap.parse_args()

    ok = True
    rows = bounds.entry_matrix()
    width = max(len(r[0]) for r in rows) + 2
    total_points, total_s = 0, 0.0
    for bound_id, params in rows:
        t0 = perf_counter()
        rep = bounds.verify(bound_id, params, points=args.points,
                            levels=args.levels)
        secs = perf_counter() - t0
        total_s += secs
        total_points += sum(s.n_points for s in rep.sides)
        status = "ok" if rep.passed else "UNEXPECTED"
        ok &= rep.passed
        prm = rep.params or "-"
        min_slack = min(s.min_slack for s in rep.sides)
        witness = next((s.first_witness.z for s in rep.sides
                        if s.first_witness), None)
        print(f"{rep.bound_id:<{width}} {prm:<32} {status:<10} "
              f"min slack {min_slack: .3e}"
              + (f"  witness z={witness:g}" if witness is not None else "")
              + f"  {secs:.3f} s")
    print(f"total: {len(rows)} pairs, {total_points} points, {total_s:.3f} s")
    print("overall:", "ok" if ok else "UNEXPECTED RESULTS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
