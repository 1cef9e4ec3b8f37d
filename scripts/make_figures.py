#!/usr/bin/env python3
"""Regenerate the data (CSV) and quick-look SVG for all ten figure scans.

Usage:
    python scripts/make_figures.py [--out out/figures] [--resolution 40]

Each line gives the seconds spent building the series, writing the CSV and
writing the SVG of one figure; the last line sums them over all figures.
"""

import argparse
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spectral_riesz import scan
from spectral_riesz.output import write_series_csv, write_series_svg


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/figures")
    ap.add_argument("--resolution", type=int, default=40)
    ap.add_argument("--lmax", type=int, default=60)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    totals = [0, 0.0, 0.0, 0.0]  # points, build, CSV and SVG seconds
    for fid in scan.FIGURES:
        t0 = perf_counter()
        series = scan.figure(fid, resolution=args.resolution, l_max=args.lmax)
        base = os.path.join(args.out, fid)
        t1 = perf_counter()
        write_series_csv(base + ".csv", series)
        t2 = perf_counter()
        write_series_svg(base + ".svg", series)
        t3 = perf_counter()
        npts = sum(len(s.points) for s in series)
        stages = (npts, t1 - t0, t2 - t1, t3 - t2)
        totals = [a + b for a, b in zip(totals, stages)]
        print(f"{fid}: {len(series)} series, {npts} points -> {base}.csv/.svg"
              f"  build {stages[1]:.3f} s, csv {stages[2]:.3f} s, "
              f"svg {stages[3]:.3f} s")
    print(f"total: {totals[0]} points  build {totals[1]:.3f} s, "
          f"csv {totals[2]:.3f} s, svg {totals[3]:.3f} s")


if __name__ == "__main__":
    main()
