#!/usr/bin/env python3
"""Regenerate the data (CSV) and quick-look SVG for all ten figure scans.

Usage:
    python scripts/make_figures.py [--out out/figures] [--resolution 40]
"""

import argparse
import os
import sys

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
    for fid in scan.FIGURES:
        series = scan.figure(fid, resolution=args.resolution, l_max=args.lmax)
        base = os.path.join(args.out, fid)
        write_series_csv(base + ".csv", series)
        write_series_svg(base + ".svg", series)
        npts = sum(len(s.points) for s in series)
        print(f"{fid}: {len(series)} series, {npts} points -> {base}.csv/.svg")


if __name__ == "__main__":
    main()
