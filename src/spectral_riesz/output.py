"""Report persistence: canonical number formatting, CSV/JSON/SVG writers.

All files are written atomically (temp file in the target directory, then
rename).  Floats print with 17 significant digits so every value
round-trips through text; exact rationals print as num/den.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .scan import Series


def fmt_number(x) -> str:
    # Floats first: isinstance on Fraction is an ABC check, slow on floats.
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
            else str(x.numerator)
    return str(x)


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps_json(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, round-trip stable."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))


def write_json(path: str, obj):
    atomic_write(path, dumps_json(obj) + "\n")


def series_csv(series_list: Sequence[Series]) -> str:
    """One row per point.  An all-float series is one %-format of its
    flattened points; a series with an int or Fraction point (from the
    CLI) formats each value by fmt_number."""
    parts = ["z,series_label,value\n"]
    for s in series_list:
        tail = f",{s.label},"
        flat = tuple(chain.from_iterable(s.points))
        if {float}.issuperset(map(type, flat)):
            row = "%.17g" + tail.replace("%", "%%") + "%.17g\n"
            parts.append(row * len(s.points) % flat)
        else:
            parts.extend(f"{fmt_number(z)}{tail}{fmt_number(v)}\n"
                         for z, v in s.points)
    return "".join(parts)


def write_series_csv(path: str, series_list: Sequence[Series]):
    atomic_write(path, series_csv(series_list))


def table_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_number(c) for c in row))
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#9467bd", "#ff7f0e", "#2ca02c",
            "#8c564b", "#e377c2", "#7f7f7f")


def series_svg(series_list: Sequence[Series], width: int = 900,
               height: int = 540) -> str:
    """Bare polyline rendering, viewBox normalized to the data extents."""
    columns = [tuple(zip(*s.points)) or ((), ()) for s in series_list]
    zs = [*chain.from_iterable(z for z, _ in columns)]
    if not zs:
        return ('<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="0 0 {width} {height}"></svg>')
    vs = [*chain.from_iterable(v for _, v in columns)]
    zmin, zmax, vmin, vmax = min(zs), max(zs), min(vs), max(vs)
    # Float spans make every coordinate a float, and '%.3f' formats a
    # float as the '.3f' spec does.
    zspan = float((zmax - zmin) or 1.0)
    vspan = float((vmax - vmin) or 1.0)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {width} {height}">']
    for i, (s, (z, v)) in enumerate(zip(series_list, columns)):
        colour = _PALETTE[i % len(_PALETTE)]
        xy = [None] * (2 * len(z))
        xy[0::2] = [(x - zmin) / zspan * width for x in z]
        xy[1::2] = [height - (y - vmin) / vspan * height for y in v]
        coords = ("%.3f,%.3f " * len(z) % tuple(xy))[:-1]
        parts.append(f'<polyline fill="none" stroke="{colour}" '
                     f'stroke-width="1" points="{coords}">'
                     f'<title>{s.label}</title></polyline>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_series_svg(path: str, series_list: Sequence[Series]):
    atomic_write(path, series_svg(series_list) + "\n")
