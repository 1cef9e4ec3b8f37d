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
    """One row per point; an all-float row is one f-string, other rows
    (int or Fraction z from the CLI) format each value by fmt_number."""
    lines = ["z,series_label,value"]
    for s in series_list:
        tail = f",{s.label},"
        for z, v in s.points:
            if type(z) is float and type(v) is float:
                lines.append(f"{z:.17g}{tail}{v:.17g}")
            else:
                lines.append(f"{fmt_number(z)}{tail}{fmt_number(v)}")
    return "\n".join(lines) + "\n"


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
    zs = [z for s in series_list for z, _ in s.points]
    if not zs:
        return ('<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="0 0 {width} {height}"></svg>')
    vs = [v for s in series_list for _, v in s.points]
    zmin, zmax, vmin, vmax = min(zs), max(zs), min(vs), max(vs)
    # Float spans make every coordinate a float: Fraction coordinates take
    # no '.3f' before Python 3.12, and float(float) is the float itself.
    zspan = float((zmax - zmin) or 1.0)
    vspan = float((vmax - vmin) or 1.0)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {width} {height}">']
    for i, s in enumerate(series_list):
        colour = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{(z - zmin) / zspan * width:.3f},"
                          f"{height - (v - vmin) / vspan * height:.3f}"
                          for z, v in s.points)
        parts.append(f'<polyline fill="none" stroke="{colour}" '
                     f'stroke-width="1" points="{coords}">'
                     f'<title>{s.label}</title></polyline>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_series_svg(path: str, series_list: Sequence[Series]):
    atomic_write(path, series_svg(series_list) + "\n")
