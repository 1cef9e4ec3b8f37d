"""Command-line interface.

Subcommands: levels, eval, verify, expansion, sumrule, figure, report;
each job has one command.  Space descriptors use the family:dim grammar
(sphere:3, hemisphere-d:2, rp:3, cp:4, hp:8, cayley:16, circle).  Every
input has one spelling: the space is the first positional of levels, eval,
expansion and sumrule, and verify reads a leading token that names a space
family or holds a colon as the space, before the bound ids.  Catalog
bounds, the R2 bounds among them, are checked by verify alone, whose only
parameter flag is --power.  Bad input is a ValueError, which main turns
into exit code 2; 1 means a verification produced an unexpected result.
All files are written atomically; numbers print with 17 significant
digits.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import bounds, report, scan, sumrules
from .riesz import (SpectrumQuery, closed_form, evaluate_grid,
                    level_values_upto)
from .output import (dumps_json, fmt_number, table_csv, atomic_write,
                     series_csv, write_json, write_series_csv,
                     write_series_svg)
from .scan import GridPolicy, Series
from .spaces import DEFAULT_LEVEL_CAP, Space, eigenvalue, invert_w, \
    is_space_descriptor, level_cap_exceeded, multiplicity, parse_space, \
    require_int, require_real
from .weyl import BoundExpansion


def _emit_table(args, header, rows, json_row) -> int:
    """Rows as CSV, or as a JSON list of json_row(row), to --out or stdout."""
    text = (dumps_json([json_row(r) for r in rows]) + "\n"
            if args.format == "json" else table_csv(header, rows))
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# levels


def cmd_levels(args) -> int:
    space = parse_space(args.space)
    if args.lmax > DEFAULT_LEVEL_CAP:
        raise level_cap_exceeded("l_max", args.lmax)
    if args.lmax < space.min_level:
        raise ValueError(f"--lmax {args.lmax} is below the minimum level "
                         f"{space.min_level} of {space.describe()}")
    rows = [(l, eigenvalue(space, l), multiplicity(space, l))
            for l in range(space.min_level, args.lmax + 1)]
    return _emit_table(args, ("l", "lambda", "mult"), rows, lambda r: {
        "l": r[0], "lambda": r[1], "mult": str(r[2])})


# ---------------------------------------------------------------------------
# eval


def _grid_from_args(q: SpectrumQuery, args) -> List[float]:
    """The z grid of eval and expansion.  levels-plus-midpoints reads the
    level values lambda^p of q, each with the midpoint to the next;
    uniform-in-w is z = (w(w+d-1))^p at w uniform over the Laplacian's w of
    zmin^(1/p)..zmax^(1/p), the figures' map: fixed phases of q's levels."""
    space = q.space
    if args.z:
        try:
            return [float(Fraction(t)) for t in args.z.split(",")]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad z list {args.z!r}") from None
        except OverflowError:
            raise ValueError(f"z list {args.z!r} holds a value beyond "
                             "float range") from None
    zmin, zmax, n = args.zmin, args.zmax, args.points
    if zmax is None:
        zmax = float(q.level_value(q.min_level + 39))
    require_real("--zmin", zmin)
    require_real("--zmax", zmax, zmin, strict=True)
    require_int("--points", n, 2)
    policy = GridPolicy(args.grid)
    if policy is GridPolicy.UNIFORM_IN_Z:
        return [zmin + (zmax - zmin) * i / (n - 1) for i in range(n)]
    if policy is GridPolicy.UNIFORM_IN_W:
        d, p = space.dim, q.power
        wlo, whi = invert_w(d, zmin ** (1 / p)), invert_w(d, zmax ** (1 / p))
        ws = [wlo + (whi - wlo) * i / (n - 1) for i in range(n)]
        try:
            return [(w * (w + d - 1)) ** p for w in ws]
        except OverflowError:  # a rounding past zmax near the float limit
            raise ValueError(f"the uniform-in-w grid to zmax={zmax!r} "
                             "leaves float range") from None
    pts = []
    lams = level_values_upto(q, zmax)  # raises past the cap
    nxts = lams[1:] + [q.level_value(q.min_level + len(lams))]
    for lam, nxt in zip(lams, nxts):
        if lam >= zmin:
            pts.append(float(lam))
        mid = (lam + nxt) / 2
        if zmin <= mid <= zmax:
            pts.append(mid)
    return pts


def cmd_eval(args) -> int:
    space = parse_space(args.space)
    q = SpectrumQuery(space, power=args.power)
    zs = _grid_from_args(q, args)
    brute, _ = evaluate_grid(q, args.quantity, zs)
    closed = [closed_form(space, args.quantity, z) if args.power == 1
              else None for z in zs]
    rows = [(z, value, "" if c is None else c)
            for z, value, c in zip(zs, brute, closed)]
    return _emit_table(args, ("z", "brute_force", "closed_form"), rows,
                       lambda r: {"z": r[0], "brute_force": fmt_number(r[1]),
                                  "closed_form": fmt_number(r[2])
                                  if r[2] != "" else None})


# ---------------------------------------------------------------------------
# verify


def _entry_params(spec, space: Optional[Space], power: Optional[int]) -> dict:
    """The entry's declared parameters that the command line supplies.

    The space gives `d` and `space`, --power gives `p`; parameters left
    out take the entry's declared defaults.  A domain entry's `area` is
    always the full one: the spectrum is that of the whole space.
    """
    given = {"d": space.dim if space else None, "p": power, "space": space}
    return {name: given[name] for name in spec.param_names
            if given.get(name) is not None}


def cmd_verify(args) -> int:
    ids = list(args.ids)
    # A token with a colon is a space descriptor, even of an unknown family.
    space = (parse_space(ids.pop(0))
             if ":" in ids[0] or is_space_descriptor(ids[0]) else None)
    if not ids:
        raise ValueError("give bound ids or 'all'")
    power = args.power
    selected = []
    if ids == ["all"]:
        for bid in sorted(bounds.catalog()):
            spec = bounds.get(bid)
            prm = _entry_params(spec, space, power)
            try:
                on = spec.query(spec.validate(dict(prm))).space
            except ValueError:
                continue  # an entry of another space, or it rejects --power
            if space is None or on == space:
                selected.append((bid, prm))
        if not selected:
            raise ValueError("no catalog entries match the given space")
        # An entry rejecting --power is dropped; all of them dropping it
        # means the power itself is wrong.
        if power is not None and not any("p" in prm for _, prm in selected):
            where = f" of {space.describe()}" if space else ""
            raise ValueError(f"no catalog entry{where} accepts "
                             f"--power {power}")
    else:
        for bid in ids:
            spec = bounds.get(bid)  # an unknown id exits 2 via main
            if power is not None and "p" not in spec.param_names:
                raise ValueError(f"{bid} takes no --power")
            prm = _entry_params(spec, space, power)
            try:
                on = spec.query(spec.validate(dict(prm))).space
            except ValueError as exc:
                raise ValueError(f"cannot assemble parameters for {bid} "
                                 f"from the command line: {exc}") from None
            if space is not None and on != space:
                raise ValueError(f"{bid} is not an entry of "
                                 f"{space.describe()}")
            selected.append((bid, prm))

    all_ok = True
    for bid, prm in selected:
        rep = bounds.verify(bid, prm, zmax=args.zmax, points=args.points,
                            tol=args.tol)
        all_ok &= rep.passed
        status = "ok" if rep.passed else "UNEXPECTED"
        summary = "; ".join(
            f"{s.side}: min slack {fmt_number(s.min_slack)} at "
            f"z={fmt_number(s.argmin_z)}"
            + (f", first witness z={fmt_number(s.first_witness.z)}"
               if s.first_witness else "")
            for s in rep.sides)
        print(f"{rep.bound_id} [{status}] expected_valid="
              f"{rep.expected_valid} {summary}")
        if args.out:
            safe = rep.bound_id.replace("/", "_").replace("≥", ">=")
            write_json(os.path.join(args.out, f"verify-{safe}.json"),
                       rep.to_dict())
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# expansion


def cmd_expansion(args) -> int:
    space = parse_space(args.space)
    quantity = args.quantity.upper()
    zs = [z for z in _grid_from_args(SpectrumQuery(space), args) if z > 0]
    ex = BoundExpansion(space, quantity, args.terms)
    pts = [(z, ex(z)) for z in zs]
    series = Series(f"{quantity}:{space.describe()}:{args.terms}-term",
                    tuple(pts))
    base = args.out
    if base and base.endswith((".csv", ".svg")):
        base = base[:-4]
    return _write_series([series], args.format, base)


def _write_series(series_list, fmt: str, base: Optional[str]) -> int:
    """The series as CSV on stdout, or, given a base path, as the files
    `fmt` picks: base.csv, base.svg or both."""
    if not base:
        sys.stdout.write(series_csv(series_list))
        return 0
    exts = ("csv", "svg") if fmt == "both" else (fmt,)
    writers = {"csv": write_series_csv, "svg": write_series_svg}
    for ext in exts:
        writers[ext](f"{base}.{ext}", series_list)
    print("wrote " + " and ".join(f"{base}.{ext}" for ext in exts))
    return 0


# ---------------------------------------------------------------------------
# sumrule


def cmd_sumrule(args) -> int:
    space = parse_space(args.space)
    if args.kind == "pq":
        lmax = 30 if args.lmax is None else args.lmax
        rep = sumrules.check_pq_identity(space, lmax)
        print(f"pq {space.describe()}: {len(rep.gap_indices)} gap indices, "
              f"{'exact equality' if rep.passed else 'MISMATCH'}")
        return 0 if rep.passed else 1
    lmax = 1000 if args.lmax is None else args.lmax
    rep = sumrules.trace_identity_partial(space, lmax)
    print(f"trace {space.describe()}: partial sum "
          f"{fmt_number(rep.partial_sum)} -> target "
          f"{fmt_number(rep.target)}; tail estimate "
          f"{fmt_number(rep.tail_estimate)}; "
          f"{'within tail' if rep.within_tail else 'OUTSIDE TAIL'}")
    return 0 if rep.within_tail else 1


# ---------------------------------------------------------------------------
# figure and report


def cmd_figure(args) -> int:
    series = scan.figure(args.fig_id, resolution=args.resolution,
                         l_max=args.lmax)
    return _write_series(series, args.format, args.out
                         and os.path.join(args.out, args.fig_id))


def cmd_report(args) -> int:
    rep = report.run_acceptance()
    for line in rep.lines():
        print(line)
    if args.out:
        atomic_write(os.path.join(args.out, "acceptance.md"),
                     rep.to_markdown())
        write_json(os.path.join(args.out, "acceptance.json"), rep.to_dict())
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser, and so each of its subcommand parsers, whose
    command-line errors are one `error:` line and exit code 2, as main's."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="spectral-riesz",
        description="Exact eigenvalue counting functions, Riesz-means and "
                    "sharp spectral bounds on spheres, hemispheres and "
                    "projective spaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_grid_flags(p):
        p.add_argument("--z", help="comma-separated z values")
        p.add_argument("--zmin", type=float, default=0.0)
        p.add_argument("--zmax", type=float, default=None)
        p.add_argument("--points", type=int, default=200)
        p.add_argument("--grid", default="uniform-in-z",
                       choices=[g.value for g in GridPolicy])

    p = sub.add_parser("levels", help="tabulate (l, lambda, multiplicity)")
    p.add_argument("space")
    p.add_argument("--lmax", type=int, default=20)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("eval", help="evaluate N/R1/R2, brute force vs closed")
    p.add_argument("space")
    p.add_argument("quantity", type=str.upper, choices=("N", "R1", "R2"))
    p.add_argument("--power", type=int, default=1)
    add_grid_flags(p)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="verify catalog bounds on a grid")
    p.add_argument("ids", nargs="+",
                   help="an optional space, then bound ids or 'all'")
    p.add_argument("--power", type=int, default=None)
    p.add_argument("--zmax", type=float, default=None)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="directory for JSON reports")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expansion", help="truncated semiclassical expansion")
    p.add_argument("space")
    p.add_argument("quantity", help="N or R1")
    p.add_argument("--terms", type=int, default=3)
    add_grid_flags(p)
    p.add_argument("--format", default="csv", choices=("csv", "svg", "both"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("sumrule", help="P/Q identity and trace series")
    p.add_argument("space")
    p.add_argument("kind", choices=("pq", "trace"))
    p.add_argument("--lmax", type=int, default=None)
    p.set_defaults(func=cmd_sumrule)

    p = sub.add_parser("figure", help="emit the data behind figures f1..f10")
    p.add_argument("fig_id")
    p.add_argument("--resolution", type=int,
                   default=scan.DEFAULT_POINTS_PER_INTERVAL)
    p.add_argument("--lmax", type=int, default=scan.DEFAULT_LEVEL_RANGE)
    p.add_argument("--format", default="both", choices=("csv", "svg", "both"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("report", help="run the full acceptance suite")
    p.add_argument("--out", help="directory for acceptance.md/.json")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
