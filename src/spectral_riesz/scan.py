"""Figure-reproduction series and per-gap extremum scans.

Series are ratio-minus-one curves of the raw spectral quantities against
their bounds, Weyl terms or truncated expansions, on deterministic grids
(no randomness, fixed phases inside each level interval), so every value
is reproducible bit for bit.  Each figure reads each of its raw N or R1
columns once, in one prefix-table sweep (riesz.evaluate_grid), and every
series on that column shares it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from itertools import repeat
from operator import lt, sub, truediv
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import bounds
from .riesz import SpectrumQuery, counting, evaluate_grid, riesz_mean
from .spaces import (Family, Space, hemisphere_dirichlet, hemisphere_neumann,
                     require_int, sphere)
from .weyl import BoundExpansion, lclass_volume


class GridPolicy(Enum):
    UNIFORM_IN_Z = "uniform-in-z"
    UNIFORM_IN_W = "uniform-in-w"
    LEVELS_PLUS_MIDPOINTS = "levels-plus-midpoints"


class _SeriesFields(NamedTuple):
    label: str
    points: Tuple[Tuple[float, float], ...]


class Series(_SeriesFields):
    """One labelled curve: finite, strictly increasing z; finite values."""

    __slots__ = ()

    def __new__(cls, label: str, points: Tuple[Tuple[float, float], ...]):
        zs, vs = tuple(zip(*points)) or ((), ())
        if not all(map(lt, zs, zs[1:])):
            raise ValueError("series grid must be strictly increasing")
        # Increasing pairs hold no NaN, and inf can sit only at an end.
        if zs and not (-math.inf < zs[0] and zs[-1] < math.inf):
            raise ValueError("series grid must be finite")
        if not all(map(math.isfinite, vs)):
            raise ValueError("series values must be finite")
        return super().__new__(cls, label, points)


class GapExtremum(NamedTuple):
    level: int
    z_star: float
    ratio_star: float
    is_unique: bool


DEFAULT_POINTS_PER_INTERVAL = 40
DEFAULT_LEVEL_RANGE = 60


def w_grid(d: int, l_max: int,
           per_interval: int = DEFAULT_POINTS_PER_INTERVAL) -> List[float]:
    """Uniform-in-w grid: fixed fluctuation phases in every level interval."""
    phases = [k / per_interval for k in range(per_interval)]
    ws = [l + phase for l in range(l_max) for phase in phases]
    ws.append(float(l_max))
    return [w * (w + d - 1) for w in ws]


def _column(q: SpectrumQuery, quantity: str, zs: Sequence[float]):
    """The points z > 0 of zs and float N or R1 there, in one table sweep."""
    zs = [float(z) for z in zs if z > 0]
    return zs, [*map(float, evaluate_grid(q, quantity, zs)[0])]


def _series(label: str, zs: Sequence[float], raw: Sequence[float],
            reference: Callable[[float], float],
            minus_z: bool = False) -> Series:
    """Ratio minus one of raw (less z with minus_z) to reference(z) at zs."""
    if minus_z:
        raw = map(sub, raw, zs)
    ratios = map(truediv, raw, map(reference, zs))
    return Series(label, tuple(zip(zs, map(sub, ratios, repeat(1.0)))))


def _bound(bound_id: str, side: str, prm: Optional[dict] = None):
    """One bound side as a float function of z, resolved once.  Series z
    are floats, which no side needs normalized, so the side is called
    directly."""
    _, bound = bounds._resolve_side(bound_id, prm, side)
    return lambda z: float(bound(z))


def figure(fig_id: str, resolution: int = DEFAULT_POINTS_PER_INTERVAL,
           l_max: int = DEFAULT_LEVEL_RANGE) -> List[Series]:
    """Data series behind the ten figures; see the builder for each layout.

    resolution is the number of grid points per level interval (uniform in
    the auxiliary variable w); ranges default to z in (0, lambda_(l_max)].
    """
    if fig_id not in FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}; "
                         f"valid: {', '.join(sorted(FIGURES))}")
    return FIGURES[fig_id](require_int("resolution", resolution, 1),
                           require_int("l_max", l_max, 1))


def _figure_f1(res, l_max):
    # S^2: R1 against the plain and the improved two-sided bounds.
    col = _column(SpectrumQuery(sphere(2)), "R1", w_grid(2, l_max, res))
    return [
        _series("r1_vs_upper", *col, _bound("s2.r1.upper", "upper")),
        _series("r1_vs_lower", *col, _bound("s2.r1.lower", "lower")),
        _series("r1_vs_upper_improved", *col,
                _bound("s2.r1.upper.imp", "upper")),
        _series("r1_vs_lower_improved", *col,
                _bound("s2.r1.lower.imp", "lower")),
    ]


def _figure_f2(res, l_max):
    # S^2_+ Dirichlet counting: Weyl term and the two-sided bound, the
    # same series cut to four nested zoom ranges (identical overlaps),
    # none shorter than level 1 so that no panel is empty.
    col = _column(SpectrumQuery(hemisphere_dirichlet(2)), "N",
                  w_grid(2, l_max, res))
    base = [
        _series("nd_vs_weyl", *col, _bound("hemi2.nd.polya", "upper")),
        _series("nd_vs_upper", *col, _bound("hemi2.nd.twosided", "upper")),
        _series("nd_vs_lower", *col, _bound("hemi2.nd.twosided", "lower")),
    ]
    panels = [max(l_max // k, 1) for k in (1, 2, 4, 8)]
    out = []
    for i, lcap in enumerate(panels, start=1):
        zcap = float(lcap * (lcap + 1))
        end = bisect_right(col[0], zcap)
        for s in base:
            out.append(Series(f"{s.label}:panel{i}", s.points[:end]))
    return out


def _figure_f34(res, l_max):
    # S^2_+ R1, Dirichlet (tag d) and Neumann (tag n): the lower bounds
    # hold above z = 2, a suffix of the sorted column.
    grid, out = w_grid(2, l_max, res), []
    for space, tag in ((hemisphere_dirichlet(2), "d"),
                       (hemisphere_neumann(2), "n")):
        zs, raw = _column(SpectrumQuery(space), "R1", grid)
        i = bisect_right(zs, 2.0)
        out += [
            _series(f"r1{tag}_vs_weyl", zs, raw,
                    BoundExpansion(space, "R1", 1)),
            _series(f"r1{tag}_vs_upper", zs, raw,
                    _bound(f"hemi2.r1{tag}.upper", "upper")),
            _series(f"r1{tag}_vs_lower", zs[i:], raw[i:],
                    _bound(f"hemi2.r1{tag}.lower", "lower")),
        ]
    return out


def _figure_f4(res, l_max):
    sp3 = sphere(3)
    col = _column(SpectrumQuery(sp3), "R1", w_grid(3, l_max, res))
    return [
        _series("r1_vs_leading", *col, BoundExpansion(sp3, "R1", 1)),
        _series("r1_vs_two_term", *col, BoundExpansion(sp3, "R1", 2)),
    ]


def _figure_f5(res, l_max):
    col = _column(SpectrumQuery(sphere(3)), "R1", w_grid(3, l_max, res))
    return [
        _series("r1_vs_shifted_upper", *col,
                _bound("sd.r1.upper.shift", "upper", {"d": 3})),
        _series("r1_vs_shifted_lower", *col,
                _bound("sd.r1.lower.shift", "lower", {"d": 3})),
    ]


def _figure_f6(res, l_max):
    sp3 = sphere(3)
    return [_series("n_vs_three_term",
                    *_column(SpectrumQuery(sp3), "N", w_grid(3, l_max, res)),
                    BoundExpansion(sp3, "N", 3))]


def _hemi3_series(space, zs, tag):
    # S^3_+ (tag d or n): N and R1 against three-term expansions, R1
    # against its Weyl term.
    q = SpectrumQuery(space)
    r1 = _column(q, "R1", zs)
    return [
        _series(f"n{tag}_vs_three_term", *_column(q, "N", zs),
                BoundExpansion(space, "N", 3)),
        _series(f"r1{tag}_vs_weyl", *r1, BoundExpansion(space, "R1", 1)),
        _series(f"r1{tag}_vs_three_term", *r1,
                BoundExpansion(space, "R1", 3)),
    ]


def _figure_f7(res, l_max):
    zs = [z for z in w_grid(3, l_max, res) if z > 3]
    return _hemi3_series(hemisphere_dirichlet(3), zs, "d")


def _figure_f8(res, l_max):
    return _hemi3_series(hemisphere_neumann(3), w_grid(3, l_max, res), "n")


def _figure_f9(res, l_max):
    out = []
    for d in (2, 3, 4, 5):
        q = SpectrumQuery(sphere(d), power=2)
        zs = [z * z for z in w_grid(d, l_max, res)]
        weyl = bounds.Power(lclass_volume(q.space, 1, 2), 1 + d / 4)
        out.append(_series(f"r1_bih_vs_weyl_d{d}", *_column(q, "R1", zs),
                           weyl))
    return out


def _figure_f10(res, l_max):
    grid, out = w_grid(2, l_max, res), []
    for p in (2, 3, 4, 5):
        q = SpectrumQuery(sphere(2), power=p)
        zs = [z ** p for z in grid]
        weyl = bounds.Power(lclass_volume(q.space, 1, p), 1 + 1 / p)
        out.append(_series(f"r1_p{p}_minus_z_vs_weyl", *_column(q, "R1", zs),
                           weyl, minus_z=True))
    return out


#: The builder of each figure id, in figure order.
FIGURES = {
    "f1": _figure_f1, "f2": _figure_f2, "f34": _figure_f34,
    "f4": _figure_f4, "f5": _figure_f5, "f6": _figure_f6,
    "f7": _figure_f7, "f8": _figure_f8, "f9": _figure_f9,
    "f10": _figure_f10,
}


# ---------------------------------------------------------------------------
# Per-gap extrema


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> Tuple[float, float]:
    """(z, f(z)) at the maximum of a unimodal f on [lo, hi], with the
    bracket narrowed by golden sections to width tol."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - (b - a) * invphi
    c2 = a + (b - a) * invphi
    f1, f2 = f(c1), f(c2)
    while b - a > tol:
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + (b - a) * invphi
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - (b - a) * invphi
            f1 = f(c1)
    z = (a + b) / 2
    return z, f(z)


def gap_extrema(space: Space, l_range: Sequence[int],
                reference: Tuple[float, float, float]) -> List[GapExtremum]:
    """Maximum of R_1 / (C (z+b)^q) inside each level gap of the Laplacian.

    reference = (C, q, b); golden-section localization to |dz| <= 1e-10
    lambda_(l+1).  On a gap R_1 = N z - S, so the ratio's derivative has
    numerator N (1 - q) z + N b + q S, falling for q > 1: the maximum is
    unique exactly when its zero (q S + N b) / (N (q - 1)) is inside.
    """
    if space.family is not Family.SPHERE:
        raise ValueError("gap extrema scans expect a sphere")
    c_ref, q_ref, b_ref = reference
    q = SpectrumQuery(space)

    def ratio(z: float) -> float:
        return float(riesz_mean(q, 1, z)) / (c_ref * (z + b_ref) ** q_ref)

    out = []
    for l in l_range:
        lam = q.level_value(l)
        lo, hi = float(lam), float(q.level_value(l + 1))
        z_star, r_star = golden_section_max(ratio, lo, hi, 1e-10 * hi)
        n = counting(q, lam)
        s = n * lam - riesz_mean(q, 1, lam)
        unique = q_ref > 1 and lo < (q_ref * s + n * b_ref) / (
            n * (q_ref - 1)) < hi
        out.append(GapExtremum(l, z_star, r_star, unique))
    return out
