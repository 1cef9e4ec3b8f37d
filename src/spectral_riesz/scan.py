"""Figure-reproduction series and per-gap extremum scans.

Series are ratio-minus-one curves of the raw spectral quantities against
their bounds, Weyl terms or truncated expansions, on deterministic grids
(no randomness, fixed phases inside each level interval), so every value
is reproducible bit for bit.  Each series reads its raw N or R1 column
from one prefix-table sweep (riesz.evaluate_grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

from . import bounds
from .riesz import SpectrumQuery, counting, evaluate_grid, riesz_mean
from .spaces import (Family, Space, hemisphere_dirichlet, hemisphere_neumann,
                     sphere)
from .weyl import BoundExpansion, lclass_volume


class GridPolicy(Enum):
    UNIFORM_IN_Z = "uniform-in-z"
    UNIFORM_IN_W = "uniform-in-w"
    LEVELS_PLUS_MIDPOINTS = "levels-plus-midpoints"


@dataclass(frozen=True)
class Series:
    """One labelled curve: strictly increasing z, finite values only."""

    label: str
    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        zs = [z for z, _ in self.points]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError("series grid must be strictly increasing")
        if any(not math.isfinite(v) for _, v in self.points):
            raise ValueError("series values must be finite")


@dataclass(frozen=True)
class GapExtremum:
    level: int
    z_star: float
    ratio_star: float
    is_unique: bool


DEFAULT_POINTS_PER_INTERVAL = 40
DEFAULT_LEVEL_RANGE = 60


def w_grid(d: int, l_max: int,
           per_interval: int = DEFAULT_POINTS_PER_INTERVAL) -> List[float]:
    """Uniform-in-w grid: fixed fluctuation phases in every level interval."""
    out = []
    for l in range(l_max):
        for k in range(per_interval):
            w = l + k / per_interval
            out.append(w * (w + d - 1))
    w = float(l_max)
    out.append(w * (w + d - 1))
    return out


def _series(label: str, q: SpectrumQuery, quantity: str, zs: Sequence[float],
            reference: Callable[[float], float],
            minus_z: bool = False) -> Series:
    """Ratio minus one of N or R1 (less z with minus_z) to reference(z),
    at the points z > 0 of zs, with the raw column from one table sweep."""
    zs = [float(z) for z in zs if z > 0]
    raw, _ = evaluate_grid(q, quantity, zs)
    return Series(label, tuple(
        (z, (float(r) - z if minus_z else float(r)) / reference(z) - 1.0)
        for z, r in zip(zs, raw)))


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
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    return FIGURES[fig_id](resolution, l_max)


def _figure_f1(res, l_max):
    # S^2: R1 against the plain and the improved two-sided bounds.
    zs = w_grid(2, l_max, res)
    q = SpectrumQuery(sphere(2))
    return [
        _series("r1_vs_upper", q, "R1", zs, _bound("s2.r1.upper", "upper")),
        _series("r1_vs_lower", q, "R1", zs, _bound("s2.r1.lower", "lower")),
        _series("r1_vs_upper_improved", q, "R1", zs,
                _bound("s2.r1.upper.imp", "upper")),
        _series("r1_vs_lower_improved", q, "R1", zs,
                _bound("s2.r1.lower.imp", "lower")),
    ]


def _figure_f2(res, l_max):
    # S^2_+ Dirichlet counting: Weyl term and the two-sided bound, the
    # same series cut to four nested zoom ranges (identical overlaps),
    # none shorter than level 1 so that no panel is empty.
    q = SpectrumQuery(hemisphere_dirichlet(2))
    zs = w_grid(2, l_max, res)
    base = [
        _series("nd_vs_weyl", q, "N", zs, _bound("hemi2.nd.polya", "upper")),
        _series("nd_vs_upper", q, "N", zs,
                _bound("hemi2.nd.twosided", "upper")),
        _series("nd_vs_lower", q, "N", zs,
                _bound("hemi2.nd.twosided", "lower")),
    ]
    panels = [max(l_max // k, 1) for k in (1, 2, 4, 8)]
    out = []
    for i, lcap in enumerate(panels, start=1):
        zcap = float(lcap * (lcap + 1))
        for s in base:
            out.append(Series(f"{s.label}:panel{i}",
                              tuple(pt for pt in s.points if pt[0] <= zcap)))
    return out


def _figure_f34(res, l_max):
    qd = SpectrumQuery(hemisphere_dirichlet(2))
    qn = SpectrumQuery(hemisphere_neumann(2))
    zs = w_grid(2, l_max, res)
    above2 = [z for z in zs if z > 2]
    return [
        _series("r1d_vs_weyl", qd, "R1", zs,
                BoundExpansion(qd.space, "R1", 1)),
        _series("r1d_vs_upper", qd, "R1", zs,
                _bound("hemi2.r1d.upper", "upper")),
        _series("r1d_vs_lower", qd, "R1", above2,
                _bound("hemi2.r1d.lower", "lower")),
        _series("r1n_vs_weyl", qn, "R1", zs,
                BoundExpansion(qn.space, "R1", 1)),
        _series("r1n_vs_upper", qn, "R1", zs,
                _bound("hemi2.r1n.upper", "upper")),
        _series("r1n_vs_lower", qn, "R1", above2,
                _bound("hemi2.r1n.lower", "lower")),
    ]


def _figure_f4(res, l_max):
    zs = w_grid(3, l_max, res)
    sp3 = sphere(3)
    q = SpectrumQuery(sp3)
    return [
        _series("r1_vs_leading", q, "R1", zs, BoundExpansion(sp3, "R1", 1)),
        _series("r1_vs_two_term", q, "R1", zs, BoundExpansion(sp3, "R1", 2)),
    ]


def _figure_f5(res, l_max):
    zs = w_grid(3, l_max, res)
    q = SpectrumQuery(sphere(3))
    return [
        _series("r1_vs_shifted_upper", q, "R1", zs,
                _bound("sd.r1.upper.shift", "upper", {"d": 3})),
        _series("r1_vs_shifted_lower", q, "R1", zs,
                _bound("sd.r1.lower.shift", "lower", {"d": 3})),
    ]


def _figure_f6(res, l_max):
    zs = w_grid(3, l_max, res)
    sp3 = sphere(3)
    return [_series("n_vs_three_term", SpectrumQuery(sp3), "N", zs,
                    BoundExpansion(sp3, "N", 3))]


def _hemi3_series(space, zs, tag):
    # S^3_+ (tag d or n): N and R1 against three-term expansions, R1
    # against its Weyl term.
    q = SpectrumQuery(space)
    return [
        _series(f"n{tag}_vs_three_term", q, "N", zs,
                BoundExpansion(space, "N", 3)),
        _series(f"r1{tag}_vs_weyl", q, "R1", zs,
                BoundExpansion(space, "R1", 1)),
        _series(f"r1{tag}_vs_three_term", q, "R1", zs,
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
        out.append(_series(f"r1_bih_vs_weyl_d{d}", q, "R1", zs, weyl))
    return out


def _figure_f10(res, l_max):
    out = []
    for p in (2, 3, 4, 5):
        q = SpectrumQuery(sphere(2), power=p)
        zs = [z ** p for z in w_grid(2, l_max, res)]
        weyl = bounds.Power(lclass_volume(q.space, 1, p), 1 + 1 / p)
        out.append(_series(f"r1_p{p}_minus_z_vs_weyl", q, "R1", zs, weyl,
                           minus_z=True))
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
        z_star, r_star = bounds.golden_section_max(ratio, lo, hi, 1e-10 * hi)
        n = counting(q, lam)
        s = n * lam - riesz_mean(q, 1, lam)
        unique = q_ref > 1 and lo < (q_ref * s + n * b_ref) / (
            n * (q_ref - 1)) < hi
        out.append(GapExtremum(l, z_star, r_star, unique))
    return out
