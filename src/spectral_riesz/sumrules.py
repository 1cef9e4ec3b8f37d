"""Exact sum rules for closed rank-one symmetric spaces.

The P_N / Q_N quadratic-polynomial identity at spectral gaps, the shifted
R_2 monotonicity ratios and the trace-identity series.  The two-sided R_2
Weyl bounds are the catalog entry sd.r2.twosided (see bounds).  Identity
checks run in exact rational arithmetic with zero tolerance; floating
point never enters them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .riesz import (SpectrumQuery, _table, nth_eigenvalue, prefix_sums,
                    riesz_mean)
from .spaces import DEFAULT_LEVEL_CAP, Real, Space, level_cap_exceeded
from .weyl import lclass_volume


@dataclass(frozen=True)
class QuadPoly:
    """Quadratic c2 z^2 + c1 z + c0 with exact rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __call__(self, z):
        return (self.c2 * z + self.c1) * z + self.c0

    def __eq__(self, other):
        return (isinstance(other, QuadPoly) and self.c2 == other.c2
                and self.c1 == other.c1 and self.c0 == other.c0)

    __hash__ = None


def _require_closed(space: Space):
    if not space.is_closed:
        raise ValueError("sum rules apply to closed spaces only")


def _levels(space: Space, l_max: int):
    """The Laplacian's prefix table on closed space, through level l_max + 1."""
    _require_closed(space)
    if l_max > DEFAULT_LEVEL_CAP:
        raise level_cap_exceeded("l_max", l_max)
    q = SpectrumQuery(space)
    return _table(q, "lam", q.level_value(l_max))


def pn(space: Space, n: int) -> QuadPoly:
    """P_N(z) = Sigma_{j<=N} (z - lambda_j)(z - lambda - (d+4)/d lambda_j).

    lambda is the first positive eigenvalue of the space (= d on the
    sphere); coefficients come from exact prefix sums.
    """
    _require_closed(space)
    if n < 1:
        raise ValueError("N must be >= 1")
    d = space.dim
    lam1 = space.first_positive_eigenvalue
    ps = prefix_sums(SpectrumQuery(space), n)
    c1 = -2 * Fraction(d + 2, d) * ps.sum1 - Fraction(lam1 * n)
    c0 = Fraction(d + 4, d) * ps.sum2 + Fraction(lam1 * ps.sum1)
    return QuadPoly(Fraction(n), c1, c0)


def qn(space: Space, n: int) -> QuadPoly:
    """Q_N(z) = N (z - lambda_N)(z - lambda_{N+1})."""
    _require_closed(space)
    if n < 1:
        raise ValueError("N must be >= 1")
    q = SpectrumQuery(space)
    lam_n, lam_n1 = nth_eigenvalue(q, n), nth_eigenvalue(q, n + 1)
    return QuadPoly(Fraction(n), Fraction(-n * (lam_n + lam_n1)),
                    Fraction(n * lam_n * lam_n1))


def gap_indices(space: Space, l_max: int) -> List[int]:
    """Cumulative multiplicities N = Sigma_{l<=L} m_l for L = 0..l_max."""
    return _levels(space, l_max).count[:l_max + 1]


@dataclass(frozen=True)
class PQReport:
    space: str
    gap_indices: Tuple[int, ...]
    mismatches: Tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def check_pq_identity(space: Space, l_max: int) -> PQReport:
    """Coefficient-wise exact equality P_N = Q_N at every gap index.

    At the gap after level L (N = count[L], lambda_N = lam[L], lambda_{N+1}
    = lam[L+1]) both c2 are N, so the identity is d P_N = d Q_N on the
    other two coefficients, a pair of integer equalities on table rows L
    and L + 1, for L = 0..l_max up to and including the level cap.
    A mismatch is a hard failure; the report carries the indices checked.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    tab = _levels(space, l_max)
    d, lam1 = space.dim, space.first_positive_eigenvalue
    gaps = tab.count[:l_max + 1]
    bad = [n for n, s1, s2, lo, hi in zip(gaps, tab.s1, tab.s2, tab.lam,
                                          tab.lam[1:])
           if 2 * (d + 2) * s1 + d * lam1 * n != d * n * (lo + hi)
           or (d + 4) * s2 + d * lam1 * s1 != d * n * lo * hi]
    return PQReport(space.describe(), tuple(gaps), tuple(bad))


# ---------------------------------------------------------------------------
# Shifted R_2 ratios


def r2_shifted_ratio(space: Space, z: Real, shift: Real) -> float:
    """R_2(z) / (z + b)^(2 + d/2); b = d lambda/4 is the natural shift."""
    if z < 0 or not 0 <= shift < math.inf:  # NaN fails too
        raise ValueError("need z >= 0 and a finite shift >= 0")
    q = SpectrumQuery(space)
    r2 = float(riesz_mean(q, 2, float(z)))
    if z == 0 and shift == 0:
        return 0.0
    return r2 / (float(z) + float(shift)) ** (2 + space.dim / 2.0)


def natural_shift(space: Space) -> Fraction:
    """b = d lambda / 4 with lambda the first positive eigenvalue."""
    return Fraction(space.dim * space.first_positive_eigenvalue, 4)


# ---------------------------------------------------------------------------
# Trace identity series


@dataclass(frozen=True)
class TraceReport:
    space: str
    l_max: int
    partial_sum: float
    target: float          # L^class_{0,d} |M^d|
    tail_estimate: float

    @property
    def within_tail(self) -> bool:
        return abs(self.partial_sum - self.target) <= self.tail_estimate


def trace_identity_partial(space: Space, l_max: int) -> TraceReport:
    """Partial sum over l = 0..l_max of the trace series

        N_l (lamt_{l+1}^(-d/2) - lamt_l^(-d/2)
             + d/4 (lamt_{l+1}^(-1-d/2) + lamt_l^(-1-d/2)) (lam_{l+1} - lam_l))

    with lamt = lam + d lambda/4 and N_l the cumulative multiplicity, and a
    conservative tail estimate.  Terms decay like C l^-3, so the tail
    behaves like |last| * l_max / 2; the estimate uses (l_max + 8)/2 as a
    validated safety margin.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    tab = _levels(space, l_max)
    d = space.dim
    b = float(natural_shift(space))
    e = d / 2.0
    terms = []
    for n_l, lam, lam1 in zip(tab.count[:l_max + 1], tab.lam, tab.lam[1:]):
        tl, tl1 = lam + b, lam1 + b
        terms.append(n_l * (tl1 ** -e - tl ** -e
                            + (d / 4.0) * (tl1 ** (-1 - e) + tl ** (-1 - e))
                            * (lam1 - lam)))
    partial = math.fsum(terms)
    tail = abs(terms[-1]) * (l_max + 8) / 2.0
    return TraceReport(space.describe(), l_max, partial,
                       float(lclass_volume(space, 0)), tail)


def q_plus_dr1_at_gap_minimum(space: Space, l: int) -> Tuple[Fraction, Fraction]:
    """(Q_N(z0) + d R_1(z0)) / N at z0 = (lambda_N + lambda_{N+1} - lambda)/2.

    Returns the exact value and the predicted (d-2)/(d+2) L(L+d) for the
    sphere gap after level L (lambda = d there).  N and lambda_N, lambda_N+1
    are rows L, L + 1 of the prefix table, so L may reach the level cap.
    """
    d, tab = space.dim, _levels(space, l)
    n, lam_n, lam_n1 = tab.count[l], tab.lam[l], tab.lam[l + 1]
    z0 = Fraction(lam_n + lam_n1 - space.first_positive_eigenvalue, 2)
    q_n = n * (z0 - lam_n) * (z0 - lam_n1)
    value = (q_n + d * riesz_mean(SpectrumQuery(space), 1, z0)) / n
    predicted = Fraction(d - 2, d + 2) * l * (l + d)
    return value, predicted
