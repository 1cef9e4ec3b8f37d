"""Exact sum rules for closed rank-one symmetric spaces.

The P_N / Q_N quadratic-polynomial identity at spectral gaps, checked on
the rows of the prefix table, and the trace-identity series with its
natural shift b = d lambda / 4.  The two-sided R_2 Weyl bounds are the
catalog entry sd.r2.twosided (see bounds).  The identity check runs in
exact integer arithmetic with zero tolerance; floating point never enters
it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

from .riesz import SpectrumQuery, _table
from .spaces import DEFAULT_LEVEL_CAP, Space, level_cap_exceeded, require_int
from .weyl import lclass_volume


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


class PQReport(NamedTuple):
    space: str
    gap_indices: Tuple[int, ...]
    mismatches: Tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def check_pq_identity(space: Space, l_max: int) -> PQReport:
    """Coefficient-wise exact equality P_N = Q_N at every gap index, with

        P_N(z) = Sigma_{j<=N} (z - lambda_j)(z - lambda - (d+4)/d lambda_j),
        Q_N(z) = N (z - lambda_N)(z - lambda_{N+1}),

    and lambda the first positive eigenvalue.  At the gap after level L (N = count[L], lambda_N = lam[L], lambda_{N+1}
    = lam[L+1]) both c2 are N, so the identity is d P_N = d Q_N on the
    other two coefficients, a pair of integer equalities on table rows L
    and L + 1, for L = 0..l_max up to and including the level cap.
    A mismatch is a hard failure; the report carries the indices checked.
    """
    tab = _levels(space, require_int("l_max", l_max, 1))
    d, lam1 = space.dim, space.first_positive_eigenvalue
    gaps = tab.count[:l_max + 1]
    bad = [n for n, s1, s2, lo, hi in zip(gaps, tab.s1, tab.s2, tab.lam,
                                          tab.lam[1:])
           if 2 * (d + 2) * s1 + d * lam1 * n != d * n * (lo + hi)
           or (d + 4) * s2 + d * lam1 * s1 != d * n * lo * hi]
    return PQReport(space.describe(), tuple(gaps), tuple(bad))


def natural_shift(space: Space) -> Fraction:
    """b = d lambda / 4 with lambda the first positive eigenvalue."""
    return Fraction(space.dim * space.first_positive_eigenvalue, 4)


# ---------------------------------------------------------------------------
# Trace identity series


class TraceReport(NamedTuple):
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
    tab = _levels(space, require_int("l_max", l_max, 0))
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
