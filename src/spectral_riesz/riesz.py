"""Counting functions and Riesz-means, exact and floating.

One expression per formula; the argument type carries exactness.  With
int/Fraction arguments every result is an exact rational (the oracle of
record); with float arguments the same expression runs in plain binary64
and is tested to stay within 1e-12 relative of the rational path.  A
Fraction z = a / b runs the same formula on the integers a and b and
divides once, so each exact R_1 or R_2 builds a single Fraction.  A float
R_1 or R_2 whose formula leaves float range on the way is the exact value
rounded once, and past float range one ValueError naming z.

Every quantity is read off one exact prefix table per spectrum (`_table`,
one row per level with named columns count, s1, s2; found by the query's
plain `table_key`) in one of two exact ways.  By value, for N, R_1, R_2
and the level inversion: the row count is the closed-form integer level
inversion of floor(z) (`spaces._level_inversion`), with no search;
level values are ints, so lambda^p <= z iff lambda^p <= floor(z), and no
float ever seeds a lookup.  By count,
`bisect_left` on count, for the prefix sums and averages over the first
k eigenvalues (k an int).

The per-grid sweep `evaluate_grid` grows the table once, at the largest
point.  A sorted all-float grid is then cut into runs of points that
share a row: one `bisect_left` of the grid per level value, exact because
CPython compares a float with an int exactly.  Each row's count and sums
are spread over its run and combined in C.  Unsorted, int, Fraction and
mixed grids take the lookup by value per point.  `eigenvalue_sums` gives
Sigma lambda_j for a list of k as ints, so a float average is one
correctly rounded int division.

Each table is plain single-threaded state: one growth rule (`_table`)
extends its columns in place by doubling, up to level
DEFAULT_LEVEL_CAP + 1.  It builds them in columns, not row by row.  The
columns count, s1 and s2 at power p are the running sums S_0, S_p and
S_2p of m lambda^j over the levels, and the powers of one space and
variant have moments in common: count at every p is S_0, and s2 at p is
s1 at 2p.  So each S_j is built once, by running sums in C, and the tables
that hold it later copy references to its int objects (`_moments`); a
table never grows another's columns, so each query keeps its own depth.
The tables hold nothing else.  Level values lambda^p come from the
closed form s lambda = a l^2 + b l, built in C for just the rows a caller
reads (`_level_values`).  The multiplicities of a growth step are the
differences of a space's S_0 column where it holds those levels
(`_multiplicities`), and past them one `spaces.level_columns` run: the
formula at d levels and one check per long run, the rest by the method
of differences.  Where S_0 and S_p are both held (a p = 2 table after
the p = 1 one), the terms m lambda^p are the differences of S_p, and no
multiplicity is needed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import add, ge, le, mul, sub
from typing import List, NamedTuple, Optional, Sequence

from .spaces import (DEFAULT_LEVEL_CAP, FLOAT_MAX, Family, Real, Space,
                     _eigenvalue_at, _level_inversion, level_cap_exceeded,
                     level_columns, level_values, max_level_index,
                     require_int, require_real, sphere, hemisphere_dirichlet)


class Variant(Enum):
    STANDARD = "standard"
    BUCKLING = "buckling"


class SpectrumQuery:
    """Spectrum selector: space, operator power p for (-Delta)^p, variant.

    The buckling spectrum exists on the whole sphere only and equals the
    Laplacian spectrum with the l = 0 level removed.  Construction keeps
    min_level, the key of the query's prefix table and the constants of
    its level inversion (p, a, b, s), in plain ints and strs: a lookup
    hashes no record or Enum, and a pickled query keeps its table.  They
    are slots, not tuple fields, because every exact lookup reads them: a
    slot read is specialised by the interpreter, a NamedTuple field read
    is a descriptor call.  Queries compare and hash by their table key,
    which determines space, power and variant.
    """

    __slots__ = ("space", "power", "variant", "min_level", "table_key",
                 "inversion")

    def __init__(self, space: Space, power: int = 1,
                 variant: Variant = Variant.STANDARD):
        require_int("power", power, 1)
        if variant is Variant.BUCKLING and space.family is not Family.SPHERE:
            raise ValueError("buckling spectrum is only defined on spheres")
        self.space, self.power, self.variant = space, power, variant
        self.min_level = (1 if variant is Variant.BUCKLING
                          else space.min_level)
        self.table_key = (space.family.value, space.dim, power, variant.value)
        self.inversion = (power, *space.record.quadratic(space.dim))

    def __eq__(self, other):
        return (type(other) is SpectrumQuery
                and self.table_key == other.table_key)

    def __hash__(self):
        return hash(self.table_key)

    def __repr__(self):
        return (f"SpectrumQuery(space={self.space!r}, power={self.power!r}, "
                f"variant={self.variant!r})")

    def level_value(self, l: int) -> int:
        """Exact eigenvalue lambda_(l)^p of level l for this query, from
        `inversion`: the checks and the int of `eigenvalue(space, l) ** p`
        (levels below a buckling query's min_level included)."""
        p, a, b, s = self.inversion
        return _eigenvalue_at(a, b, s, l, 0 if self.variant is
                              Variant.BUCKLING else self.min_level) ** p


class PrefixSums(NamedTuple):
    """Exact prefix sums over the first k eigenvalues (multiplicities expanded)."""

    k: int
    sum1: int  # sum of lambda_j
    sum2: int  # sum of lambda_j^2


class _Table(NamedTuple):
    """Per-query prefix table, one row per level from min_level on.

    count, s1, s2: the running sums S_0, S_p and S_2p, with S_j the sum of
    m lambda^j over the levels so far (m the multiplicity).  The int
    objects of a running sum are shared with every table of the same space
    and variant that holds the same S_j.  Level values are not stored:
    `_level_values` rebuilds those a caller reads from the closed form.
    """

    count: List[int]
    s1: List[int]
    s2: List[int]


_tables: dict = {}
#: (family, dim, variant, j) -> the longest table column that holds the
#: running sum S_j of that space and variant (count is S_0 at every power,
#: and s2 at power p is s1 at power 2p).
_moments: dict = {}


def _level_values(q: SpectrumQuery, start: int, stop: int):
    """lambda_(l)^p of levels start..stop-1, an iterator built in C from the
    closed form s lambda = a l^2 + b l (`q.inversion`)."""
    p, a, b, s = q.inversion
    lam = level_values(a, b, s, start, stop)
    return lam if p == 1 else map(pow, lam, repeat(p))


def _multiplicities(space: Space, start: int, stop: int) -> List[int]:
    """m of levels start..stop-1: differences of the deepest S_0 column of
    space (`_moments`, either variant) over the levels it holds, and
    `level_columns` past them, so no level's formula is evaluated twice
    per space."""
    family, dim = space.family.value, space.dim
    s0 = lambda variant: _moments.get((family, dim, variant, 0), ())
    base, col = max((space.min_level, s0("standard")), (1, s0("buckling")),
                    key=lambda c: c[0] + len(c[1]))  # the deepest level held
    lo, hi = max(start, base), min(stop, base + len(col))
    if lo >= hi:
        return level_columns(space, start, stop)[1]
    return (level_columns(space, start, lo)[1]
            + _differences(col, lo - base, hi - base)
            + level_columns(space, hi, stop)[1])


def _differences(col: List[int], lo: int, hi: int) -> List[int]:
    """Rows lo..hi-1 of the terms whose running sum is col (0 before
    row 0)."""
    sums = col[lo - 1:hi] if lo else [0, *col[:hi]]
    return list(map(sub, sums[1:], sums))


def _table(q: SpectrumQuery, rows: int, k: int = 0) -> _Table:
    """The prefix table of q, grown to `rows` rows or more and until its
    last count reaches k.

    Row i is level min_level + i.  The columns grow in place, doubling the
    row count, and growth stops at level DEFAULT_LEVEL_CAP + 1, so a lookup
    past the cap finds its answer in the last row and raises, without
    building further.  Each step appends a run of levels at once: for each
    of count, s1 and s2 (the running sums S_0, S_p and S_2p) the same rows
    of the `_moments` column of that S_j when it holds them, else its own
    running sum of m, m lam or m lam^2, with lam from `_level_values` and
    m from `_multiplicities`; where `_moments` holds S_0 and S_p over the
    run (a p = 2 table after the p = 1 one), m lam is the differences of
    S_p instead, and m is not needed.  A table only reads other tables'
    columns, and registers its own once built.
    """
    tab = _tables.get(q.table_key) or _Table([], [], [])
    family, dim, p, variant = q.table_key
    sums = [((family, dim, variant, j), col)
            for j, col in zip((0, p, 2 * p), tab)]
    count = tab.count
    top = DEFAULT_LEVEL_CAP + 1
    while ((len(count) < rows or count[-1] < k)
           and q.min_level + len(count) <= top):
        start = q.min_level + len(count)
        stop = min(q.min_level + max(2 * len(count), 16), top + 1)
        lam = list(_level_values(q, start, stop))
        lo, hi = start - q.min_level, stop - q.min_level
        s0, sp = (_moments.get(key, ()) for key, _ in sums[:2])
        if len(s0) >= hi and len(sp) >= hi:
            m, m_lam = (), _differences(sp, lo, hi)
        else:
            m = _multiplicities(q.space, start, stop)
            m_lam = list(map(mul, m, lam))
        for (key, sums_j), terms in zip(sums, (m, m_lam,
                                              map(mul, m_lam, lam))):
            shared = _moments.get(key, ())
            if len(shared) >= hi:
                sums_j += shared[len(sums_j):hi]
            else:
                # Carry on from the column's last entry: pop hands it to
                # accumulate, whose first output puts it back (an empty
                # column has none, and initial=None starts at the first
                # term).
                sums_j += accumulate(terms, initial=sums_j.pop()
                                     if sums_j else None)
    for key, sums_j in sums:
        if len(_moments.get(key, ())) < len(sums_j):
            _moments[key] = sums_j
    _tables[q.table_key] = tab  # held once its first run of levels is built
    return tab


def _rows_upto(q: SpectrumQuery, z: Real):
    """(table, i, a, b): rows 0..i-1 are the levels with lambda^p <= z,
    and z = a / b.

    Lookup by value: the closed-form level inversion of floor(z), no
    search; the table is grown past row i.  A Fraction
    z is split once, by as_integer_ratio, for its floor and for the value
    formula of `_value_at`; any other z is (z, 1).
    """
    if type(z) is not Fraction:
        a, b, key = z, 1, math.floor(require_real("z", z))
    else:
        a, b = z.as_integer_ratio()
        key = a // b if a >= 0 else require_real("z", z)
    i = _level_inversion(z, key, *q.inversion) - q.min_level + 1
    tab = _tables.get(q.table_key)
    if tab is None or len(tab.count) <= i:
        tab = _table(q, i + 1)
    return tab, i, a, b


def _row_of(q: SpectrumQuery, k: int):
    """(table, i): row i is the level holding the k-th eigenvalue.

    Lookup by count: an exact bisect of the count column.  k is an int:
    an average over 2.5 eigenvalues is no average.
    """
    require_int("k", k, 1)
    tab = _tables.get(q.table_key)
    if tab is None or tab.count[-1] < k:
        tab = _table(q, 1, k)
    i = bisect_left(tab.count, k)
    if q.min_level + i > DEFAULT_LEVEL_CAP:
        raise level_cap_exceeded("k", k)
    return tab, i


def _value_at(gamma: int, z: Real, tab: _Table, i: int, a: Real, b: int):
    """N (gamma 0), R_1 or R_2 at z = a / b, from rows 0..i-1: the levels
    <= z (the arguments after z are those `_rows_upto` returns)."""
    if i:
        n, s1, s2 = tab.count[i - 1], tab.s1[i - 1], tab.s2[i - 1]
    else:
        n = s1 = s2 = 0
    if gamma == 0:
        return n
    if type(z) is Fraction:  # the same formula on a / b, one division
        if gamma == 1:
            return Fraction(n * a - s1 * b, b)
        return Fraction((n * a - 2 * s1 * b) * a + s2 * b * b, b * b)
    try:
        value = n * z - s1 if gamma == 1 else (n * z - 2 * s1) * z + s2
        if value - value == 0:  # finite, as the value at an int z always is
            return value
    except OverflowError:  # an int past float range
        pass
    return _rounded_exact(gamma, z, n, s1, s2)


def _rounded_exact(gamma: int, z: float, n: int, s1: int, s2: int) -> float:
    """R_gamma at a float z whose float formula leaves float range on the
    way: the exact value, rounded once, or past float range the one error
    naming z."""
    a, b = z.as_integer_ratio()
    num = (n * a - s1 * b if gamma == 1
           else (n * a - 2 * s1 * b) * a + s2 * b * b)
    try:
        return num / b ** gamma  # an int division rounds correctly
    except OverflowError:
        raise ValueError(f"R{gamma} at z={z!r} is beyond float "
                         "range") from None


def _grown_table(q: SpectrumQuery, lookup, lowest: int, grid: Sequence):
    """The lookup's (table, i, ...) at the largest point of grid, after the
    checks that every point's own lookup makes.

    One per-point lookup, at the largest point, grows and cap-checks the
    table; then only NaN and points below `lowest` can fail.  If any point
    fails, the first bad point in grid order raises its own error.
    """
    try:
        found = lookup(q, max(grid, default=1))
        ok = all(map(ge, grid, repeat(lowest)))  # NaN fails too
    except ValueError:
        ok = False
    if not ok:
        for x in grid:
            lookup(q, x)
    return found


def eigenvalue_sums(q: SpectrumQuery, ks: Sequence[int]) -> List[int]:
    """Exact Sigma_{j<=k} lambda_j for each k of ks, from one table sweep.

    Each equals prefix_sums(q, k).sum1, and raises as it would.
    """
    if {*map(type, ks)} - {int}:  # the first k that is not an int raises
        for k in ks:
            _row_of(q, k)
    tab = _grown_table(q, _row_of, 1, ks)[0]
    count, s1 = tab.count, tab.s1
    rows = list(map(bisect_left, repeat(count), ks))
    lam = list(_level_values(q, q.min_level,
                             q.min_level + max(rows, default=-1) + 1))
    # Row i sums its whole level; take back the eigenvalues past the k-th.
    return [s1[i] - (count[i] - k) * lam[i] for k, i in zip(ks, rows)]


def _float_runs(q: SpectrumQuery, tab: _Table, top: int, gamma: int,
                grid: List[float], below: int):
    """(values, gap_levels) of a sorted, checked float grid whose largest
    point lies in row `top`, built run by run.

    Row r holds the points z with exactly r level values <= z, those in
    [lam[r-1], lam[r]): one contiguous run, cut by one bisect per level (a
    float compares with an int exactly).  Each row's n, s1 and s2 are
    spread over its run and combined in the order of `_value_at`, so every
    value is that of the per-point lookup bit for bit, where that lookup
    stays in float range throughout.
    """
    cuts = list(map(bisect_left, repeat(grid),
                    _level_values(q, q.min_level, q.min_level + top)))
    runs = list(map(sub, cuts + [len(grid)], [0] + cuts))

    def spread(col):  # row r's entry, once per point of its run
        return chain.from_iterable(map(repeat, col, runs))

    n = spread([0, *tab.count[:top]])
    gaps = list(spread(range(below, below + top + 1)))
    if gamma == 0:
        return list(n), gaps
    if gamma == 1:
        return list(map(sub, map(mul, n, grid),
                        spread([0, *tab.s1[:top]]))), gaps
    lin = map(sub, map(mul, n, grid),
              spread([0, *map(mul, repeat(2), tab.s1[:top])]))
    return list(map(add, map(mul, lin, grid),
                    spread([0, *tab.s2[:top]]))), gaps


def evaluate_grid(q: SpectrumQuery, quantity: str, grid: Sequence):
    """(values, gap_levels) of N, R1, R2 or average over a grid, in one sweep.

    values equal counting / riesz_mean / eigenvalue_average point by point,
    type included, for grids in any order and with duplicates.
    gap_levels[i] is the largest level l with lambda_(l)^p <= float(grid[i]),
    min_level - 1 below the first level; None for average (points are k).
    One lookup at the largest point grows the table (`_grown_table`).  A
    sorted all-float grid is then read in runs of points that share a table
    row (`_float_runs`); unsorted, int, Fraction and mixed grids take the
    per-point lookup of x for the value and of float(x) for the gap level,
    as does a float grid whose run formula leaves float range.
    """
    if quantity == "average":
        return list(map(Fraction, eigenvalue_sums(q, grid), grid)), None
    if quantity not in ("N", "R1", "R2"):
        raise ValueError(f"quantity must be N, R1, R2 or average, "
                         f"got {quantity!r}")
    tab, top = _grown_table(q, _rows_upto, 0, grid)[:2]
    gamma, below = ("N", "R1", "R2").index(quantity), q.min_level - 1
    if {*map(type, grid)} == {float} and all(
            map(le, grid, islice(grid, 1, None))):
        # Every float the formula forms is at most 2 n max(z, 1)^gamma,
        # with n and z the largest: below float range, all are finite.
        z = max(grid[-1], 1.0)
        if not gamma or (tab.count[top - 1] if top else 0) < (
                FLOAT_MAX / 4 / (z if gamma == 1 else z * z)):
            return _float_runs(q, tab, top, gamma, grid, below)
    return ([_value_at(gamma, x, *_rows_upto(q, x)) for x in grid],
            [below + _rows_upto(q, float(x))[1] for x in grid])


def max_level_index_pow(q: SpectrumQuery, z: Real) -> Optional[int]:
    """Largest l with lambda_(l)^p <= z (exact comparisons), or None."""
    i = _rows_upto(q, z)[1]
    return q.min_level + i - 1 if i else None


def level_values_upto(q: SpectrumQuery, z: Real) -> List[int]:
    """The level values lambda_(l)^p <= z in level order (exact ints), read
    off the prefix table; raises past the cap like the other lookups."""
    i = _rows_upto(q, z)[1]
    return list(_level_values(q, q.min_level, q.min_level + i))


def counting(q: SpectrumQuery, z: Real) -> int:
    """N(z): number of eigenvalues lambda_j^p <= z, inclusive at equality."""
    tab, i, _, _ = _rows_upto(q, z)
    return tab.count[i - 1] if i else 0


def riesz_mean(q: SpectrumQuery, gamma: int, z: Real):
    """R_gamma(z) = sum_j (z - lambda_j^p)_+^gamma for gamma in {1, 2}.

    Exact (int or Fraction, as z) for int/Fraction z, binary64 for float z.
    """
    if type(gamma) is not int or gamma not in (1, 2):
        raise ValueError(f"riesz_mean covers the integers gamma in {{1, 2}}; "
                         f"use counting for 0, got {gamma!r}")
    return _value_at(gamma, z, *_rows_upto(q, z))


def prefix_sums(q: SpectrumQuery, k: int) -> PrefixSums:
    """Exact Sigma lambda_j and Sigma lambda_j^2 over the first k eigenvalues."""
    tab, i = _row_of(q, k)
    # Row i sums its whole level; take back the eigenvalues past the k-th.
    extra = tab.count[i] - k
    lam, = _level_values(q, q.min_level + i, q.min_level + i + 1)
    return PrefixSums(k, tab.s1[i] - extra * lam,
                      tab.s2[i] - extra * lam * lam)


def eigenvalue_average(q: SpectrumQuery, k: int) -> Fraction:
    """(1/k) Sigma_{j<=k} lambda_j, exact."""
    return Fraction(prefix_sums(q, k).sum1, k)


# ---------------------------------------------------------------------------
# Closed forms (Gamma ratios as exact integer binomial products)

def counting_closed_hemisphere_dirichlet(d: int, L: Optional[int]) -> int:
    """N^D at floor(w)=L on the Dirichlet hemisphere: C(L+d-1, d)."""
    if L is None or L < 1:
        return 0
    return math.comb(L + d - 1, d)


def counting_closed_hemisphere_neumann(d: int, L: int) -> int:
    """N^N at floor(w)=L on the Neumann hemisphere: C(L+d, d)."""
    return math.comb(L + d, d)


def counting_closed_sphere(d: int, L: int) -> int:
    """N at floor(w)=L on the closed sphere: (2L+d)/d * C(L+d-1, d-1)."""
    return (2 * L + d) * math.comb(L + d - 1, d - 1) // d


def riesz1_closed_sphere(d: int, z: Real):
    """Closed form for R_1 on the d-sphere.

    (2L+d) Gamma(L+d) / ((d+2) Gamma(L+1) Gamma(d+1)) * (-dL(L+d) + (d+2)z)
    with L the largest level index below z; the Gamma ratio is evaluated as
    an integer product.  Exact rational for rational z.
    """
    space = sphere(d)
    L = max_level_index(space, z)
    gamma_ratio = math.prod(range(L + 1, L + d))  # Gamma(L+d)/Gamma(L+1)
    pre = Fraction((2 * L + d) * gamma_ratio,
                   (d + 2) * math.factorial(d))
    return pre * (-d * L * (L + d) + (d + 2) * z)


def closed_form(space: Space, quantity: str, z: Real):
    """N on spheres and hemispheres or R_1 on spheres at z, from the closed
    forms above; None for every other space and quantity."""
    if quantity == "R1" and space.family is Family.SPHERE:
        return riesz1_closed_sphere(space.dim, z)
    counting_closed = {
        Family.SPHERE: counting_closed_sphere,
        Family.HEMISPHERE_DIRICHLET: counting_closed_hemisphere_dirichlet,
        Family.HEMISPHERE_NEUMANN: counting_closed_hemisphere_neumann,
    }.get(space.family)
    if quantity != "N" or counting_closed is None:
        return None
    return counting_closed(space.dim, max_level_index(space, z))


def lemma_sum(p: int, z: Real):
    """Sigma_{l>=1} (2l+1) (z - l^p (l+1)^p)_+  (the S^2 sum without l=0).

    Identical to the first Riesz-mean of the buckling spectrum on S^2
    raised to the power p.
    """
    q = SpectrumQuery(sphere(2), power=p, variant=Variant.BUCKLING)
    return riesz_mean(q, 1, z)


# ---------------------------------------------------------------------------
# Integral transforms for polyharmonic Riesz means (exact piecewise form)

def _pieces(q: SpectrumQuery, z: Real):
    """(N, S1, lo, hi) for each piece [lo, hi) from one level to the next,
    the last one ending at z; on it N(u) = N and R_1(u) = N u - S1.
    Rows 0..i-1 are the levels <= z, so every other piece ends at a level.
    """
    tab, i, _, _ = _rows_upto(q, z)
    if not i:
        return []
    k = i - 1
    lam = list(_level_values(q, q.min_level, q.min_level + i))
    return [*zip(tab.count[:k], tab.s1[:k], lam[:k], lam[1:i]),
            (tab.count[k], tab.s1[k], lam[k], z)]


def _integral_power_times_r1(q: SpectrumQuery, z, p: int):
    """integral_0^z u^(p-2) R_1(u) du, exactly on the piecewise-linear pieces.

    The antiderivative of u^(p-2) (N u - S) is N u^p / p - S u^(p-1) / (p-1).
    Every piece but the last ends at a level, so both sums stay in
    integers until the last piece, and each is divided once.
    """
    pieces = _pieces(q, z)
    a = sum(n * (hi ** p - lo ** p) for n, _, lo, hi in pieces)
    b = sum(s1 * (hi ** (p - 1) - lo ** (p - 1)) for _, s1, lo, hi in pieces)
    return Fraction(a, p) - Fraction(b, p - 1)


def _integral_power_times_counting(q: SpectrumQuery, z, p: int):
    """integral_0^z u^(p-1) N(u) du = (1/p) Sigma_l N_l (b_{l+1}^p - b_l^p)."""
    return Fraction(sum(n * (hi ** p - lo ** p)
                        for n, _, lo, hi in _pieces(q, z)), p)


def poly_transform_check(d: int, p: int, z: Real):
    """Residual of the two polyharmonic integral-transform identities.

    Identity 1 (whole sphere spectrum):
        Sigma (z^p - lambda_j^p)_+ =
            -p(p-1) * integral_0^z u^(p-2) R_1(u) du + p z^(p-1) R_1(z)
    Identity 2 (Dirichlet hemisphere spectrum):
        Sigma (z^p - lambda_j^p)_+ = p * integral_0^z u^(p-1) N^D(u) du

    Both integrals are evaluated exactly by breakpoint decomposition, in
    integers over the pieces between levels and one division at the end,
    so for rational z the residual is exactly zero.  Returns the max
    absolute residual of the two identities.
    """
    require_int("p", p, 2)
    zq = Fraction(require_real("z", z))  # exact for float z too
    residuals = []

    q1 = SpectrumQuery(sphere(d), power=1)
    qp = SpectrumQuery(sphere(d), power=p)
    lhs1 = riesz_mean(qp, 1, zq ** p)
    integ = _integral_power_times_r1(q1, zq, p)
    rhs1 = -p * (p - 1) * integ + p * zq ** (p - 1) * riesz_mean(q1, 1, zq)
    residuals.append(abs(lhs1 - rhs1))

    h1 = SpectrumQuery(hemisphere_dirichlet(d), power=1)
    hp = SpectrumQuery(hemisphere_dirichlet(d), power=p)
    lhs2 = riesz_mean(hp, 1, zq ** p)
    rhs2 = p * _integral_power_times_counting(h1, zq, p)
    residuals.append(abs(lhs2 - rhs2))

    worst = max(residuals)
    return worst if not isinstance(z, float) else float(worst)
