import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import pytest

from spectral_riesz import sumrules
from spectral_riesz.bounds import verify
from spectral_riesz.riesz import (SpectrumQuery, _tables, prefix_sums,
                                  riesz_mean)
from spectral_riesz.spaces import (DEFAULT_LEVEL_CAP, Family, Space,
                                   eigenvalue, hemisphere_dirichlet,
                                   multiplicity, sphere)
from spectral_riesz.sumrules import (check_pq_identity, natural_shift,
                                     trace_identity_partial)

RP2 = Space(Family.REAL_PROJECTIVE, 2)
RP3 = Space(Family.REAL_PROJECTIVE, 3)
CP4 = Space(Family.COMPLEX_PROJECTIVE, 4)
HP8 = Space(Family.QUATERNION_PROJECTIVE, 8)
CAY = Space(Family.CAYLEY_PLANE, 16)


# ---------------------------------------------------------------------------
# Reference for check_pq_identity: P_N and Q_N as quadratics in z with
# exact coefficients, built from prefix sums and a walk over the levels.


@dataclass(frozen=True)
class QuadPoly:
    """Quadratic c2 z^2 + c1 z + c0 with exact rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction


def pn(space: Space, n: int) -> QuadPoly:
    """P_N(z) = Sigma_{j<=N} (z - lambda_j)(z - lambda - (d+4)/d lambda_j).

    lambda is the first positive eigenvalue of the space (= d on the
    sphere); coefficients come from exact prefix sums.
    """
    sumrules._require_closed(space)
    if n < 1:
        raise ValueError("N must be >= 1")
    d = space.dim
    lam1 = space.first_positive_eigenvalue
    ps = prefix_sums(SpectrumQuery(space), n)
    c1 = -2 * Fraction(d + 2, d) * ps.sum1 - Fraction(lam1 * n)
    c0 = Fraction(d + 4, d) * ps.sum2 + Fraction(lam1 * ps.sum1)
    return QuadPoly(Fraction(n), c1, c0)


def _nth_eigenvalue(space: Space, j: int) -> int:
    """lambda_j (1-based) of the flattened spectrum, by a walk over the
    levels with eigenvalue and multiplicity."""
    l = space.min_level
    n = multiplicity(space, l)
    while n < j:
        l += 1
        n += multiplicity(space, l)
    return eigenvalue(space, l)


def qn(space: Space, n: int) -> QuadPoly:
    """Q_N(z) = N (z - lambda_N)(z - lambda_{N+1})."""
    lam_n, lam_n1 = _nth_eigenvalue(space, n), _nth_eigenvalue(space, n + 1)
    return QuadPoly(Fraction(n), Fraction(-n * (lam_n + lam_n1)),
                    Fraction(n * lam_n * lam_n1))


def test_pn_qn_examples():
    for d in (2, 3, 5):
        p1 = pn(sphere(d), 1)
        assert p1 == QuadPoly(Fraction(1), Fraction(-d), Fraction(0))
        assert qn(sphere(d), 1) == p1
    assert pn(sphere(2), 4) == QuadPoly(Fraction(4), Fraction(-32),
                                        Fraction(48))
    assert qn(sphere(2), 4) == pn(sphere(2), 4)
    assert pn(RP2, 1) == QuadPoly(Fraction(1), Fraction(-6), Fraction(0))


def test_pn_rejects_hemispheres_and_bad_n():
    with pytest.raises(ValueError):
        pn(hemisphere_dirichlet(2), 3)
    with pytest.raises(ValueError):
        pn(sphere(2), 0)


def test_gap_indices_are_cumulative_multiplicities():
    assert check_pq_identity(sphere(2), 3).gap_indices == (1, 4, 9, 16)
    assert check_pq_identity(sphere(3), 2).gap_indices == (1, 5, 14)


@pytest.mark.parametrize("check,dim", [(check_pq_identity, 10),
                                       (trace_identity_partial, 11)])
def test_sum_rules_refuse_levels_past_cap_before_building(check, dim):
    space = Space(Family.REAL_PROJECTIVE, dim)  # a spectrum no other test reads
    key = SpectrumQuery(space).table_key
    rows = len(_tables.get(key, ([],))[0])
    with pytest.raises(ValueError, match="level cap"):
        check(space, DEFAULT_LEVEL_CAP + 500)
    assert len(_tables.get(key, ([],))[0]) == rows


@pytest.mark.parametrize("check", [check_pq_identity, trace_identity_partial])
def test_sum_rules_refuse_a_level_that_is_not_an_int(check):
    lo = 1 if check is check_pq_identity else 0
    with pytest.raises(ValueError,
                       match=rf"l_max must be an integer >= {lo}, got 2\.5"):
        check(sphere(3), 2.5)


def test_sum_rules_reach_the_level_cap():
    rep = trace_identity_partial(sphere(1), DEFAULT_LEVEL_CAP)
    assert abs(rep.partial_sum - rep.target) <= rep.tail_estimate


@pytest.mark.parametrize("space,lmax", [
    (sphere(3), 30), (CAY, 10), (sphere(1), 5),
])
def test_check_pq_identity_examples(space, lmax):
    rep = check_pq_identity(space, lmax)
    assert rep.passed
    assert len(rep.gap_indices) == lmax + 1


def test_check_pq_identity_reaches_the_level_cap():
    rep = check_pq_identity(sphere(1), DEFAULT_LEVEL_CAP)
    assert rep.passed
    assert len(rep.gap_indices) == DEFAULT_LEVEL_CAP + 1


PQ_SPACES = [sphere(1), sphere(2), sphere(3), RP3, CP4, HP8, CAY]


@pytest.mark.parametrize("space", PQ_SPACES, ids=Space.describe)
def test_integer_pq_check_agrees_with_pn_qn(space):
    rep = check_pq_identity(space, 40)
    assert list(rep.gap_indices) == list(
        accumulate(multiplicity(space, l) for l in range(41)))
    for n in rep.gap_indices:
        assert (n not in rep.mismatches) == (pn(space, n) == qn(space, n)), n


def _perturbed_levels(column, row):
    """sumrules._levels with one entry of `column` at `row` raised by 1."""
    levels = sumrules._levels

    def fake(space, l_max):
        tab = sumrules._Levels(*(list(col) for col in levels(space, l_max)))
        getattr(tab, column)[row] += 1
        return tab
    return fake


@pytest.mark.parametrize("space", [sphere(2), CP4, CAY], ids=Space.describe)
@pytest.mark.parametrize("column,row,bad_gaps", [
    ("s2", 0, [0]), ("s2", 7, [7]), ("s2", 12, [12]),
    ("s1", 5, [5]), ("count", 3, [3]),
    ("lam", 0, [0]), ("lam", 6, [5, 6]), ("lam", 13, [12]),
])
def test_integer_pq_check_reports_exactly_the_broken_gaps(
        monkeypatch, space, column, row, bad_gaps):
    gaps = check_pq_identity(space, 12).gap_indices
    monkeypatch.setattr(sumrules, "_levels", _perturbed_levels(column, row))
    rep = check_pq_identity(space, 12)
    want = [gaps[L] + (column == "count" and L == row) for L in bad_gaps]
    assert list(rep.mismatches) == want


def test_pq_identity_fails_for_perturbed_polynomials():
    # Sanity of the checker itself: Q with the wrong gap eigenvalue differs.
    p4 = pn(sphere(2), 4)
    assert p4 != QuadPoly(Fraction(4), Fraction(-32), Fraction(49))


def test_pq_mismatch_detected_on_non_gap_index():
    # N = 2 is not a cumulative multiplicity on S^2 (gaps are 1, 4, 9, ...)
    assert pn(sphere(2), 2) != qn(sphere(2), 2)


def r2_shifted_ratio(space: Space, z, shift) -> float:
    """R_2(z) / (z + b)^(2 + d/2); b = d lambda/4 is the natural shift."""
    if z < 0 or not 0 <= shift < math.inf:  # NaN fails too
        raise ValueError("need z >= 0 and a finite shift >= 0")
    q = SpectrumQuery(space)
    r2 = float(riesz_mean(q, 2, float(z)))
    if z == 0 and shift == 0:
        return 0.0
    return r2 / (float(z) + float(shift)) ** (2 + space.dim / 2.0)


def test_r2_shifted_ratio_examples():
    s2 = sphere(2)
    seq = [r2_shifted_ratio(s2, l * (l + 1), 1) for l in range(1, 30)]
    assert all(a <= b + 1e-15 for a, b in zip(seq, seq[1:]))
    grid = [0.37 * k for k in range(1, 400)]
    dec = [r2_shifted_ratio(s2, z, 0) for z in grid]
    assert all(a >= b - 1e-12 for a, b in zip(dec, dec[1:]))
    assert r2_shifted_ratio(s2, 0, 1) == 0.0


@pytest.mark.parametrize("shift", [math.nan, math.inf, -1])
def test_r2_shifted_ratio_rejects_a_shift_that_is_not_finite_and_positive(
        shift):
    with pytest.raises(ValueError, match="finite shift >= 0"):
        r2_shifted_ratio(sphere(2), 6, shift)


def test_natural_shift():
    assert natural_shift(sphere(3)) == Fraction(9, 4)     # d^2/4
    assert natural_shift(RP3) == Fraction(3 * 8, 4)       # d lambda / 4
    assert natural_shift(CP4) == Fraction(3)


def test_trace_identity_first_term_and_convergence():
    rep0 = trace_identity_partial(sphere(2), 0)
    assert rep0.partial_sum == pytest.approx(4 / 9, rel=1e-15)
    rep = trace_identity_partial(sphere(2), 1000)
    assert abs(rep.partial_sum - 1.0) < 1e-5
    assert rep.within_tail


@pytest.mark.parametrize("space", [sphere(1), sphere(2), sphere(3),
                                   RP3, CP4, HP8])
@pytest.mark.parametrize("lmax", [50, 200, 800])
def test_trace_tail_estimate_is_conservative(space, lmax):
    rep = trace_identity_partial(space, lmax)
    assert abs(rep.partial_sum - rep.target) <= rep.tail_estimate


def test_trace_identity_d1_limit():
    rep = trace_identity_partial(sphere(1), 2000)
    assert rep.target == 2.0
    assert abs(rep.partial_sum - 2.0) < 1e-5


def q_plus_dr1_at_gap_minimum(space: Space, l: int):
    """(Q_N(z0) + d R_1(z0)) / N at z0 = (lambda_N + lambda_{N+1} - lambda)/2.

    Returns the exact value and the predicted (d-2)/(d+2) L(L+d) for the
    sphere gap after level L (lambda = d there).  N and lambda_N, lambda_N+1
    are rows L, L + 1 of the prefix table, so L may reach the level cap.
    """
    d, tab = space.dim, sumrules._levels(space, l)
    n, lam_n, lam_n1 = tab.count[l], tab.lam[l], tab.lam[l + 1]
    z0 = Fraction(lam_n + lam_n1 - space.first_positive_eigenvalue, 2)
    q_n = n * (z0 - lam_n) * (z0 - lam_n1)
    value = (q_n + d * riesz_mean(SpectrumQuery(space), 1, z0)) / n
    predicted = Fraction(d - 2, d + 2) * l * (l + d)
    return value, predicted


def test_gap_minimum_value_matches_prediction():
    for d in (2, 3, 4, 5):
        for l in (1, 2, 5):
            value, predicted = q_plus_dr1_at_gap_minimum(sphere(d), l)
            assert value == predicted
            assert value >= 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gap_minimum_reaches_the_level_cap(d):
    value, predicted = q_plus_dr1_at_gap_minimum(sphere(d), DEFAULT_LEVEL_CAP)
    assert value == predicted
    with pytest.raises(ValueError, match="level cap"):
        q_plus_dr1_at_gap_minimum(sphere(d), DEFAULT_LEVEL_CAP + 1)


def test_legendre_consistency_chain():
    # (d+4)/4 R2(z) <= (z + d^2/4) R1(z) on the sphere.
    for d in (2, 3):
        q = SpectrumQuery(sphere(d))
        for k in range(1, 160):
            z = Fraction(k, 3)
            lhs = Fraction(d + 4, 4) * riesz_mean(q, 2, z)
            rhs = (z + Fraction(d * d, 4)) * riesz_mean(q, 1, z)
            assert lhs <= rhs


def test_biharmonic_corollary():
    # Sigma (z^2 - lambda^2)_+ >= ((2d+4) z - d^2)/(d+4) R1(z)
    for d in (2, 3):
        q1 = SpectrumQuery(sphere(d))
        q2 = SpectrumQuery(sphere(d), power=2)
        for k in range(1, 120):
            z = Fraction(k, 2)
            lhs = riesz_mean(q2, 1, z * z)
            rhs = ((2 * d + 4) * z - d * d) * riesz_mean(q1, 1, z) \
                / Fraction(d + 4)
            assert lhs >= rhs


def test_r2_bounds_check_spaces():
    for space in (sphere(2), RP3, CP4):
        zmax = 40 * (40 + space.dim)
        grid = [zmax * i / 500 for i in range(501)]
        rep = verify("sd.r2.twosided", {"space": space}, grid)
        assert rep.passed, space.describe()
    # z = 0 end: 0 <= 0 <= L (d lambda/4)^(2+d/2)
    rep = verify("sd.r2.twosided", {"space": sphere(2)}, [0.0])
    lower = next(s for s in rep.sides if s.side == "lower")
    assert rep.passed and lower.min_slack == 0.0


def test_r2_bounds_check_rejects_circle_and_hemisphere():
    with pytest.raises(ValueError):
        verify("sd.r2.twosided", {"space": sphere(1)}, [1.0])
    with pytest.raises(ValueError):
        verify("sd.r2.twosided", {"space": hemisphere_dirichlet(2)}, [1.0])
