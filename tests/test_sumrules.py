import math
from fractions import Fraction

import pytest

from spectral_riesz import sumrules
from spectral_riesz.bounds import verify
from spectral_riesz.riesz import SpectrumQuery, _Table, _tables, riesz_mean
from spectral_riesz.spaces import (DEFAULT_LEVEL_CAP, Family, Space,
                                   hemisphere_dirichlet, sphere)
from spectral_riesz.sumrules import (QuadPoly, check_pq_identity, gap_indices,
                                     natural_shift, pn, q_plus_dr1_at_gap_minimum,
                                     qn, r2_shifted_ratio,
                                     trace_identity_partial)

RP2 = Space(Family.REAL_PROJECTIVE, 2)
RP3 = Space(Family.REAL_PROJECTIVE, 3)
CP4 = Space(Family.COMPLEX_PROJECTIVE, 4)
HP8 = Space(Family.QUATERNION_PROJECTIVE, 8)
CAY = Space(Family.CAYLEY_PLANE, 16)


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
    assert gap_indices(sphere(2), 3) == [1, 4, 9, 16]
    assert gap_indices(sphere(3), 2) == [1, 5, 14]


@pytest.mark.parametrize("check,dim", [(gap_indices, 9),
                                       (check_pq_identity, 10),
                                       (trace_identity_partial, 11)])
def test_sum_rules_refuse_levels_past_cap_before_building(check, dim):
    space = Space(Family.REAL_PROJECTIVE, dim)  # a spectrum no other test reads
    rows = len(_tables.get(SpectrumQuery(space), ([],))[0])
    with pytest.raises(ValueError, match="level cap"):
        check(space, DEFAULT_LEVEL_CAP + 500)
    assert len(_tables.get(SpectrumQuery(space), ([],))[0]) == rows


def test_sum_rules_reach_the_level_cap():
    space = sphere(1)
    assert len(gap_indices(space, DEFAULT_LEVEL_CAP)) == DEFAULT_LEVEL_CAP + 1
    rep = trace_identity_partial(space, DEFAULT_LEVEL_CAP)
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
    assert list(rep.gap_indices) == gap_indices(space, 40)
    for n in rep.gap_indices:
        assert (n not in rep.mismatches) == (pn(space, n) == qn(space, n)), n


def _perturbed_levels(column, row):
    """sumrules._levels with one entry of `column` at `row` raised by 1."""
    levels = sumrules._levels

    def fake(space, l_max):
        tab = _Table(*(list(col) for col in levels(space, l_max)))
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
    gaps = gap_indices(space, 12)
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
