import bisect
import functools
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectral_riesz import riesz, spaces
from spectral_riesz.riesz import (SpectrumQuery, Variant, _table,
                                  _integral_power_times_counting,
                                  _integral_power_times_r1, closed_form,
                                  counting,
                                  counting_closed_hemisphere_dirichlet,
                                  counting_closed_hemisphere_neumann,
                                  counting_closed_sphere, eigenvalue_average,
                                  eigenvalue_sums,
                                  evaluate_grid, lemma_sum,
                                  level_values_upto, max_level_index_pow,
                                  poly_transform_check,
                                  prefix_sums, riesz1_closed_sphere,
                                  riesz_mean)
from spectral_riesz.spaces import (DEFAULT_LEVEL_CAP, Family, Space,
                                   eigenvalue, hemisphere_dirichlet,
                                   hemisphere_neumann, max_level_index,
                                   multiplicity, parse_space, sphere)

S2 = SpectrumQuery(sphere(2))
S3 = SpectrumQuery(sphere(3))

rational_z = st.fractions(min_value=0, max_value=2000)


def test_counting_examples():
    assert counting(S2, 6) == 9
    assert counting(SpectrumQuery(hemisphere_dirichlet(2)), 2) == 1
    with pytest.raises(ValueError):
        counting(S2, -1)
    assert counting(SpectrumQuery(hemisphere_neumann(2)), 2) == 3


def test_counting_polya_equality_on_hemisphere():
    # N^D(2) = 1 equals the Polya bound z/2 at z = 2.
    assert counting(SpectrumQuery(hemisphere_dirichlet(2)), 2) == Fraction(2, 2)


def test_riesz_mean_examples():
    assert riesz_mean(S2, 1, 2) == 2            # equals z^2/2 at a level
    assert riesz_mean(S3, 1, 3) == 3
    assert riesz_mean(SpectrumQuery(sphere(1)), 1, 1) == 1
    assert riesz_mean(SpectrumQuery(sphere(2), power=4), 1, 81) == 276
    assert riesz_mean(SpectrumQuery(sphere(2), power=4), 1, 81) - 81 == 195


def test_riesz_mean_gamma_two():
    assert riesz_mean(S3, 2, 3) == 9
    # exact rational path
    z = Fraction(7, 2)
    r2 = riesz_mean(S2, 2, z)
    assert r2 == (z - 0) ** 2 + 3 * (z - 2) ** 2


@pytest.mark.parametrize("gamma", [1.0, True, 2.0, 0, 3])
def test_riesz_mean_refuses_a_gamma_that_is_not_the_int_1_or_2(gamma):
    with pytest.raises(ValueError, match="riesz_mean covers"):
        riesz_mean(S2, gamma, 5)


def test_riesz1_closed_sphere_examples():
    assert riesz1_closed_sphere(2, 3.75) == 9
    assert riesz1_closed_sphere(3, 3) == 3
    assert riesz1_closed_sphere(2, 0) == 0


@given(st.integers(1, 8), rational_z)
@settings(max_examples=200, deadline=None)
def test_sphere_closed_form_matches_brute_force_exactly(d, z):
    q = SpectrumQuery(sphere(d))
    assert riesz1_closed_sphere(d, z) == riesz_mean(q, 1, z)


@given(st.integers(2, 8), rational_z)
@settings(max_examples=200, deadline=None)
def test_hemisphere_counting_closed_forms(d, z):
    qd = SpectrumQuery(hemisphere_dirichlet(d))
    qn = SpectrumQuery(hemisphere_neumann(d))
    ld = max_level_index(hemisphere_dirichlet(d), z)
    ln = max_level_index(hemisphere_neumann(d), z)
    assert counting(qd, z) == counting_closed_hemisphere_dirichlet(d, ld)
    assert counting(qn, z) == counting_closed_hemisphere_neumann(d, ln)
    assert counting(SpectrumQuery(sphere(d)), z) \
        == counting_closed_sphere(d, ln)


@pytest.mark.parametrize("quantity", ["N", "R1", "R2"])
@pytest.mark.parametrize("space", [
    sphere(3), hemisphere_dirichlet(3), hemisphere_neumann(4),
    Space(Family.REAL_PROJECTIVE, 3), Space(Family.COMPLEX_PROJECTIVE, 4),
    Space(Family.QUATERNION_PROJECTIVE, 8), Space(Family.CAYLEY_PLANE, 16)],
    ids=lambda s: s.describe())
def test_closed_form_covers_n_on_spheres_and_hemispheres_r1_on_spheres(
        space, quantity):
    has_form = (space.family is Family.SPHERE and quantity != "R2"
                or space.family in (Family.HEMISPHERE_DIRICHLET,
                                    Family.HEMISPHERE_NEUMANN)
                and quantity == "N")
    q = SpectrumQuery(space)
    for z in (0, 1, Fraction(7, 2), 30, Fraction(1001, 3), 12.25):
        got = closed_form(space, quantity, z)
        if not has_form:
            assert got is None
        elif quantity == "N":
            assert got == counting(q, z)
        elif isinstance(z, float):
            assert got == pytest.approx(riesz_mean(q, 1, z), rel=1e-12)
        else:
            assert got == riesz_mean(q, 1, z)


@given(st.integers(1, 6), rational_z)
@settings(max_examples=150, deadline=None)
def test_float_path_within_1e12_of_rational(d, z):
    q = SpectrumQuery(sphere(d))
    exact = riesz_mean(q, 1, z)
    if exact == 0:
        return
    approx = riesz_mean(q, 1, float(z))
    assert abs(approx / float(exact) - 1) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_hemisphere_counting_identities(d):
    # N^N(w(w+d-1)) = (floor(w)+d)/floor(w) N^D(same) and
    # N^N(w(w+d-1)) = N^D((w+1)(w+d)) for integer and non-integer w.
    qd = SpectrumQuery(hemisphere_dirichlet(d))
    qn = SpectrumQuery(hemisphere_neumann(d))
    for w in [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(17, 5),
              Fraction(7), Fraction(29, 4), Fraction(12)]:
        z = w * (w + d - 1)
        nn = counting(qn, z)
        nd = counting(qd, z)
        fl = math.floor(w)
        assert nn * fl == (fl + d) * nd
        assert nn == counting(qd, (w + 1) * (w + d))


@given(rational_z, rational_z)
@settings(max_examples=100, deadline=None)
def test_monotone_in_z(z1, z2):
    lo, hi = min(z1, z2), max(z1, z2)
    assert counting(S2, lo) <= counting(S2, hi)
    assert riesz_mean(S2, 1, lo) <= riesz_mean(S2, 1, hi)
    assert riesz_mean(S2, 2, lo) <= riesz_mean(S2, 2, hi)


@given(rational_z, rational_z)
@settings(max_examples=100, deadline=None)
def test_r1_midpoint_convexity(z1, z2):
    mid = (z1 + z2) / 2
    assert riesz_mean(S2, 1, mid) * 2 <= riesz_mean(S2, 1, z1) \
        + riesz_mean(S2, 1, z2)


def test_r2_is_c1_at_breakpoints():
    # One-sided difference quotients of R_2 agree at the energy levels
    # (d/dz R_2 = 2 R_1 is continuous); exact rational arithmetic.
    h = Fraction(1, 10 ** 10)
    for l in range(1, 12):
        lam = l * (l + 1)
        left = (riesz_mean(S2, 2, lam) - riesz_mean(S2, 2, lam - h)) / h
        right = (riesz_mean(S2, 2, lam + h) - riesz_mean(S2, 2, lam)) / h
        assert abs(float(right - left) / float(left)) <= 1e-9


def test_r2_derivative_is_twice_r1():
    # Central difference inside one linearity interval is exact.
    h = Fraction(1, 100)
    for z in [Fraction(5), Fraction(25, 2), Fraction(33)]:
        central = (riesz_mean(S2, 2, z + h) - riesz_mean(S2, 2, z - h)) / (2 * h)
        assert central == 2 * riesz_mean(S2, 1, z)


def test_buckling_spectrum_drops_only_the_zero_mode():
    qb = SpectrumQuery(sphere(2), variant=Variant.BUCKLING)
    for z in [0, Fraction(1, 2), 2, 5, 30, 200]:
        assert counting(qb, z) == counting(S2, z) - 1
    with pytest.raises(ValueError):
        SpectrumQuery(hemisphere_dirichlet(2), variant=Variant.BUCKLING)


def test_lemma_sum_examples():
    assert lemma_sum(1, 2) == 0
    assert lemma_sum(1, 6) == 12
    assert lemma_sum(4, 81) == 195


def test_lemma_sum_is_buckling_riesz_mean():
    for p in (1, 2, 3, 5):
        q = SpectrumQuery(sphere(2), power=p, variant=Variant.BUCKLING)
        for z in (Fraction(11, 2), 40, 1000):
            assert lemma_sum(p, z) == riesz_mean(q, 1, z)


def test_eigenvalue_average_examples():
    assert eigenvalue_average(S2, 1) == 0
    assert eigenvalue_average(S2, 4) == Fraction(6, 4)
    assert eigenvalue_average(S3, 5) == Fraction(12, 5)
    with pytest.raises(ValueError):
        eigenvalue_average(S2, 0)


@pytest.mark.parametrize("k", [2.5, 3.0, Fraction(5, 2), Fraction(3)],
                         ids=["float-2.5", "float-3.0", "fraction-5/2",
                              "fraction-3"])
def test_averages_refuse_a_k_that_is_not_an_int(k):
    message = "k must be an integer >= 1"
    with pytest.raises(ValueError, match=message):
        eigenvalue_average(S3, k)
    with pytest.raises(ValueError, match=message):
        prefix_sums(S3, k)
    with pytest.raises(ValueError, match=message):
        eigenvalue_sums(S3, [1, k, 4])
    with pytest.raises(ValueError, match=message):
        evaluate_grid(S3, "average", [k])


@pytest.mark.parametrize("power", [1.5, 2.0, 0])
def test_spectrum_query_power_is_an_integer_at_least_one(power):
    with pytest.raises(ValueError, match="power must be an integer >= 1"):
        SpectrumQuery(sphere(3), power=power)


TABLE_QUERIES = [
    SpectrumQuery(parse_space(desc), power=p)
    for desc in ("sphere:1", "sphere:2", "sphere:7", "hemisphere-d:5",
                 "hemisphere-n:4", "rp:3", "cp:6", "hp:12", "cayley:16")
    for p in (1, 2)
] + [SpectrumQuery(sphere(2), variant=Variant.BUCKLING)]


def _flattened_levels(q, n_min):
    """(lambda, mult) of whole levels until at least n_min eigenvalues,
    from eigenvalue and multiplicity alone."""
    levels, n, l = [], 0, q.min_level
    while n < n_min:
        m = multiplicity(q.space, l)
        levels.append((q.level_value(l), m))
        n += m
        l += 1
    return levels


@pytest.mark.parametrize("q", TABLE_QUERIES, ids=lambda q: (
    f"{q.space.describe()}-{q.variant.value}-p{q.power}"))
def test_prefix_sums_match_flattened_spectrum(q):
    levels = _flattened_levels(q, 2002)
    flat = [lam for lam, m in levels for _ in range(m)]
    gaps = list(itertools.accumulate(m for _, m in levels))
    sum1 = [0, *itertools.accumulate(flat)]
    sum2 = [0, *itertools.accumulate(v * v for v in flat)]
    ks = set(range(1, 2001))
    ks.update(k for n in gaps for k in (n - 1, n, n + 1) if 1 <= k <= len(flat))
    for k in sorted(ks):
        ps = prefix_sums(q, k)
        assert (ps.sum1, ps.sum2) == (sum1[k], sum2[k])
    # By value: every level value (inclusive) and the midpoints between,
    # as z = h/2 so that the brute-force sums stay in integers.
    lams = [2 * lam for lam, _ in levels]
    for h in lams + [(a + b) // 2 for a, b in zip(lams, lams[1:])]:
        z = Fraction(h, 2)
        gaps_below = [h - 2 * v for v in flat[:bisect.bisect_right(flat, z)]]
        assert counting(q, z) == len(gaps_below)
        assert riesz_mean(q, 1, z) * 2 == sum(gaps_below)
        assert riesz_mean(q, 2, z) * 4 == sum(g * g for g in gaps_below)


def test_prefix_sums_nondecreasing():
    vals = [prefix_sums(S3, k) for k in range(1, 40)]
    assert all(a.sum1 <= b.sum1 and a.sum2 <= b.sum2
               for a, b in zip(vals, vals[1:]))


def test_poly_transform_examples():
    assert poly_transform_check(2, 2, 2) == 0
    # both sides of the first identity equal 4 at d=2, p=2, z=2
    assert riesz_mean(SpectrumQuery(sphere(2), power=2), 1, 4) == 4
    assert poly_transform_check(3, 2, 0) == 0
    assert poly_transform_check(2, 3, 6) == 0


@given(st.integers(2, 3), st.integers(2, 4),
       st.fractions(min_value=0, max_value=600))
@settings(max_examples=100, deadline=None)
def test_poly_transform_residual_zero_on_rationals(d, p, z):
    assert poly_transform_check(d, p, z) == 0


def test_max_level_index_pow():
    q = SpectrumQuery(sphere(2), power=3)
    assert max_level_index_pow(q, 8) == 1          # 2^3 = 8 inclusive
    assert max_level_index_pow(q, 7.9) == 0
    assert max_level_index_pow(SpectrumQuery(hemisphere_dirichlet(2)), 1) is None


def test_level_cap_is_enforced():
    # The cap is the last level admitted: 10,000.
    assert counting(S2, S2.level_value(10_000)) == 10_001 ** 2
    with pytest.raises(ValueError, match="level cap"):
        counting(S2, S2.level_value(10_001))


def test_level_values_upto():
    q = SpectrumQuery(sphere(2), power=3)
    assert level_values_upto(q, 216) == [0, 8, 216]     # 6^3 inclusive
    assert level_values_upto(q, 215.9) == [0, 8]
    assert level_values_upto(SpectrumQuery(hemisphere_dirichlet(2)), 1) == []
    with pytest.raises(ValueError, match="level cap"):
        level_values_upto(S2, S2.level_value(DEFAULT_LEVEL_CAP + 1))


#: The families of the benchmark's exact-deep workload.
DEEP_SPACES = ("sphere:1", "sphere:2", "sphere:8", "hemisphere-d:5",
               "hemisphere-n:4", "rp:3", "cp:6", "hp:12", "cayley:16")
DEEP_QUERIES = [
    SpectrumQuery(space, power=p, variant=variant)
    for space in map(parse_space, DEEP_SPACES) for p in (1, 2, 3)
    for variant in Variant
    if variant is Variant.STANDARD or space.family is Family.SPHERE]
TOP_LEVEL = DEFAULT_LEVEL_CAP + 1  # the last row a table builds


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty prefix tables and moment registry for the test, the process's
    own restored after it."""
    monkeypatch.setattr(riesz, "_tables", {})
    monkeypatch.setattr(riesz, "_moments", {})


@functools.cache
def _reference_levels(space):
    """(eigenvalue, multiplicity) of each level of space through TOP_LEVEL."""
    return [(eigenvalue(space, l), multiplicity(space, l))
            for l in range(space.min_level, TOP_LEVEL + 1)]


@functools.cache
def _reference_lams(q):
    """lambda_(l)^p of q's levels through TOP_LEVEL, from `eigenvalue`."""
    return [v ** q.power for v, _ in
            _reference_levels(q.space)[q.min_level - q.space.min_level:]]


@functools.cache
def _reference_table(q):
    """q's prefix table (count, s1, s2) through TOP_LEVEL, row by row from
    eigenvalue, multiplicity and running sums."""
    rows = _reference_levels(q.space)[q.min_level - q.space.min_level:]
    cols, n, s1, s2 = ([], [], []), 0, 0, 0
    for v, (_, m) in zip(_reference_lams(q), rows):
        n, s1, s2 = n + m, s1 + m * v, s2 + m * v * v
        for col, value in zip(cols, (n, s1, s2)):
            col.append(value)
    return cols


def _assert_matches_reference(tab, q):
    rows = len(tab.count)
    for name, col, ref in zip(tab._fields, tab, _reference_table(q)):
        assert len(col) == rows <= len(ref), name
        # The first wrong row only: a diff of whole columns is too slow.
        wrong = next((i for i, (a, b) in enumerate(zip(col, ref)) if a != b),
                     None)
        assert wrong is None, f"{name} differs at level {q.min_level + wrong}"


@pytest.mark.parametrize("q", DEEP_QUERIES, ids=lambda q: (
    f"{q.space.describe()}-{q.variant.value}-p{q.power}"))
def test_columnar_table_matches_row_by_row_reference(q, cold_tables):
    # Grow one doubling step per call, checking every step, to the cap.
    sizes, tab = [], _table(q, 1)
    while not sizes or len(tab.count) > sizes[-1]:
        sizes.append(len(tab.count))
        _assert_matches_reference(tab, q)
        tab = _table(q, len(tab.count) + 1)
    assert sizes[:3] == [16, 32, 64]
    assert q.min_level + sizes[-1] - 1 == TOP_LEVEL
    # Growth by count stops at the same last row.
    assert _table(q, 1, tab.count[-1] + 1) is tab
    assert len(tab.count) == sizes[-1]


@pytest.mark.parametrize("q", DEEP_QUERIES, ids=lambda q: (
    f"{q.space.describe()}-{q.variant.value}-p{q.power}"))
def test_closed_form_level_values_are_the_eigenvalue_powers(q):
    """Every level value the tables no longer hold, rebuilt from the closed
    form, is eigenvalue(space, l) ** p, in whole columns and in runs that
    start and stop anywhere."""
    ref = _reference_lams(q)
    assert list(riesz._level_values(q, q.min_level, TOP_LEVEL + 1)) == ref
    rng = random.Random(repr(q.table_key))
    for _ in range(20):
        start = rng.randrange(q.min_level, TOP_LEVEL + 1)
        stop = start + rng.choice([0, 1, 2, 3, rng.randrange(500)])
        assert list(riesz._level_values(q, start, stop)) == ref[
            start - q.min_level:stop - q.min_level], (start, stop)


@pytest.mark.parametrize("desc", ["sphere:2", "sphere:8"])
@pytest.mark.parametrize("order", [
    ((2, "standard", 64), (1, "buckling", 0), (1, "standard", 0)),
    ((1, "buckling", 200), (2, "standard", 0), (1, "standard", 16)),
    ((3, "standard", 0), (2, "standard", 40), (1, "standard", 0)),
])
def test_tables_of_one_space_share_its_levels(desc, order, cold_tables,
                                               monkeypatch):
    """Tables of one space built in any order, each to a partial depth
    first, equal the reference, and each multiplicity is computed once."""
    space = parse_space(desc)
    record = spaces._FAMILIES[space.family]
    evaluations = []

    def counted_mult(d, l):
        evaluations.append(l)
        return record.mult(d, l)
    monkeypatch.setitem(spaces._FAMILIES, space.family,
                        record._replace(mult=counted_mult))
    queries = [SpectrumQuery(space, power=p, variant=Variant(variant))
               for p, variant, _ in order]
    for q, (_, _, rows) in zip(queries, order):
        _table(q, rows + 2)
    tables = [_table(q, math.inf) for q in queries]
    assert len(evaluations) == TOP_LEVEL  # levels 1..TOP_LEVEL, once each
    assert set(evaluations) == set(range(1, TOP_LEVEL + 1))
    for tab, q in zip(tables, queries):
        _assert_matches_reference(tab, q)


@pytest.mark.parametrize("desc", ["sphere:2", "sphere:8"])
@pytest.mark.parametrize("order", [
    ((1, "standard", 0), (2, "standard", 0)),
    ((2, "standard", 0), (1, "standard", 0)),
    ((2, "standard", 40), (1, "standard", 3000)),
    ((1, "buckling", 100), (2, "standard", 40), (2, "buckling", 0),
     (1, "standard", 200), (4, "standard", 0)),
], ids=["p1-p2", "p2-p1", "p2-partly-p1-deeper", "buckling-mixed"])
def test_tables_of_one_space_share_their_running_sums(desc, order,
                                                      cold_tables):
    """Tables of one space and variant, built in any order and each to a
    partial depth first, equal the reference, and hold the same int
    objects in every running sum S_j they have in common: count (S_0) at
    every power, and s2 at power p and s1 at power 2p (S_2p)."""
    space = parse_space(desc)
    queries = [SpectrumQuery(space, power=p, variant=Variant(variant))
               for p, variant, _ in order]
    for q, (_, _, rows) in zip(queries, order):
        _table(q, rows + 2)
    tables = {(q.power, q.variant): _table(q, math.inf) for q in queries}
    for q in queries:
        _assert_matches_reference(tables[q.power, q.variant], q)
    shared = 0
    for (p, variant), tab in tables.items():
        for (p2, variant2), tab2 in tables.items():
            if variant2 is not variant or p2 <= p:
                continue
            pairs = [(tab.count, tab2.count)]
            if p2 == 2 * p:
                pairs.append((tab.s2, tab2.s1))
            for col, col2 in pairs:
                assert len(col) == len(col2)
                assert all(map(operator.is_, col, col2)), (p, p2)
                shared += 1
    assert shared >= len(order) - 1


def test_a_deep_table_leaves_the_other_powers_at_their_depth(cold_tables):
    # Sharing copies what a column already holds; it grows no other table.
    others = [SpectrumQuery(sphere(2), power=p) for p in range(2, 6)]
    depths = [len(_table(q, 62).count) for q in others]
    deep = _table(S2, 9002)
    assert len(deep.count) > 9000
    assert [[len(col) for col in riesz._tables[q.table_key]]
            for q in others] == [[n] * 3 for n in depths]
    for q in others:
        _assert_matches_reference(riesz._tables[q.table_key], q)


def test_column_build_keeps_the_exact_division_check(cold_tables,
                                                     monkeypatch):
    """A record whose eigenvalue is not an integer fails the build with
    ArithmeticError, as `eigenvalue` does."""
    record = spaces._FAMILIES[Family.SPHERE]
    monkeypatch.setitem(spaces._FAMILIES, Family.SPHERE, record._replace(
        quadratic=lambda d: (1, d - 1, 3)))  # lambda(1) = 2/3 on S^2
    with pytest.raises(ArithmeticError, match="non-integer quotient 2/3"):
        eigenvalue(sphere(2), 1)
    # S2 was built before the patch, so it keeps the old closed form: the
    # multiplicities' level columns fail.  A query built after it fails in
    # its own level values.
    for q in (S2, SpectrumQuery(sphere(2))):
        for _ in range(2):  # no table or moment is left behind half built
            with pytest.raises(ArithmeticError,
                               match="non-integer quotient 2/3"):
                counting(q, 5)
        assert riesz._tables == {} and riesz._moments == {}


@pytest.mark.parametrize("a,b,s,exact", [
    (1, 1, 3, False),   # lambda(1) = 2/3
    (1, 3, 4, False),   # lambda(0) = 0 and lambda(1) = 1, but lambda(2) = 10/4
    (1, 1, 1, True), (4, 6, 1, True), (2, 6, 2, True),
])
def test_closed_form_checks_every_level_it_builds(a, b, s, exact):
    """Where s does not divide a and b, each level's division is checked,
    so a run of closed-form values holds a non-integer only by raising."""
    for start in (0, 1, 7):
        if exact:
            assert list(spaces.level_values(a, b, s, start, start + 5)) == [
                (a * l * l + b * l) // s for l in range(start, start + 5)]
        else:
            with pytest.raises(ArithmeticError, match="non-integer quotient"):
                list(spaces.level_values(a, b, s, start, start + 5))


def test_deep_tables_hold_four_ints_per_level(cold_tables):
    """After the exact-deep workload's build (nine spaces at p = 1 and 2,
    to the cap), the tables of each space hold four int objects per row:
    S_0, S_1, S_2 and S_4, each once, and no level value or multiplicity."""
    queries = [SpectrumQuery(space, power=p)
               for space in map(parse_space, DEEP_SPACES) for p in (1, 2)]
    for q in queries:
        counting(q, q.level_value(9901))
    total = 0
    for space in {q.space for q in queries}:
        rows = TOP_LEVEL - space.min_level + 1
        key = (space.family.value, space.dim, "standard")
        assert sorted(k[3] for k in riesz._moments if k[:3] == key) == [
            0, 1, 2, 4]
        moments = [riesz._moments[(*key, j)] for j in (0, 1, 2, 4)]
        assert [len(col) for col in moments] == [rows] * 4
        tables = [riesz._tables[q.table_key] for q in queries
                  if q.space == space]
        assert [[len(col) for col in tab] for tab in tables] == [
            [rows] * 3] * 2
        held = {id(v) for tab in tables for col in tab for v in col}
        assert held == {id(v) for col in moments for v in col}
        total += rows
    held = {id(v) for tab in riesz._tables.values() for col in tab
            for v in col}
    assert 4 * total - 100 < len(held) <= 4 * total  # small ints are shared


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [
    lambda z: counting(S2, z),
    lambda z: riesz_mean(S2, 1, z),
    lambda z: riesz_mean(SpectrumQuery(sphere(2), power=3), 2, z),
    lambda z: max_level_index(sphere(2), z),
], ids=["counting", "riesz_mean", "riesz_mean_p3", "max_level_index"])
def test_non_finite_z_is_a_value_error(fn, z):
    with pytest.raises(ValueError):
        fn(z)


@pytest.mark.parametrize("z,message", [
    (math.nan, "z must be a finite number >= 0, got nan"),
    (math.inf, "z must be a finite number >= 0, got inf"),
    (-math.inf, "z must be a finite number >= 0, got -inf"),
    (-1, "z must be a finite number >= 0, got -1"),
    (Fraction(-1, 3), "z must be a finite number >= 0, got Fraction(-1, 3)"),
    (-Fraction(1, 2 ** 70),
     f"z must be a finite number >= 0, got Fraction(-1, {2 ** 70})"),
    (-5e-324, "z must be a finite number >= 0, got -5e-324"),
], ids=["nan", "+inf", "-inf", "-1", "-1/3", "-2^-70", "-min-subnormal"])
@pytest.mark.parametrize("fn", [
    lambda z: counting(S2, z),
    lambda z: riesz_mean(S2, 1, z),
    lambda z: riesz_mean(S2, 2, z),
    lambda z: max_level_index(sphere(2), z),
    lambda z: poly_transform_check(2, 2, z),
    lambda z: max_level_index_pow(SpectrumQuery(sphere(2), power=3), z),
    lambda z: evaluate_grid(S2, "R1", [Fraction(5, 2), z]),
], ids=["counting", "riesz_mean", "riesz_mean_2", "max_level_index",
        "poly_transform_check", "max_level_index_pow_p3", "evaluate_grid"])
def test_bad_z_error_text(fn, z, message):
    with pytest.raises(ValueError) as info:
        fn(z)
    assert str(info.value) == message


def test_negative_zero_is_zero():
    assert counting(S2, -0.0) == 1
    assert riesz_mean(S2, 1, -0.0) == 0.0
    assert max_level_index(sphere(2), -0.0) == 0
    assert max_level_index_pow(SpectrumQuery(sphere(2), power=3), -0.0) == 0
    assert evaluate_grid(S2, "R1", [Fraction(5, 2), -0.0]) == (
        [Fraction(4), 0.0], [1, 0])
    assert poly_transform_check(2, 2, -0.0) == 0.0


def test_exact_value_types_follow_z():
    # Levels 0, 2, 6, 12 of S^2 with multiplicities 1, 3, 5, 7 lie <= 12.
    n, s1, s2 = 16, 120, 1200
    for gamma in (1, 2):
        assert type(riesz_mean(S2, gamma, 12)) is int
        assert type(riesz_mean(S2, gamma, Fraction(12))) is Fraction
    assert riesz_mean(S2, 1, Fraction(12)) == n * 12 - s1
    assert riesz_mean(S2, 2, Fraction(12)) == (n * 12 - 2 * s1) * 12 + s2
    for z in (12.0, 12.3, 19.999999999999996):
        for got, want in ((riesz_mean(S2, 1, z), n * z - s1),
                          (riesz_mean(S2, 2, z), (n * z - 2 * s1) * z + s2)):
            assert type(got) is float
            assert got.hex() == want.hex(), z


# ---------------------------------------------------------------------------
# evaluate_grid: the per-grid sweep against the per-point functions


def _per_point(q, quantity, x):
    if quantity == "average":
        return eigenvalue_average(q, x)
    if quantity == "N":
        return counting(q, x)
    return riesz_mean(q, 1 if quantity == "R1" else 2, x)


def _per_point_loop(q, quantity, grid):
    """The per-point loop the sweep replaces: every value, then every gap
    level from float(x)."""
    values = [_per_point(q, quantity, x) for x in grid]
    if quantity == "average":
        return values, None
    gaps = [max_level_index_pow(q, float(x)) for x in grid]
    return values, [q.min_level - 1 if l is None else l for l in gaps]


def _value_grids(q):
    """Float, int, Fraction and mixed float/int grids at z = 0, below the
    first level, at every level value +-1 ulp (+-1 for ints; +-2^-70, below
    one float ulp, for Fractions, so that float(x) rounds onto the level)
    and at the largest point, in the table's last row (halfway between its
    last two level values for ints and Fractions).  Each is sorted,
    shuffled and duplicated; float grids also hold -0.0 and 5e-324.  Then
    single-point grids of the smallest and the largest points."""
    lams = [q.level_value(l) for l in range(q.min_level, q.min_level + 15)]
    rows = len(_table(q, 16).count)
    prev, last = (q.level_value(q.min_level + rows - e) for e in (2, 1))
    tiny = Fraction(1, 2 ** 70)
    kinds = {
        "float": [0.0, 5e-324, lams[0] / 2,
                  math.nextafter(float(last), -math.inf)] + [
            z for lam in lams for z in (
                math.nextafter(float(lam), -math.inf), float(lam),
                math.nextafter(float(lam), math.inf))],
        "int": [0, lams[0] // 2, (prev + last) // 2] + [
            lam + e for lam in lams for e in (-1, 0, 1)],
        "Fraction": [Fraction(0), Fraction(lams[0], 2),
                     Fraction(prev + last, 2)] + [
            lam + e for lam in lams for e in (-tiny, Fraction(0), tiny)],
    }
    kinds["mixed"] = kinds["float"][1::2] + kinds["int"][::2]
    singles = []
    for kind, pts in kinds.items():  # the kind seeds the shuffle
        pts = sorted(set(z for z in pts if z >= 0))
        if kind == "float":
            pts.insert(0, -0.0)  # the set kept 0.0 of the two zeros
        shuffled = pts[:]
        random.Random(kind).shuffle(shuffled)
        yield from (pts, shuffled, shuffled + pts[::3])
        singles += pts[:4] + pts[-1:]
    yield from ([z] for z in singles)


def _assert_same(got, want):
    values, gaps = got
    want_values, want_gaps = want
    assert [type(v) for v in values] == [type(v) for v in want_values]
    assert [repr(v) for v in values] == [repr(v) for v in want_values]
    assert gaps == want_gaps


@pytest.mark.parametrize("q", TABLE_QUERIES, ids=lambda q: (
    f"{q.space.describe()}-{q.variant.value}-p{q.power}"))
def test_evaluate_grid_matches_per_point_functions(q):
    for quantity in ("N", "R1", "R2"):
        for grid in _value_grids(q):
            _assert_same(evaluate_grid(q, quantity, grid),
                         _per_point_loop(q, quantity, grid))
    counts = list(itertools.accumulate(
        m for _, m in _flattened_levels(q, 300)))
    ks = sorted({k for n in counts for k in (n - 1, n, n + 1) if k >= 1})
    shuffled = ks[:]
    random.Random(0).shuffle(shuffled)
    for grid in (ks, shuffled, shuffled + ks[::2]):
        _assert_same(evaluate_grid(q, "average", grid),
                     _per_point_loop(q, "average", grid))


def test_evaluate_grid_empty():
    assert evaluate_grid(S2, "R1", []) == ([], [])
    assert evaluate_grid(S2, "average", []) == ([], None)


def _first_failure(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


PAST_CAP = S2.level_value(DEFAULT_LEVEL_CAP + 1)
K_PAST_CAP = counting(S2, S2.level_value(DEFAULT_LEVEL_CAP)) + 1


@pytest.mark.parametrize("quantity,grid", [
    ("R1", [2.0, math.nan, -1.0]),
    ("R1", [2.0, -1.0, math.nan]),
    ("N", [6, Fraction(-1, 3), PAST_CAP]),
    ("R2", [1.5, PAST_CAP, math.nan, 3.0]),
    ("R1", [float(PAST_CAP), 2.0, -1.0]),
    ("N", [PAST_CAP - 1, Fraction(PAST_CAP * 3 + 1, 3), PAST_CAP]),
    ("R1", [math.inf, 2.0]),
    ("N", [Fraction(10 ** 400), math.nan]),
    ("average", [5, 0, K_PAST_CAP]),
    ("average", [5, 0]),
    ("average", [5, K_PAST_CAP, -1]),
    ("average", [K_PAST_CAP, K_PAST_CAP + 3]),
    ("R2", [PAST_CAP, PAST_CAP + 7]),
    ("R1", [math.nan]),
    ("N", [math.inf]),
    ("R2", [-0.0, math.nan]),
    ("R1", [0.5, 2.0, float(PAST_CAP), float(PAST_CAP) * 2]),
    ("N", [6.0, 2.0, math.nan, 1.0]),
    ("R2", [6.0, 2.0, -1.0, math.nan]),
], ids=["nan-first", "negative-first", "negative-before-cap",
        "cap-before-nan", "float-cap-before-negative", "cap-in-fraction",
        "inf", "huge-fraction", "k0-before-cap", "k0", "cap-before-k-negative",
        "k-first-of-two-past-cap", "z-first-of-two-past-cap", "only-nan",
        "only-inf", "nan-after-negative-zero", "sorted-past-cap-tail",
        "unsorted-nan", "unsorted-negative-before-nan"])
def test_evaluate_grid_raises_as_first_failing_point(quantity, grid):
    want = _first_failure(lambda: _per_point_loop(S2, quantity, grid))
    assert _first_failure(lambda: evaluate_grid(S2, quantity, grid)) == want


@pytest.mark.parametrize("quantity", ["R3", "n"])
def test_evaluate_grid_refuses_an_unknown_quantity(quantity):
    with pytest.raises(ValueError, match="must be N, R1, R2 or average, "
                                         f"got '{quantity}'"):
        evaluate_grid(S2, quantity, [1.0])


# ---------------------------------------------------------------------------
# Lookups by value invert floor(z) in integers; the transform integrals sum
# in ints


def _brute_by_value(levels, min_level, z):
    """(N, R1, R2, largest level <= z) from the (lambda, mult) list alone,
    with R1 and R2 of the type of z."""
    below = [(lam, m) for lam, m in levels if lam <= z]
    zero = z * 0
    return (sum(m for _, m in below),
            sum((m * (z - lam) for lam, m in below), zero),
            sum((m * (z - lam) ** 2 for lam, m in below), zero),
            min_level + len(below) - 1 if below else None)


@pytest.mark.parametrize("q", TABLE_QUERIES, ids=lambda q: (
    f"{q.space.describe()}-{q.variant.value}-p{q.power}"))
def test_value_lookups_on_fraction_z_match_flattened_spectrum(q):
    levels = [(q.level_value(l), multiplicity(q.space, l))
              for l in range(q.min_level, q.min_level + 40)]
    tiny, step = Fraction(1, 2 ** 70), Fraction(1, 997)
    zs = [lam + e for lam, _ in levels[:-1]
          for e in (-step, -tiny, Fraction(0), tiny, step)]
    for z in [z for z in zs if z >= 0]:
        got = (counting(q, z), riesz_mean(q, 1, z), riesz_mean(q, 2, z),
               max_level_index_pow(q, z))
        want = _brute_by_value(levels, q.min_level, z)
        assert got == want, z
        assert [type(v) for v in got] == [type(v) for v in want], z


@pytest.mark.parametrize("z", [
    Fraction(10 ** 400), Fraction(10 ** 400 + 1, 3), Fraction(PAST_CAP),
    PAST_CAP + Fraction(1, 997), PAST_CAP + Fraction(1, 2 ** 70)],
    ids=["1e400", "1e400-third", "cap-level", "cap-level+1/997",
         "cap-level+2^-70"])
@pytest.mark.parametrize("fn", [
    lambda z: counting(S2, z),
    lambda z: riesz_mean(S2, 1, z),
    lambda z: riesz_mean(S2, 2, z),
    lambda z: max_level_index_pow(S2, z),
], ids=["counting", "riesz_mean", "riesz_mean_2", "max_level_index_pow"])
def test_past_cap_fraction_names_the_given_z(fn, z):
    # The level inversion reads floor(z); the error still reports z itself.
    assert _first_failure(lambda: fn(z)) == (
        f"level cap {DEFAULT_LEVEL_CAP} exceeded at z={z!r}")


def test_fraction_just_below_the_cap_level_is_the_last_level():
    for z in (PAST_CAP - Fraction(1, 997), PAST_CAP - Fraction(1, 2 ** 70)):
        assert counting(S2, z) == (DEFAULT_LEVEL_CAP + 1) ** 2
        assert max_level_index_pow(S2, z) == DEFAULT_LEVEL_CAP


#: Every spectrum of TABLE_QUERIES at powers 1, 2 and 3, the three ways
#: the level inversion takes the integer p-th root of floor(z): as is, by
#: math.isqrt and by Newton's iteration.
INVERSION_QUERIES = [SpectrumQuery(q.space, power=p, variant=q.variant)
                     for q in TABLE_QUERIES if q.power == 1
                     for p in (1, 2, 3)]


@pytest.mark.parametrize("q", INVERSION_QUERIES, ids=lambda q: (
    f"{q.space.describe()}-{q.variant.value}-p{q.power}"))
def test_level_inversion_is_the_bisect_of_lam(q, cold_tables):
    lam = _reference_lams(q)
    assert len(_table(q, math.inf).count) == len(lam)
    tiny, step = Fraction(1, 2 ** 70), Fraction(1, 997)
    zs = []
    for v in lam[:40]:
        zs += [v, v - 1, v + 1, Fraction(v), v - step, v + step, v - tiny,
               v + tiny, float(v), math.nextafter(float(v), -math.inf),
               math.nextafter(float(v), math.inf)]
    for z in [z for z in zs if z >= 0]:
        assert riesz._rows_upto(q, z)[1] == bisect.bisect_right(
            lam, math.floor(z)), z
    # Level 10,000 is the last row a lookup reads; level 10,001 and past
    # it raise the cap error naming z.
    assert len(lam) == TOP_LEVEL - q.min_level + 1
    last, past = lam[-2], lam[-1]
    for z in (last, Fraction(last), last + step, past - 1, past - tiny):
        assert riesz._rows_upto(q, z)[1] == len(lam) - 1, z
        assert max_level_index_pow(q, z) == DEFAULT_LEVEL_CAP, z
    for z in (past, Fraction(past), past + tiny, past + 1):
        assert _first_failure(lambda: riesz._rows_upto(q, z)) == (
            f"level cap {DEFAULT_LEVEL_CAP} exceeded at z={z!r}")


def test_queries_compare_and_hash_by_space_power_and_variant():
    q = SpectrumQuery(sphere(2))
    same = SpectrumQuery(sphere(2), 1, Variant.STANDARD)
    assert q == same and hash(q) == hash(same) and not q != same
    for other in (SpectrumQuery(sphere(3)), SpectrumQuery(sphere(2), power=2),
                  SpectrumQuery(sphere(2), variant=Variant.BUCKLING),
                  SpectrumQuery(hemisphere_neumann(2)),
                  (sphere(2), 1, Variant.STANDARD)):
        assert q != other and not q == other
    assert repr(q) == ("SpectrumQuery(space=Space(family=<Family.SPHERE: "
                       "'sphere'>, dim=2), power=1, "
                       "variant=<Variant.STANDARD: 'standard'>)")


def test_pickled_query_finds_the_same_table():
    q = SpectrumQuery(sphere(3), power=2)
    back = pickle.loads(pickle.dumps(q))
    assert back == q and hash(back) == hash(q)
    # Only strs and ints: a new process recomputes their hashes.
    assert {type(v) for v in back.table_key} == {str, int}
    assert (back.table_key, back.inversion, back.min_level) == (
        q.table_key, q.inversion, q.min_level)
    assert riesz._rows_upto(back, 100)[0] is riesz._rows_upto(q, 100)[0]
    assert counting(back, 100) == counting(q, 100)


def _reference_integrals(q, z, p):
    """(integral_0^z u^(p-2) R_1 du, integral_0^z u^(p-1) N du): a Fraction
    per piece [lambda_l, min(lambda_(l+1), z)], from eigenvalue and
    multiplicity alone."""
    r1 = cnt = Fraction(0)
    n = s1 = 0
    l = q.min_level
    while q.level_value(l) <= z:
        lo, m = q.level_value(l), multiplicity(q.space, l)
        hi = min(q.level_value(l + 1), z)
        n, s1 = n + m, s1 + m * lo
        r1 += (Fraction(n, p) * (hi ** p - lo ** p)
               - Fraction(s1, p - 1) * (hi ** (p - 1) - lo ** (p - 1)))
        cnt += Fraction(n, p) * (hi ** p - lo ** p)
        l += 1
    return r1, cnt


POLY_CASES = [(2, 2), (3, 2), (4, 3), (8, 2), (5, 2), (2, 3)]


@pytest.mark.parametrize("d,p", POLY_CASES)
def test_transform_integrals_match_per_piece_fraction_loop(d, p):
    queries = (SpectrumQuery(sphere(d)),
               SpectrumQuery(hemisphere_dirichlet(d)))
    for q in queries:
        lams = [q.level_value(l) for l in range(q.min_level, q.min_level + 12)]
        # int z at and between levels; Fraction z inside a gap and at a
        # level; float z as poly_transform_check passes it on: Fraction(z).
        zs = [0, 1, *lams, *(lam + 1 for lam in lams),
              *(lam + Fraction(3, 7) for lam in lams), Fraction(lams[5]),
              *(Fraction(float(lam) + 0.375) for lam in lams),
              Fraction(math.nextafter(float(lams[6]), math.inf))]
        for z in zs:
            want_r1, want_cnt = _reference_integrals(q, z, p)
            got_r1 = _integral_power_times_r1(q, z, p)
            got_cnt = _integral_power_times_counting(q, z, p)
            assert (got_r1, got_cnt) == (want_r1, want_cnt), (q, z)
            assert type(got_r1) is type(got_cnt) is Fraction
