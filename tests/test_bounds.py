import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectral_riesz import bounds
from spectral_riesz.scan import golden_section_max
from spectral_riesz.riesz import SpectrumQuery, eigenvalue_average, riesz_mean
from spectral_riesz.spaces import Family, Space, hemisphere_dirichlet, sphere


def test_bound_value_examples():
    assert bounds.bound_value("sd.r1.upper.shift", {"d": 2}, 2) \
        == Fraction(25, 8)
    assert bounds.bound_value("hemi2.r1d.lower", {}, 2) == 0
    assert bounds.bound_value("dom.s2p.bly", {"area": 2 * math.pi}, 4) \
        == pytest.approx(4.0, abs=0)
    assert bounds.bound_value("sd.avg.twosided", {"d": 2}, 1, side="lower") == 0
    huge = Fraction(10 ** 400)  # past float range, exact all the same
    assert bounds.bound_value("s2.r1.lower", {}, huge) == huge * huge / 2


def test_bound_value_errors():
    with pytest.raises(KeyError):
        bounds.bound_value("no.such.bound", {}, 1)
    with pytest.raises(ValueError):
        bounds.bound_value("hemi.d.bly345", {"d": 6}, 1)
    with pytest.raises(ValueError):
        bounds.bound_value("sd.r1.lower", {"d": 1}, 1)
    with pytest.raises(ValueError):
        bounds.bound_value("sd.avg.twosided", {"d": 2}, 1)  # side required
    with pytest.raises(ValueError):
        bounds.bound_value("sd.r2.twosided", {"space": sphere(1)}, 1,
                           side="lower")
    with pytest.raises(ValueError):
        bounds.bound_value("sd.r2.twosided",
                           {"space": hemisphere_dirichlet(3)}, 1, side="lower")
    for bound_id, params in [("dom.s2p.bly", {"area": 7.0}),
                             ("dom.s2p.bly", {"area": math.nan}),
                             ("dom.s2p.poly23", {"p": 2.5}),
                             ("dom.s2p.poly23", {"p": 4}),
                             ("fail.r1p.weyl", {"p": 3}),
                             ("sd.r1p.twosided", {"d": 3, "p": 1})]:
        with pytest.raises(ValueError):
            bounds.bound_value(bound_id, params, 1, side="upper")


def test_every_entry_declares_a_parameter_matrix():
    pairs = bounds.entry_matrix()
    assert {bound_id for bound_id, _ in pairs} == set(bounds.catalog())
    for bound_id, params in pairs:
        bounds.get(bound_id).validate(dict(params))
    failures = [b for b, _ in pairs if b.startswith("fail.")]
    assert (len(pairs) - len(failures), len(failures)) == (66, 7)
    assert all(not bounds.get(b).expected_valid for b in failures)
    hash(bounds.get("sd.r2.twosided"))  # the matrix leaves specs hashable


def _equality(bound_id, params=None, count=8):
    """The entry's first `count` recorded equality points."""
    spec = bounds.get(bound_id)
    return spec.equality(spec.validate(dict(params or {})), count)


def test_equality_points_examples():
    assert _equality("s2.r1.upper", count=3) \
        == [Fraction(1, 2), Fraction(7, 2), Fraction(17, 2)]
    assert _equality("s2.r1.lower", count=4) == [0, 2, 6, 12]
    shifts = _equality("sd.r1.upper.shift", {"d": 3}, count=50)
    assert abs(shifts[-1] - 1.25) < 0.05   # b(l) -> z_3 = 5/4
    assert _equality("sd.r1.lower", {"d": 3}) == []   # none for d >= 3
    assert bounds.get("hemi2.r1d.upper").equality is None


def test_equality_points_satisfy_equality_exactly():
    for bid, prm in [("s2.r1.lower", {}), ("s2.r1.upper", {}),
                     ("s2.r1.lower.imp", {}), ("s2.r1.upper.imp", {}),
                     ("hemi2.r1d.lower", {}), ("hemi2.r1n.lower", {}),
                     ("hemi2.nd.polya", {}), ("lem.blys2", {}),
                     ("s1.r1.upper.shift", {}),
                     ("sd.r1.upper.shift", {"d": 2})]:
        spec = bounds.get(bid)
        q = spec.query(spec.validate(dict(prm)))
        for z in _equality(bid, prm, count=6):
            target = riesz_mean(q, 1, z) if spec.quantity == "R1" \
                else Fraction(__import__("spectral_riesz.riesz",
                                         fromlist=["counting"]).counting(q, z))
            for rule in spec.sides:
                got = bounds.bound_value(bid, prm, z, side=rule.side)
                assert got == target, (bid, z)


def test_s1_equality_point_value():
    # z_0 = 1/6: R1 = 1/6 equals 4/3 (1/6 + 1/12)^(3/2) exactly.
    z = Fraction(1, 6)
    assert bounds.bound_value("s1.r1.upper.shift", {}, z) == z


def test_optimal_shift_examples():
    assert bounds.optimal_shift(2, 1) == pytest.approx(0.5, abs=1e-15)
    assert bounds.optimal_shift(2, 37) == pytest.approx(0.5, abs=1e-12)
    for d in (3, 4, 5, 6):
        zd = d * (2 * d - 1) / 12
        assert abs(bounds.optimal_shift(d, 50) - zd) < 0.05


def test_verify_bly345_and_diagnostics():
    rep = bounds.verify("hemi.d.bly345", {"d": 3}, points=600, levels=40)
    assert rep.passed and rep.sides[0].n_violations == 0
    diag = bounds.bly345_gap_diagnostics(6, 1)
    assert diag.ratio_at_crit == pytest.approx(1.40625, abs=1e-13)
    assert 0 < diag.x_crit < 1
    assert diag.z_crit == pytest.approx(8.0)
    # interior critical point solves z(x) = z*
    L, d = diag.level, diag.d
    z_of_x = (L + diag.x_crit) * (L + diag.x_crit + d - 1)
    assert z_of_x == pytest.approx(diag.z_crit, rel=1e-12)


def test_verify_polya_failure_witness():
    rep = bounds.verify("fail.hemi.polya.d≥3", {"d": 3}, levels=20)
    assert rep.passed
    w = rep.sides[0].first_witness
    assert w.z == 3.0 and w.target == 1.0
    assert w.bound == pytest.approx(3 ** 1.5 / 6)


def test_verify_liyau_failure_numbers():
    assert 8 ** 6 == 262144 < 518400 == math.factorial(6) ** 2
    rep = bounds.verify("fail.liyau.d≥6", {"d": 6}, zmax=50)
    assert rep.passed and rep.sides[0].first_witness.z == 1.0
    # d = 5 is not in the declared failure range (the bound holds there)
    with pytest.raises(ValueError):
        bounds.verify("fail.liyau.d≥6", {"d": 5})


def test_verify_r1p_weyl_two_sided_failure():
    rep = bounds.verify("fail.r1p.weyl", {}, levels=12)
    assert rep.passed
    by_side = {s.side: s for s in rep.sides}
    lows = {v.z for v in by_side["lower"].violations}
    ups = {v.z for v in by_side["upper"].violations}
    assert 4.0 in lows      # z = (l(l+1))^2 at l = 1
    assert 20.0 in ups      # z = (l+1)^2 ((l+1)^2 + 1) at l = 1


def test_verify_s1_weyl_two_sided_failure():
    rep = bounds.verify("fail.s1.weyl", {}, levels=12)
    assert rep.passed
    for side in rep.sides:
        assert side.n_violations >= 1


def test_verify_bdshift_failure_below_d():
    rep = bounds.verify("fail.sd.r1.lower.bdshift", {"d": 3}, levels=12)
    assert rep.passed
    assert rep.sides[0].first_witness.z <= 3.0


def test_alias_ids_with_ascii_comparators():
    assert bounds.get("fail.hemi.polya.d>=3").id == "fail.hemi.polya.d≥3"
    assert bounds.get("fail.liyau.d>=6").id == "fail.liyau.d≥6"


def test_domain_bounds_linear_in_area():
    for bid, prm, z in [("dom.s2p.bly", {}, 7.3), ("dom.s2p.bly.imp", {}, 7.3),
                        ("dom.s2.buckling", {}, 11.0),
                        ("dom.sd.bly.shift", {"d": 3}, 9.0),
                        ("dom.sd.kroger.imp", {"d": 3}, 9.0),
                        ("dom.s2p.poly23", {"p": 2}, 30.0),
                        ("dom.sd.neubih.lower", {"d": 3}, 30.0)]:
        one = bounds.bound_value(bid, {**prm, "area": 1.0}, z)
        two = bounds.bound_value(bid, {**prm, "area": 2.0}, z)
        assert two == pytest.approx(2 * one, rel=1e-15)


@given(st.floats(min_value=1.0001, max_value=1e5))
@settings(max_examples=100)
def test_improved_domain_bound_dominated_for_z_above_one(z):
    imp = bounds.bound_value("dom.s2p.bly.imp", {}, z)
    plain = bounds.bound_value("dom.s2p.bly", {}, z)
    assert imp <= plain


def test_legendre_average_bound_examples():
    assert bounds.legendre_average_bound("sd.r1.upper.shift", {"d": 2}, 1) \
        == pytest.approx(0.0, abs=1e-12)
    up = bounds.legendre_average_bound("sd.r1.lower", {"d": 2}, 4)
    assert up == pytest.approx(2.0, rel=1e-12)
    assert float(eigenvalue_average(SpectrumQuery(sphere(2)), 4)) <= up
    for k in (0, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match="k must be a finite number >= 1, got "):
            bounds.legendre_average_bound("sd.r1.upper.shift", {"d": 2}, k)
    with pytest.raises(ValueError):
        bounds.legendre_average_bound("hemi2.nd.polya", {}, 1)
    # Past float range: an overflow, or a NaN from inf - inf.
    for bound_id, params, k in [
            ("sd.r1.upper.shift", {"d": 3}, 1e200),
            ("sd.r1.upper.shift", {"d": 3}, 1e308)]:
        with pytest.raises(ValueError, match=re.escape(
                f"k={k!r} is too large for the Legendre transform "
                f"of {bound_id}")):
            bounds.legendre_average_bound(bound_id, params, k)


@pytest.mark.parametrize("bound_id,params,k,side", [
    ("dom.s2p.poly23", {"p": 2}, 1e6, None),
    ("sd.r1p.twosided", {"d": 2, "p": 2}, 1, "upper"),
    ("s2.r1.lower.imp", {}, 1e12, None),
    ("hemi2.r1d.upper", {}, 1e12, None),
    ("sd.r1.lower.shift", {"d": 3}, 1e100, None),
])
def test_legendre_refuses_a_side_that_is_not_a_power(bound_id, params, k,
                                                     side):
    # Only c (z + b)^q has the closed-form transform; any other side is one
    # ValueError naming the entry, whatever k is.
    with pytest.raises(ValueError, match=re.escape(
            f"no closed-form Legendre transform for {bound_id}")):
        bounds.legendre_average_bound(bound_id, params, k, side)


def _legendre_numeric(bound, k) -> float:
    """max over z >= 0 of (k z - B(z)) / k by search, for any side B: a
    coarse scan brackets the maximiser, golden sections refine it to 1e-10.

    The reference the closed forms are checked against.
    """
    def g(z):
        return k * z - float(bound(z))

    zhi = 1.0
    while g(zhi * 2) > g(zhi) or g(zhi * 4) > g(zhi):
        zhi *= 2
        assert zhi <= 1e12, "no interior maximum found"
    n = 4000
    best_i = max(range(n + 1), key=lambda i: g(4 * zhi * i / n))
    lo = 4 * zhi * max(best_i - 1, 0) / n
    hi = 4 * zhi * min(best_i + 1, n) / n
    _, best = golden_section_max(g, lo, hi, 1e-10 * max(1.0, hi))
    # A maximum at the bracket's lower end (z = 0 behind a sqrt term) is
    # only approached by the search; g(lo) holds it exactly.
    return max(best, g(lo)) / k


def test_legendre_numeric_path_keeps_maximum_at_bracket_end():
    # k z - B(z) = -L z^1.5 - sqrt(z)/4 has its supremum 0 at z = 0.
    _, side = bounds._resolve_side("sd.r1p.twosided", {"d": 2, "p": 2},
                                   "upper")
    assert _legendre_numeric(side, 1) == 0.0


def test_legendre_numeric_path_matches_closed_form():
    closed = bounds.legendre_average_bound("hemi.d.bly345", {"d": 3}, 7)
    _, side = bounds._resolve_side("hemi.d.bly345", {"d": 3}, None)
    assert _legendre_numeric(side, 7) == pytest.approx(closed, rel=1e-9)


def test_legendre_closed_form_of_the_s2_lower_side():
    # The numeric path gives 24.999999999999996.
    assert bounds.legendre_average_bound("s2.r1.lower", {}, 50) == 25.0


def _power_sides():
    for bound_id, params in bounds.entry_matrix():
        spec = bounds.get(bound_id)
        prm = spec.validate(dict(params))
        for rule in spec.sides:
            if spec.quantity == "R1" \
                    and isinstance(rule.bind(**prm), bounds.Power):
                label = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
                yield pytest.param(bound_id, params, rule.side,
                                   id=f"{bound_id}[{label}]-{rule.side}")


@pytest.mark.parametrize("bound_id,params,side", list(_power_sides()))
def test_power_form_matches_its_side_and_numeric_legendre(
        bound_id, params, side):
    _, power = bounds._resolve_side(bound_id, params, side)
    c, q, b = float(power.c), power.q, float(power.b)
    for z in (0.0, 0.75, 3.0, 47.5, 1234.5):
        assert float(power(z)) == pytest.approx(c * (z + b) ** q, rel=1e-14)
    ks = (1, 5, 50)
    closed = [bounds.legendre_average_bound(bound_id, params, k, side)
              for k in ks]
    numeric = [_legendre_numeric(power, k) for k in ks]
    assert numeric == pytest.approx(closed, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("bound_id,params", [
    ("sd.r2.twosided", {"space": Space(Family.REAL_PROJECTIVE, 3)}),
    ("hemi.d.bly345", {"d": 3}),
])
def test_verify_binds_each_side_once(bound_id, params, monkeypatch):
    calls = []
    real = bounds.lclass_volume
    monkeypatch.setattr(bounds, "lclass_volume",
                        lambda *a: calls.append(a) or real(*a))
    counts = []
    for n in (3, 2001):
        calls.clear()
        bounds.verify(bound_id, params, [i * 60 / (n - 1) for i in range(n)])
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _plain_power_sides(exact: bool):
    """The matrix's sides of class Power itself that keep an exact path for
    int and Fraction z (2q an integer, c and b rational), or that do not."""
    for bound_id, params in bounds.entry_matrix():
        spec = bounds.get(bound_id)
        prm = spec.validate(dict(params))
        for rule in spec.sides:
            side = rule.bind(**prm)
            if type(side) is bounds.Power \
                    and (side.halves is not None) == exact:
                label = ",".join(f"{k}={getattr(v, 'describe', lambda: v)()}"
                                 for k, v in sorted(params.items()))
                yield pytest.param(side, id=f"{bound_id}[{label}]-{rule.side}")


@pytest.mark.parametrize("side", list(_plain_power_sides(exact=True)))
def test_half_power_float_branch_equals_the_exact_expression(side):
    # float (+) Fraction is float (+) float(Fraction): the float branch
    # must give the very float the exact expression gives.
    rng = random.Random(2024)
    zs = [0.0, 5e-324, 1e15] + [rng.random() * 10.0 ** rng.randint(-6, 9)
                                for _ in range(1000)]
    for z in zs:
        want = side.c * bounds._pow_half(z + side.b, side.halves)
        got = side(z)
        assert type(got) is type(want) is float and got == want, z


@pytest.mark.parametrize("side", list(_plain_power_sides(exact=False)))
def test_float_constant_power_evaluates_in_binary64(side):
    # Float constants leave no exact path: every z takes the float one.
    for z in (0, 3, 1234, Fraction(9, 4), Fraction(47, 7), 0.0, 0.75, 47.5,
              1e6):
        want = side.cf * (float(z) + side.bf) ** side.q
        got = side(z)
        assert type(got) is float and got == want, z


def test_average_bounds_hold_with_equality_at_gap_indices_d2():
    rep = bounds.verify("sd.avg.twosided", {"d": 2}, grid=list(range(1, 200)))
    assert rep.passed
    lower = [s for s in rep.sides if s.side == "lower"][0]
    assert lower.min_slack == 0.0      # equality at every gap index for d=2


@pytest.mark.parametrize("d", [2, 3, 5])
def test_average_targets_are_the_exact_averages_rounded(d):
    # verify divides the integer sums by k; the float must be the one
    # float(Fraction) gives, bit for bit, in every side's rows.
    q = SpectrumQuery(sphere(d))
    grid = bounds.standard_grid("sd.avg.twosided", {"d": d}, points=300,
                                zmax=40000)
    grid = grid[::-1] + [1, 7, 40000, 39999]
    for side in bounds.verify("sd.avg.twosided", {"d": d}, grid).sides:
        assert [t.hex() for _, t, _, _ in side.points] == [
            float(eigenvalue_average(q, k)).hex() for k in grid]
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        bounds.verify("sd.avg.twosided", {"d": d}, [3, 0, 5])


@pytest.mark.parametrize("k", [Fraction(5, 2), 2.5, 3.0, Fraction(3)],
                         ids=["fraction-5/2", "float-2.5", "float-3.0",
                              "fraction-3"])
def test_average_entries_refuse_a_k_that_is_not_an_int(k):
    # An average over 2.5 eigenvalues is no average, and the exact path
    # has no float or Fraction k: every such k is one ValueError.
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        bounds.verify("sd.avg.twosided", {"d": 3}, [1, k, 4])


@pytest.mark.parametrize("k", [2.5, True, Fraction(5, 2)],
                         ids=["float-2.5", "bool", "fraction-5/2"])
def test_bound_value_refuses_a_k_that_is_not_a_whole_number(k):
    # The closed forms take an integral float or Fraction k on both
    # arithmetic paths; a fractional k or a bool is one ValueError, with
    # the message of eigenvalue_average.
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        bounds.bound_value("sd.avg.twosided", {"d": 3}, k, side="lower")


def test_scan_report_serializes_to_json():
    rep = bounds.verify("s2.r1.upper", points=100, levels=10)
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    assert json.loads(blob)["passed"] is True


def test_tolerance_override_flags_float_noise():
    rep = bounds.verify("s1.r1.upper.shift", points=2000, levels=40,
                        tol=1e-18)
    assert not rep.passed  # float noise trips an absurdly tight tolerance


def test_standard_grid_contains_levels_and_equality_points():
    grid = bounds.standard_grid("s2.r1.upper", points=50, levels=10)
    for lam in (0.0, 2.0, 6.0, 12.0):
        assert lam in grid
    assert 0.5 in grid and 3.5 in grid
    assert grid == sorted(grid)


@pytest.mark.parametrize("bound_id,params", [
    ("s2.r1.upper", {}), ("sd.avg.twosided", {"d": 3})])
@pytest.mark.parametrize("points", [0, -5])
def test_standard_grid_rejects_fewer_than_one_point(bound_id, params, points):
    with pytest.raises(ValueError,
                       match=f"points must be an integer >= 1, got {points}"):
        bounds.standard_grid(bound_id, params, points=points)


@pytest.mark.parametrize("levels", [0, -3])
@pytest.mark.parametrize("build", [
    lambda levels: bounds.standard_grid("s2.r1.upper", levels=levels),
    lambda levels: bounds.standard_grid("sd.avg.twosided", {"d": 3},
                                        levels=levels),
    lambda levels: bounds.verify("sd.r1.lower", {"d": 3}, levels=levels),
    lambda levels: bounds.verify("s2.r1.lower", {}, [0.5, 2.0],
                                 levels=levels),
], ids=["standard_grid", "standard_grid-average", "verify", "verify-grid"])
def test_fewer_than_one_level_is_refused(build, levels):
    with pytest.raises(ValueError,
                       match=f"levels must be an integer >= 1, got {levels}"):
        build(levels)


def test_standard_grid_average_spreads_points_up_to_zmax():
    spread = bounds.standard_grid("sd.avg.twosided", {"d": 3}, zmax=5000,
                                  points=50)
    assert len(spread) == 51 and spread[0] == 1 and spread[-1] == 5000
    assert spread == sorted(set(spread))
    # Up to points + 1 values of k, the grid is every k.
    assert bounds.standard_grid("sd.avg.twosided", {"d": 3}, zmax=51,
                                points=50) == list(range(1, 52))
    assert bounds.standard_grid("sd.avg.twosided", {"d": 3},
                                points=50) == list(range(1, 51))


BAD_ZMAX = re.escape("zmax must be a finite number in "
                     "(0, 1.7976931348623157e+308], got ")


@pytest.mark.parametrize("bound_id,params,zmax,message", [
    ("s2.r1.upper", {}, 2.0e8, "level cap 10000 exceeded at z=200000000.0"),
    ("sd.avg.twosided", {"d": 2}, 0.5, "k must be an integer >= 1"),
    ("s2.r1.lower", {}, 0, BAD_ZMAX + "0$"),
    ("s2.r1.lower", {}, -1.0, BAD_ZMAX + "-1.0"),
    ("s2.r1.lower", {}, math.nan, BAD_ZMAX + "nan"),
    ("sd.avg.twosided", {"d": 3}, 0.0, BAD_ZMAX + "0.0"),
    ("sd.avg.twosided", {"d": 3}, math.inf, BAD_ZMAX + "inf"),
    ("sd.avg.twosided", {"d": 3}, -math.inf, BAD_ZMAX + "-inf"),
], ids=["z-past-cap", "k-below-one", "z-zero", "z-negative", "z-nan",
        "k-zero", "k-inf", "k-minus-inf"])
def test_standard_grid_checks_zmax_through_the_table(bound_id, params, zmax,
                                                     message):
    with pytest.raises(ValueError, match=message):
        bounds.standard_grid(bound_id, params, zmax=zmax)


def test_verify_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="grid must not be empty"):
        bounds.verify("s2.r1.upper", {}, [])


def test_verify_accepts_unsorted_grids_with_duplicates():
    grid = [6.5, 2.0, 0.25, 6.5, 12.0, 2.0]
    rows = {side.side: side.points
            for side in bounds.verify("s2.r1.upper", grid=grid).sides}
    ref = {side.side: {p[0]: p for p in side.points} for side in
           bounds.verify("s2.r1.upper", grid=sorted(set(grid))).sides}
    assert rows == {side: tuple(pts[z] for z in grid)
                    for side, pts in ref.items()}


def test_s1_equality_points_solve_the_fluctuation_equation():
    # psi(w) = w - sqrt(w^2 + 1/12) at each returned point, one per gap.
    from spectral_riesz.spaces import fluctuation
    pts = _equality("s1.r1.upper.shift", count=10)
    for l, z in enumerate(pts):
        w = math.sqrt(float(z))
        assert l < w < l + 1
        assert abs(fluctuation(w) - (w - math.sqrt(w * w + 1 / 12))) <= 1e-12


def test_bly345_diagnostic_matches_independent_gap_maximum():
    # f_L(x_L) agrees with a blind golden-section maximum of the ratio
    # R1^D / (L^class |S^d_+| z^(d/2+1)) over the level gap.
    from spectral_riesz.weyl import lclass_volume

    for d, L in [(3, 2), (4, 1), (5, 3), (6, 1)]:
        diag = bounds.bly345_gap_diagnostics(d, L)
        q = SpectrumQuery(hemisphere_dirichlet(d))
        c = float(lclass_volume(hemisphere_dirichlet(d), 1))

        def ratio(z):
            return float(riesz_mean(q, 1, z)) / (c * z ** (d / 2 + 1))

        lo, hi = float(L * (L + d - 1)), float((L + 1) * (L + d))
        phi = (math.sqrt(5) - 1) / 2
        a, b = lo, hi
        c1, c2 = b - (b - a) * phi, a + (b - a) * phi
        f1, f2 = ratio(c1), ratio(c2)
        while b - a > 1e-12 * hi:
            if f1 < f2:
                a, c1, f1 = c1, c2, f2
                c2 = a + (b - a) * phi
                f2 = ratio(c2)
            else:
                b, c2, f2 = c2, c1, f1
                c1 = b - (b - a) * phi
                f1 = ratio(c1)
        assert max(f1, f2) == pytest.approx(diag.ratio_at_crit, rel=1e-10)


# Every catalog side is one expression for both arithmetic paths; the
# float path must track the exact one at rational arguments.
def _every_side():
    for bound_id, params in bounds.entry_matrix():
        for rule in bounds.get(bound_id).sides:
            label = ",".join(f"{k}={getattr(v, 'describe', lambda: v)()}"
                             for k, v in sorted(params.items()))
            yield pytest.param(bound_id, params, rule.side,
                               id=f"{bound_id}[{label}]-{rule.side}")


@pytest.mark.parametrize("bound_id,params,side", list(_every_side()))
def test_float_path_matches_exact_path(bound_id, params, side):
    spec, fn = bounds._resolve_side(bound_id, params, side)
    if spec.quantity == "average":  # bound_value's k is an int
        args = [1, 7, 40]
    else:
        args = [Fraction(9, 4), Fraction(47, 7), Fraction(12),
                Fraction(301, 3)]
    for z in args:
        exact = bounds.bound_value(bound_id, params, z, side=side)
        approx = fn(float(z)) if spec.quantity == "average" else \
            bounds.bound_value(bound_id, params, float(z), side=side)
        assert float(approx) == pytest.approx(float(exact), rel=1e-12,
                                              abs=0), z


@pytest.mark.parametrize("bound_id,params,side", list(_every_side()))
def test_bound_value_rejects_bad_arguments_on_every_side(bound_id, params,
                                                         side):
    for bad in (math.nan, math.inf, -math.inf, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            bounds.bound_value(bound_id, params, bad, side=side)
    if bounds.get(bound_id).quantity == "average":
        for bad in (0, Fraction(1, 2)):
            with pytest.raises(ValueError):
                bounds.bound_value(bound_id, params, bad, side=side)
    # Past float range a side gives its exact value or one ValueError; an
    # average side, the root of an integer ratio, gives the float that its
    # Fraction expression gives through _root.
    average = bounds.get(bound_id).quantity == "average"
    huge = 10 ** 400 if average else Fraction(10 ** 400)
    try:
        value = bounds.bound_value(bound_id, params, huge, side=side)
    except ValueError as exc:
        assert "z=" in str(exc)
    else:
        if average:
            assert value == _average_sides_by_fraction(params["d"])[side](
                huge)
        else:
            assert isinstance(value, Fraction)


# _scan_side works in columns; this is the per-point loop it replaced, kept
# as the reference for every SideReport field.
def _scan_side_per_point(side, bound, grid, zs, targets, gaps, tol):
    rows, violations = [], []
    min_slack, arg = math.inf, 0.0
    gap_min = {}
    for i, (x, zf, tgt) in enumerate(zip(grid, zs, targets)):
        bnd = float(bound(x))
        slack = (bnd - tgt) if side == "upper" else (tgt - bnd)
        rows.append((zf, tgt, bnd, slack))
        if slack < min_slack:
            min_slack, arg = slack, zf
        if gaps is not None:
            gap_min[gaps[i]] = min(gap_min.get(gaps[i], math.inf), slack)
        if slack < -tol * max(1.0, abs(bnd)):
            violations.append(bounds.Violation(zf, tgt, bnd, slack, side))
    return bounds.SideReport(
        side, len(rows), min_slack, arg, len(violations),
        violations[0] if violations else None, tuple(violations[:20]),
        tuple(sorted(gap_min.items())), tuple(rows))


def _same(a, b):
    """Equal in type and value (NaN equal to NaN), recursively."""
    if isinstance(a, tuple):  # a record or a plain tuple
        return (type(b) is type(a) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if type(a) is not type(b):
        return False
    return a == b or (a != a and b != b)


def _assert_same_report(got, want):
    for name in bounds.SideReport._fields:
        g, w = getattr(got, name), getattr(want, name)
        assert repr(g) == repr(w), name
        assert _same(g, w), name


_NAN = float("nan")
SCAN_CASES = {
    # x -> bound; targets are 1.0 except where the case says otherwise.
    "nan-slack": ([0, 1, 2, 3], [_NAN, 0.5, _NAN, 0.25], None, [1.0] * 4),
    "nan-first-and-only": ([0, 1], [_NAN, _NAN], [1, 1], [1.0, 1.0]),
    "signed-zero-ties": ([0, 1, 2, 3, 4], [2.0, 0.0, -0.0, 0.0, -0.0],
                         [1, 1, 2, 2, 1], [0.0, 0.0, 0.0, -0.0, 0.0]),
    "negative-zero-first": ([0, 1, 2], [-0.0, 0.0, 1.0], [3, 3, 3],
                            [0.0, 0.0, 0.0]),
    "infinite": ([0, 1, 2], [math.inf, -math.inf, 1.0], [1, 2, 1],
                 [1.0, 1.0, 1.0]),
    "unsorted-repeated-gaps": (
        [7, 2, 9, 2, 5, 0, 5, 3], [3.0, 1.5, -2.0, 1.5, 4.0, 0.5, 3.5, 1.0],
        [4, 1, 4, 1, 2, 0, 2, 1], [2.0, 1.0, 1.0, 1.25, 3.0, 0.5, 3.5, 1.0]),
}


def _many_violations():
    rng = random.Random(12)
    grid = list(range(60))
    rng.shuffle(grid)
    values = [rng.uniform(-5, 5) for _ in grid]
    gaps = [x // 7 for x in grid]
    targets = [rng.uniform(-5, 5) for _ in grid]
    return grid, values, gaps, targets


SCAN_CASES["more-than-20-violations"] = _many_violations()


@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("with_gaps", [True, False])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_side_columns_match_the_per_point_loop(case, with_gaps, side):
    grid, values, gaps, targets = SCAN_CASES[case]
    bound = dict(zip(grid, values)).__getitem__
    zs = [float(x) for x in grid]
    gaps = gaps if with_gaps else None
    for tol in (1e-9, 0.5):
        got = bounds._scan_side(side, bound, grid, zs, targets, gaps, tol)
        want = _scan_side_per_point(side, bound, grid, zs, targets, gaps,
                                    tol)
        _assert_same_report(got, want)
    if case == "more-than-20-violations":
        assert want.n_violations > 20 and len(want.violations) == 20


def test_scan_side_columns_match_the_per_point_loop_on_the_catalog():
    from spectral_riesz.riesz import evaluate_grid
    for bound_id, params in bounds.entry_matrix():
        spec = bounds.get(bound_id)
        prm = spec.validate(dict(params))
        grid = bounds.standard_grid(bound_id, prm, points=150, levels=12)
        grid = grid[::2] + grid[1::2]  # unsorted: gap levels repeat apart
        zs = [float(x) for x in grid]
        targets, gaps = evaluate_grid(spec.query(prm), spec.quantity, grid)
        targets = [float(t) for t in targets]
        for rule in spec.sides:
            side = rule.bind(**prm)
            got = bounds._scan_side(rule.side, side, grid, zs, targets,
                                    gaps, 1e-9)
            want = _scan_side_per_point(rule.side, side, grid, zs, targets,
                                        gaps, 1e-9)
            _assert_same_report(got, want)


def _average_sides_by_fraction(d):
    """The sd.avg.twosided sides as Fraction expressions: the reference
    for the integer form they evaluate in."""
    ratio, w0 = Fraction(d, d + 2), bounds.lclass_volume(bounds.sphere(d), 0)
    zd = bounds._zd(d)

    def upper(k):
        return ratio * bounds._root((Fraction(k) / w0) ** 2, d)
    return {"upper": upper, "lower": lambda k: upper(k) - zd}


def _average_arguments(d):
    rng = random.Random(d)
    w0 = bounds.lclass_volume(bounds.sphere(d), 0)
    powers = [w0 * i ** d for i in range(1, 13)]  # (k / w0)^2 = (i^2)^d
    ks = list(range(1, 3001)) + [Fraction(k, 7) for k in range(1, 400)]
    ks += powers + [int(k) for k in powers if k.denominator == 1]
    ks += [float(k) for k in powers] + [i ** d for i in range(1, 40)]
    ks += [rng.random() * 10.0 ** rng.randint(-3, 12) for _ in range(500)]
    ks += [float(k) for k in range(1, 200)] + [0.5, 1e-300, 5e-324, 1e300]
    ks += [10 ** 30, 10 ** 30 + 1, float(10 ** 30), Fraction(10 ** 30, 7)]
    ks += [0, 0.0, -3, Fraction(-5, 7), -2.5]
    return ks


def _outcome(side, k):
    """(type, value) of side(k), or the type of the exception it raises
    (a float root of n/m past float range overflows)."""
    try:
        value = side(k)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return type(value), value


@pytest.mark.parametrize("d", range(2, 9))
def test_average_sides_match_the_fraction_expression(d):
    reference = _average_sides_by_fraction(d)
    for side in ("lower", "upper"):
        _, got = bounds._resolve_side("sd.avg.twosided", {"d": d}, side)
        want = reference[side]
        for k in _average_arguments(d):
            assert _outcome(got, k) == _outcome(want, k), (side, k)
        for bad in (float("nan"), math.inf, -math.inf):
            assert _outcome(want, bad) in (ValueError, OverflowError)
            assert _outcome(got, bad) == _outcome(want, bad), bad


@pytest.mark.parametrize("d", range(2, 9))
def test_sd_lower_shift_float_branch_equals_the_exact_expression(d):
    _, side = bounds._resolve_side("sd.r1.lower.shift", {"d": d}, None)
    ld, shift = bounds._ld(d), Fraction(d * (d - 2) * (d + 2), 12)
    rng = random.Random(2025 + d)
    zs = [0.0, 5e-324, 1e15] + [rng.random() * 10.0 ** rng.randint(-6, 9)
                                for _ in range(1000)]
    for z in zs:
        want = ld * bounds._pow_half(z, d) * (z + shift)
        got = side(z)
        assert type(got) is type(want) is float and got == want, z
    for z in (Fraction(9, 4), Fraction(47, 7), Fraction(12)):
        assert side(z) == ld * bounds._pow_half(z, d) * (z + shift)
