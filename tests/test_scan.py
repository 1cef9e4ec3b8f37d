import math
from fractions import Fraction

import pytest

from spectral_riesz import bounds, scan, weyl
from spectral_riesz.scan import (DEFAULT_LEVEL_RANGE, Series,
                                 figure, gap_extrema, w_grid)
from spectral_riesz.spaces import invert_w, sphere
from spectral_riesz.weyl import lclass_volume

EXPECTED_LAYOUT = {
    "f1": 4, "f2": 12, "f34": 6, "f4": 2, "f5": 2,
    "f6": 1, "f7": 3, "f8": 3, "f9": 4, "f10": 4,
}


@pytest.mark.parametrize("fig_id,count", sorted(EXPECTED_LAYOUT.items()))
def test_figure_series_layout(fig_id, count):
    series = figure(fig_id, resolution=6, l_max=12)
    assert len(series) == count
    for s in series:
        zs = [z for z, _ in s.points]
        assert zs == sorted(zs)
        assert all(math.isfinite(v) for _, v in s.points)


def test_unknown_figure_rejected():
    with pytest.raises(ValueError):
        figure("f11")


def test_figures_reproducible_bit_for_bit():
    a = figure("f5", resolution=10, l_max=15)
    b = figure("f5", resolution=10, l_max=15)
    assert a == b


def test_f1_lower_series_touches_zero_at_levels():
    s = next(s for s in figure("f1", 8, 12) if s.label == "r1_vs_lower")
    by_z = dict(s.points)
    for lam in (2.0, 6.0, 12.0, 20.0):
        assert by_z[lam] == 0.0
    # strictly positive off the levels
    assert all(v >= 0.0 for v in by_z.values())


def test_f2_panels_agree_exactly_on_overlaps():
    series = {s.label: dict(s.points) for s in figure("f2", 6, 16)}
    full = series["nd_vs_weyl:panel1"]
    for panel in ("nd_vs_weyl:panel2", "nd_vs_weyl:panel3",
                  "nd_vs_weyl:panel4"):
        for z, v in series[panel].items():
            assert full[z] == v


@pytest.mark.parametrize("l_max", range(1, 9))
def test_f2_panels_are_never_empty(l_max):
    for s in figure("f2", 2, l_max):
        assert s.points, s.label


def test_f5_upper_series_nonpositive_and_vanishing_at_half_integer_w():
    s = next(s for s in figure("f5", 8, 40)
             if s.label == "r1_vs_shifted_upper")
    assert max(v for _, v in s.points) <= 0.0
    at_env = [abs(v) for z, v in s.points
              if abs(invert_w(3, z) % 1 - 0.5) < 1e-9 and z > 100]
    # decays like z^(-3/2) along the psi = 0 envelope
    assert at_env and at_env[-1] < 1e-6 and at_env[-1] < at_env[0] / 10


def test_f10_p4_series_crosses_zero_near_81():
    s = next(s for s in figure("f10", 40, 6) if "p4" in s.label)
    window = [(z, v) for z, v in s.points if 60 <= z <= 110]
    assert any(v1 * v2 < 0 for (_, v1), (_, v2) in zip(window, window[1:]))
    # and the z = 81 value itself is positive: 195 > 194.4
    verify = [v for z, v in s.points if abs(z - 81) < 2]
    assert all(v > 0 for v in verify)


def test_f9_series_cover_dimensions_2_to_5():
    labels = {s.label for s in figure("f9", 4, 8)}
    assert labels == {f"r1_bih_vs_weyl_d{d}" for d in (2, 3, 4, 5)}


@pytest.mark.parametrize("fig_id,pair", [
    ("f4", ("r1_vs_leading", "r1_vs_two_term")),
    ("f7", ("r1d_vs_weyl", "r1d_vs_three_term")),
    ("f8", ("r1n_vs_weyl", "r1n_vs_three_term")),
])
def test_expansion_series_decay_faster_than_leading(fig_id, pair):
    series = {s.label: s for s in figure(fig_id, 10, DEFAULT_LEVEL_RANGE)}
    lead_label, exp_label = pair
    zmax = series[lead_label].points[-1][0]
    top = lambda s: max(abs(v) for z, v in s.points if z >= zmax / 10)
    assert top(series[lead_label]) >= 10 * top(series[exp_label])


def test_f6_three_term_beats_leading_by_factor_ten():
    three = figure("f6", 10, DEFAULT_LEVEL_RANGE)[0]
    from spectral_riesz.riesz import SpectrumQuery, counting
    q = SpectrumQuery(sphere(3))
    lead = float(lclass_volume(sphere(3), 0))
    zmax = three.points[-1][0]
    lead_sup = max(abs(counting(q, z) / (lead * z ** 1.5) - 1)
                   for z, _ in three.points if z >= zmax / 10)
    exp_sup = max(abs(v) for z, v in three.points if z >= zmax / 10)
    assert lead_sup >= 10 * exp_sup


#: Grids with a repeated, decreasing, NaN or infinite z, or a value that is
#: not finite; every comparison with NaN is false, so NaN must not pass.
BAD_POINTS = [
    ((1.0, 0.0), (1.0, 1.0)),
    ((2.0, 0.0), (1.0, 1.0)),
    ((1.0, math.nan),),
    ((1.0, 0.0), (2.0, math.inf)),
    ((1.0, -math.inf), (2.0, 0.0)),
    ((math.nan, 0.0),),
    ((math.inf, 0.0),),
    ((-math.inf, 0.0),),
    ((1.0, 0.0), (math.inf, 1.0)),
    ((-math.inf, 0.0), (1.0, 1.0)),
    ((math.nan, 0.0), (1.0, 1.0)),
    ((1.0, 0.0), (math.nan, 1.0), (0.5, 2.0)),     # z goes back down
    ((1.0, 0.0), (math.nan, 1.0), (2.0, 2.0)),
]


def test_series_invariants_enforced():
    for points in BAD_POINTS:
        with pytest.raises(ValueError, match="series (grid|values) must be"):
            Series("bad", points)


@pytest.mark.parametrize("points", [
    (), ((0.5, -0.0),), ((1, 0.25), (Fraction(3, 2), Fraction(-1, 3))),
    ((5e-324, 1e300), (1e300, -1e300)),
    ((Fraction(1, 3), 0.0), (10 ** 400, 1.0))],
    ids=["empty", "one-point", "int-fraction", "extremes", "past-float-z"])
def test_series_accepts_finite_increasing_grids(points):
    assert Series("ok", points).points == points


#: Distinct (query, quantity, grid) columns behind each figure.
COLUMNS = {"f1": 1, "f2": 1, "f34": 2, "f4": 1, "f5": 1, "f6": 1, "f7": 2,
           "f8": 2, "f9": 4, "f10": 4}


@pytest.mark.parametrize("fig_id", sorted(COLUMNS))
def test_figure_sweeps_each_column_once(fig_id, monkeypatch):
    calls = []
    real = scan.evaluate_grid
    monkeypatch.setattr(scan, "evaluate_grid",
                        lambda *a: calls.append(a[:2]) or real(*a))
    figure(fig_id, 3, 10)
    assert len(calls) == COLUMNS[fig_id]
    assert len(set(calls)) == len(calls)


def test_gap_extrema_match_closed_form_maximizer():
    d = 3
    c = float(lclass_volume(sphere(d), 1))
    zd = d * (2 * d - 1) / 12
    for e in gap_extrema(sphere(d), [1, 7, 25], (c, d / 2 + 1, zd)):
        L = e.level
        predicted = L * (L + d) + 2 * zd / d     # rho_b - b
        assert e.z_star == pytest.approx(predicted, abs=1e-6 * predicted)
        assert e.is_unique
        assert e.ratio_star < 1.0


def test_gap_extrema_plain_weyl_reference_interior_maximum():
    d = 3
    c = float(lclass_volume(sphere(d), 1))
    (e,) = gap_extrema(sphere(d), [1], (c, d / 2 + 1, 0.0))
    assert 3.0 < e.z_star < 8.0
    assert e.is_unique and e.ratio_star > 1.0


def test_gap_extrema_proves_a_maximum_in_the_first_sampling_interval():
    # On S^2 after level l, R1 = N z - S with N = (l+1)^2; the shift b puts
    # the ratio's maximum z* = (qS + Nb)/(N(q-1)) at lo + (hi - lo)/1000,
    # inside the first of 256 equal subintervals of the gap.
    l, q_ref = 10, 2.0
    lo, hi = l * (l + 1), (l + 1) * (l + 2)
    n = (l + 1) ** 2
    s = sum((2 * j + 1) * j * (j + 1) for j in range(l + 1))
    z_star = lo + (hi - lo) / 1000
    b = z_star * (q_ref - 1) - q_ref * s / n
    (e,) = gap_extrema(sphere(2), [l], (1.0, q_ref, b))
    assert e.is_unique
    assert lo < e.z_star < lo + (hi - lo) / 256
    assert e.z_star == pytest.approx(z_star, rel=1e-6)


def test_gap_extrema_empty_range():
    c = float(lclass_volume(sphere(3), 1))
    assert gap_extrema(sphere(3), [], (c, 2.5, 0.0)) == []


def test_gap_extrema_requires_sphere():
    from spectral_riesz.spaces import hemisphere_dirichlet
    with pytest.raises(ValueError):
        gap_extrema(hemisphere_dirichlet(3), [1], (1.0, 2.5, 0.0))


def test_gap_extrema_refuses_a_level_that_is_not_an_int():
    with pytest.raises(ValueError, match="level must be an integer"):
        gap_extrema(sphere(2), [2.5], (1.0, 2.0, 0.0))


def test_w_grid_is_strictly_increasing():
    g = w_grid(3, 10, 16)
    assert g == sorted(set(g))
    assert g[0] == 0.0 and g[-1] == 10 * 12


@pytest.mark.parametrize("d,l_max,per_interval", [
    (2, 61, 39), (3, 60, 40), (5, 59, 41), (2, 1, 1), (4, 3, 7)])
def test_w_grid_matches_the_point_by_point_grid(d, l_max, per_interval):
    # w = l + k / per_interval in each interval, then w = l_max; the
    # figures' bytes depend on every bit of z = w (w + d - 1).
    want = []
    for l in range(l_max):
        for k in range(per_interval):
            w = l + k / per_interval
            want.append(w * (w + d - 1))
    w = float(l_max)
    want.append(w * (w + d - 1))
    got = w_grid(d, l_max, per_interval)
    assert [z.hex() for z in got] == [z.hex() for z in want]


@pytest.mark.parametrize("fig_id", ["f4", "f5", "f6", "f7", "f8", "f9",
                                    "f10"])
def test_figure_binds_each_reference_once(fig_id, monkeypatch):
    # Expansions, bound sides and Weyl powers look their constant up once
    # per series, however fine the grid.
    calls = []
    real = weyl.lclass_volume
    for module in (weyl, scan, bounds):
        monkeypatch.setattr(module, "lclass_volume",
                            lambda *a: calls.append(a) or real(*a))
    counts = []
    for resolution in (2, 40):
        calls.clear()
        figure(fig_id, resolution, 12)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _per_point_series(q, raw, ref, zs):
    """(z, raw/ref - 1) computed point by point, as the series define it."""
    return tuple((z, float(raw(q, z)) / float(ref(z)) - 1.0)
                 for z in zs if z > 0)


def _expected_series(fig_id, res, l_max):
    from spectral_riesz.bounds import bound_value
    from spectral_riesz.riesz import SpectrumQuery, counting, riesz_mean
    from spectral_riesz.spaces import hemisphere_dirichlet
    from spectral_riesz.weyl import expansion

    n = counting
    r1 = lambda q, z: riesz_mean(q, 1, z)
    side = lambda bid, s: lambda z: bound_value(bid, {}, z, side=s)
    if fig_id == "f1":
        q, zs = SpectrumQuery(sphere(2)), w_grid(2, l_max, res)
        return {label: _per_point_series(q, r1, side(bid, s), zs)
                for label, bid, s in [
                    ("r1_vs_upper", "s2.r1.upper", "upper"),
                    ("r1_vs_lower", "s2.r1.lower", "lower"),
                    ("r1_vs_upper_improved", "s2.r1.upper.imp", "upper"),
                    ("r1_vs_lower_improved", "s2.r1.lower.imp", "lower")]}
    if fig_id == "f2":
        q, out = SpectrumQuery(hemisphere_dirichlet(2)), {}
        for i, lcap in enumerate([l_max, l_max // 2, l_max // 4, l_max // 8],
                                 start=1):
            zs = [z for z in w_grid(2, l_max, res) if z <= lcap * (lcap + 1)]
            for label, bid, s in [("nd_vs_weyl", "hemi2.nd.polya", "upper"),
                                  ("nd_vs_upper", "hemi2.nd.twosided", "upper"),
                                  ("nd_vs_lower", "hemi2.nd.twosided", "lower")]:
                out[f"{label}:panel{i}"] = _per_point_series(
                    q, n, side(bid, s), zs)
        return out
    if fig_id == "f6":
        sp = sphere(3)
        return {"n_vs_three_term": _per_point_series(
            SpectrumQuery(sp), n, lambda z: expansion(sp, "N", z, 3).value,
            w_grid(3, l_max, res))}
    if fig_id == "f7":
        hd = hemisphere_dirichlet(3)
        q, zs = SpectrumQuery(hd), [z for z in w_grid(3, l_max, res) if z > 3]
        lead = float(lclass_volume(hd, 1))
        return {
            "nd_vs_three_term": _per_point_series(
                q, n, lambda z: expansion(hd, "N", z, 3).value, zs),
            "r1d_vs_weyl": _per_point_series(
                q, r1, lambda z: lead * z ** 2.5, zs),
            "r1d_vs_three_term": _per_point_series(
                q, r1, lambda z: expansion(hd, "R1", z, 3).value, zs),
        }
    out = {}  # f10: R1 less the zero level of (-Delta)^p on S^2
    for p in (2, 3, 4, 5):
        lead = float(lclass_volume(sphere(2), 1, p))
        out[f"r1_p{p}_minus_z_vs_weyl"] = _per_point_series(
            SpectrumQuery(sphere(2), power=p),
            lambda q, z: riesz_mean(q, 1, z) - z,
            lambda z: lead * z ** (1 + 1 / p),
            [z ** p for z in w_grid(2, l_max, res)])
    return out


@pytest.mark.parametrize("fig_id", ["f1", "f2", "f6", "f7", "f10"])
def test_series_values_equal_the_per_point_path(fig_id):
    # Every reference kind (bound side, expansion, Weyl power), N and R1,
    # the f2 zoom cuts and the f10 zero-level subtraction, compared with ==.
    got = {s.label: s.points for s in figure(fig_id, 6, 12)}
    expected = _expected_series(fig_id, 6, 12)
    assert got.keys() == expected.keys()
    for label, points in expected.items():
        assert points and got[label] == points, label


def test_f34_lower_series_are_the_column_above_two():
    # The lower series slice the shared R1 column after z = 2, a grid
    # point (w = 1), and equal the per-point path there.
    from spectral_riesz.bounds import bound_value
    from spectral_riesz.riesz import SpectrumQuery, riesz_mean
    from spectral_riesz.spaces import hemisphere_dirichlet, hemisphere_neumann

    got = {s.label: s.points for s in figure("f34", 6, 12)}
    grid = w_grid(2, 12, 6)
    assert 2.0 in grid
    zs = [z for z in grid if z > 2]
    for space, tag in ((hemisphere_dirichlet(2), "d"),
                       (hemisphere_neumann(2), "n")):
        bid = f"hemi2.r1{tag}.lower"
        assert got[f"r1{tag}_vs_lower"] == _per_point_series(
            SpectrumQuery(space), lambda q, z: riesz_mean(q, 1, z),
            lambda z: bound_value(bid, {}, z, side="lower"), zs)
