"""The bad-input contract, table-driven.

Every integer argument of the library goes through `spaces.require_int`,
and every real one through `spaces.require_real`; a bool is neither.
Each row of INT_ARGS names one integer argument: a call that takes the
value, the argument's name and its inclusive bounds.  A bool, a
non-integral and an integral float, an integral Fraction and lo - 1 (and
hi + 1 where there is a hi) are each exactly one ValueError in the one
wording, and lo itself is accepted.  Each row of REAL_ARGS names one real
argument the same way, with its lower bound, its upper bound (inf, or the
largest float where the value is converted to float) and whether lo itself
is excluded: a bool, NaN, +-inf and values below lo are the one wording.
The rows after the tables cover the overflow inputs that refuse with a
ValueError of their own, and the declared dimension range.
"""

import decimal
import inspect
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spectral_riesz
from spectral_riesz import bounds, weyl
from spectral_riesz.riesz import (SpectrumQuery, counting, eigenvalue_average,
                                  eigenvalue_sums, evaluate_grid, lemma_sum,
                                  level_values_upto, max_level_index_pow,
                                  poly_transform_check, prefix_sums,
                                  riesz1_closed_sphere, riesz_mean)
from spectral_riesz.scan import figure
from spectral_riesz.spaces import (DIMENSION_CAP, Family, Space, eigenvalue,
                                   fluctuation, hemisphere_dirichlet,
                                   invert_w, level_columns, max_level_index,
                                   multiplicity, parse_space, sphere)
from spectral_riesz.sumrules import check_pq_identity, trace_identity_partial
from spectral_riesz.weyl import (BoundExpansion, expansion, lclass,
                                 lclass_volume, sphere_volume)

S2 = SpectrumQuery(sphere(2))

# (id, call, name, lo, hi): call(value) passes value as the argument.
INT_ARGS = [
    ("eigenvalue", lambda v: eigenvalue(sphere(3), v), "level", 0, None),
    ("eigenvalue-dirichlet",
     lambda v: eigenvalue(hemisphere_dirichlet(3), v), "level", 1, None),
    ("multiplicity", lambda v: multiplicity(sphere(3), v), "level", 0, None),
    ("level_value", lambda v: SpectrumQuery(sphere(3)).level_value(v),
     "level", 0, None),
    ("level_value-dirichlet",
     lambda v: SpectrumQuery(hemisphere_dirichlet(3)).level_value(v),
     "level", 1, None),
    ("invert_w-d", lambda v: invert_w(v, 1.0), "d", 1, None),
    ("level_columns",
     lambda v: level_columns(hemisphere_dirichlet(2), v, 5), "start", 1,
     None),
    ("SpectrumQuery", lambda v: SpectrumQuery(sphere(2), power=v), "power",
     1, None),
    ("prefix_sums", lambda v: prefix_sums(S2, v), "k", 1, None),
    ("eigenvalue_average", lambda v: eigenvalue_average(S2, v), "k", 1,
     None),
    ("eigenvalue_sums", lambda v: eigenvalue_sums(S2, [1, v]), "k", 1, None),
    ("poly_transform_check", lambda v: poly_transform_check(2, v, 3), "p", 2,
     None),
    ("lclass_volume-gamma", lambda v: lclass_volume(sphere(2), v), "gamma",
     0, 2),
    ("lclass_volume-p", lambda v: lclass_volume(sphere(2), 1, v), "p", 1,
     None),
    ("lclass-gamma", lambda v: lclass(v, 3), "gamma", 0, 2),
    ("BoundExpansion", lambda v: BoundExpansion(sphere(3), "N", v), "terms",
     1, 3),
    ("expansion", lambda v: expansion(sphere(3), "R1", 10.0, v), "terms", 1,
     2),
    ("param-d", lambda v: bounds.bound_value("sd.r1.lower", {"d": v}, 1.0),
     "d", 2, None),
    ("param-d-bounded",
     lambda v: bounds.bound_value("hemi.d.bly345", {"d": v}, 1.0), "d", 3, 5),
    ("param-p", lambda v: bounds.bound_value("hemi2.poly.bly", {"p": v}, 1.0),
     "p", 1, None),
    ("param-p-rule",
     lambda v: bounds.bound_value("sd.r1p.twosided", {"d": 3, "p": v}, 1.0,
                                  side="lower"), "p", 2, None),
    ("bound_value-k",
     lambda v: bounds.bound_value("sd.avg.twosided", {"d": 2}, v,
                                  side="lower"), "k", 1, None),
    ("optimal_shift-d", lambda v: bounds.optimal_shift(v, 1), "d", 2, None),
    ("optimal_shift-l", lambda v: bounds.optimal_shift(3, v), "l", 1, None),
    ("bly345-d", lambda v: bounds.bly345_gap_diagnostics(v, 1), "d", 2, None),
    ("bly345-level", lambda v: bounds.bly345_gap_diagnostics(3, v), "level",
     1, None),
    ("standard_grid-points",
     lambda v: bounds.standard_grid("s2.r1.lower", points=v, levels=2),
     "points", 1, None),
    ("standard_grid-levels",
     lambda v: bounds.standard_grid("s2.r1.lower", points=4, levels=v),
     "levels", 1, None),
    ("verify-points",
     lambda v: bounds.verify("s2.r1.lower", points=v, levels=2), "points", 1,
     None),
    ("verify-levels",
     lambda v: bounds.verify("s2.r1.lower", grid=[1.0], levels=v), "levels",
     1, None),
    ("figure-resolution", lambda v: figure("f1", resolution=v, l_max=2),
     "resolution", 1, None),
    ("figure-l_max", lambda v: figure("f1", resolution=2, l_max=v), "l_max",
     1, None),
    ("check_pq_identity", lambda v: check_pq_identity(sphere(2), v), "l_max",
     1, None),
    ("trace_identity_partial",
     lambda v: trace_identity_partial(sphere(2), v), "l_max", 0, None),
]


def _bad_values(lo, hi):
    out = [("bool", True), ("float", 2.5), ("integral-float", 2.0),
           ("fraction", Fraction(2)), ("below", lo - 1)]
    return out if hi is None else out + [("above", hi + 1)]


@pytest.mark.parametrize(
    "call,name,lo,hi,value",
    [pytest.param(call, name, lo, hi, value, id=f"{row}-{kind}")
     for row, call, name, lo, hi in INT_ARGS
     for kind, value in _bad_values(lo, hi)])
def test_a_bad_integer_argument_is_one_value_error(call, name, lo, hi, value):
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be an integer {span}, got {value!r}"


@pytest.mark.parametrize("call,lo", [
    pytest.param(call, lo, id=row) for row, call, _, lo, _ in INT_ARGS])
def test_the_lowest_integer_argument_is_accepted(call, lo):
    call(lo)


def test_lclass_caches_do_not_answer_a_bool_or_a_float():
    # A cached (space, 1) or (space, 1, 1) must not answer (space, True)
    # or (space, 1, 1.0) before the check.
    space = sphere(2)
    assert lclass_volume(space, 1) == lclass_volume(space, 1, 1) \
        == Fraction(1, 2)
    assert lclass(1, 2) == lclass(1, 2, 1)
    for call in (lambda: lclass_volume(space, True),
                 lambda: lclass_volume(space, 1, True),
                 lambda: lclass_volume(space, 1, 1.0),
                 lambda: lclass(True, 2),
                 lambda: lclass(1, 2, 1.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


FLOAT_MAX = sys.float_info.max
#: invert_w's root takes 4 z as a float.
INVERT_W_MAX = FLOAT_MAX / 4
#: The range of an expansion's z: the floats > 0 that invert_w takes.
EXPANSION_Z = (math.ulp(0.0), INVERT_W_MAX)
AREA_HI = 2 * math.pi * (1 + 1e-12)  # the full area of S^2_+, less strictly

# Besides the one wording, the ValueErrors a valid-looking value may meet:
# a lookup past the level cap, and a result past float range.
CAP = "level cap 10000 exceeded at "
SIDE = r"z=.* is beyond float range for the \w+ side of "
LEAD = r"expansion requires z\^\S+ in float range, got z="
LEGENDRE = r"k=.* is too large for the Legendre transform of "
S2P3 = SpectrumQuery(sphere(2), power=3)

# (id, call, name, lo, hi, strict, also): call(value) passes value as the
# argument, which must be a finite number >= lo (> lo when strict) and
# <= hi; `also` matches the other ValueErrors the call may raise.
REAL_ARGS = [
    ("counting", lambda v: counting(S2, v), "z", 0, math.inf, False, CAP),
    ("riesz_mean-1", lambda v: riesz_mean(S2, 1, v), "z", 0, math.inf,
     False, CAP),
    ("riesz_mean-2", lambda v: riesz_mean(S2, 2, v), "z", 0, math.inf,
     False, CAP),
    ("evaluate_grid", lambda v: evaluate_grid(S2, "R1", [v]), "z", 0,
     math.inf, False, CAP),
    ("max_level_index", lambda v: max_level_index(sphere(2), v), "z", 0,
     math.inf, False, CAP),
    ("max_level_index_pow", lambda v: max_level_index_pow(S2P3, v), "z", 0,
     math.inf, False, CAP),
    ("level_values_upto", lambda v: level_values_upto(S2, v), "z", 0,
     math.inf, False, CAP),
    ("poly_transform_check", lambda v: poly_transform_check(2, 2, v), "z",
     0, math.inf, False, CAP),
    ("riesz1_closed_sphere", lambda v: riesz1_closed_sphere(2, v), "z", 0,
     math.inf, False, CAP),
    ("lemma_sum", lambda v: lemma_sum(1, v), "z", 0, math.inf, False, CAP),
    ("invert_w", lambda v: invert_w(3, v), "z", 0, INVERT_W_MAX, False,
     None),
    ("fluctuation", fluctuation, "w", 0, math.inf, False, None),
    ("expansion", lambda v: expansion(sphere(3), "N", v, 3), "z",
     *EXPANSION_Z, False, LEAD),
    ("BoundExpansion", lambda v: BoundExpansion(sphere(3), "R1", 2)(v), "z",
     *EXPANSION_Z, False, LEAD),
    ("BoundExpansion-at",
     lambda v: BoundExpansion(hemisphere_dirichlet(2), "N", 3).at(v), "z",
     *EXPANSION_Z, False, LEAD),
    ("bound_value", lambda v: bounds.bound_value("s2.r1.lower", None, v),
     "z", 0, math.inf, False, SIDE),
    ("legendre_average_bound",
     lambda v: bounds.legendre_average_bound("sd.r1.upper.shift", {"d": 2},
                                             v), "k", 1, math.inf, False,
     LEGENDRE),
    ("standard_grid",
     lambda v: bounds.standard_grid("s2.r1.lower", zmax=v, points=4,
                                    levels=2), "zmax", 0, FLOAT_MAX, True,
     CAP),
    ("verify-zmax",
     lambda v: bounds.verify("s2.r1.lower", zmax=v, points=4, levels=2),
     "zmax", 0, FLOAT_MAX, True, CAP),
    ("verify-tol", lambda v: bounds.verify("s2.r1.lower", grid=[1.0], tol=v),
     "tol", 0, math.inf, True, None),
    ("area", lambda v: bounds.bound_value("dom.s2p.bly", {"area": v}, 1.0),
     "area", 0, AREA_HI, False, None),
]


def _real_message(name, lo, hi, strict, value):
    span = (f"{'>' if strict else '>='} {lo}" if hi == math.inf
            else f"in {'(' if strict else '['}{lo}, {hi}]")
    return f"{name} must be a finite number {span}, got {value!r}"


def _bad_reals(lo, hi, strict):
    out = [("true", True), ("false", False), ("nan", math.nan),
           ("inf", math.inf), ("-inf", -math.inf), ("below", lo - 1),
           ("tiny-below", Fraction(lo) - Fraction(1, 10 ** 400))]
    if strict or lo > 0:
        out += [("negative-zero", -0.0)]
    if strict:
        out += [("lo", lo)]
    if hi < math.inf:
        out += [("int-past-float", 10 ** 400),
                ("fraction-past-float", Fraction(10 ** 400))]
    if hi < INVERT_W_MAX:
        out += [("above", hi * 2)]
    elif hi < FLOAT_MAX:
        out += [("above", FLOAT_MAX)]
    return out


@pytest.mark.parametrize(
    "call,name,lo,hi,strict,value",
    [pytest.param(call, name, lo, hi, strict, value, id=f"{row}-{kind}")
     for row, call, name, lo, hi, strict, _ in REAL_ARGS
     for kind, value in _bad_reals(lo, hi, strict)])
def test_a_bad_real_argument_is_one_value_error(call, name, lo, hi, strict,
                                                value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == _real_message(name, lo, hi, strict, value)


@pytest.mark.parametrize("call,lo,strict", [
    pytest.param(call, lo, strict, id=row)
    for row, call, _, lo, _, strict, _ in REAL_ARGS])
def test_the_lowest_real_argument_is_accepted(call, lo, strict):
    # The lowest accepted value is lo, or the smallest float above it.
    call(math.nextafter(lo, math.inf) if strict else lo)
    if lo == 0 and not strict:
        call(-0.0)


@pytest.mark.parametrize("row", [pytest.param(row, id=row[0])
                                 for row in REAL_ARGS])
@given(value=st.one_of(
    st.floats(), st.integers(), st.fractions(), st.booleans(),
    st.sampled_from([10 ** 400, -10 ** 400, Fraction(10 ** 400),
                     Fraction(1, 10 ** 400), Fraction(-1, 10 ** 400), -0.0,
                     math.ulp(0.0), INVERT_W_MAX, FLOAT_MAX])))
@settings(max_examples=40, deadline=None)
def test_a_real_argument_returns_or_raises_one_value_error(row, value):
    # Never a TypeError, an OverflowError or any other error: a value
    # returns, or raises the one wording, or one of the row's own errors.
    _, call, name, lo, hi, strict, also = row
    try:
        call(value)
    except ValueError as exc:
        message = str(exc)
        assert message == _real_message(name, lo, hi, strict, value) or (
            also is not None and re.match(also, message)), message


#: Public parameters with a guarded name that take no checked argument.
UNCHECKED = {("PrefixSums", "k"): "a result record that prefix_sums builds"}


def test_every_public_real_or_count_argument_has_a_row():
    # A public callable with a parameter named z, w, k, zmax or tol needs a
    # row in INT_ARGS or REAL_ARGS, whose id starts with the callable's
    # name and whose name is the parameter's (bound_value's k is its z).
    rows = {(row.partition("-")[0], name)
            for row, _, name, *_ in INT_ARGS + REAL_ARGS}
    rows.add(("bound_value", "z"))
    missing = []
    for attr in spectral_riesz.__all__:
        try:
            params = inspect.signature(getattr(spectral_riesz, attr))
        except (TypeError, ValueError):  # not a callable with a signature
            continue
        missing += [(attr, p) for p in params.parameters
                    if p in ("z", "w", "k", "zmax", "tol")
                    and (attr, p) not in rows and (attr, p) not in UNCHECKED]
    assert not missing


@pytest.mark.parametrize("z", [10 ** 400, Fraction(10 ** 400), math.inf,
                               math.nan, -1, Fraction(-1, 10 ** 400)],
                         ids=["int-past-float", "fraction-past-float", "inf",
                              "nan", "negative", "tiny-negative-fraction"])
def test_invert_w_refuses_z_outside_float_range_or_below_zero(z):
    with pytest.raises(ValueError) as exc:
        invert_w(3, z)
    assert str(exc.value) == _real_message("z", 0, INVERT_W_MAX, False, z)


@pytest.mark.parametrize("w", [math.inf, math.nan, -0.5, Fraction(-1, 3)],
                         ids=["inf", "nan", "negative", "negative-fraction"])
def test_fluctuation_refuses_w_that_is_not_finite_and_nonnegative(w):
    with pytest.raises(ValueError) as exc:
        fluctuation(w)
    assert str(exc.value) == _real_message("w", 0, math.inf, False, w)


def test_fluctuation_keeps_its_values():
    assert fluctuation(0.0) == -0.5 and fluctuation(2.25) == -0.25
    assert fluctuation(Fraction(7, 2)) == 0


def test_legendre_average_bound_refuses_a_bool_k():
    with pytest.raises(ValueError,
                       match="k must be a finite number >= 1, got True"):
        bounds.legendre_average_bound("sd.r1.upper.shift", {"d": 2}, True)


@pytest.mark.parametrize("z", [1e160, 1e300])
def test_bound_value_is_finite_or_one_value_error_at_huge_z(z):
    # The float path of a side can overflow to inf or reach inf - inf =
    # NaN without an OverflowError; either is the one beyond-float-range
    # ValueError, as an OverflowError already is.  An average side takes
    # the int k.
    refused = 0
    for bound_id, params in bounds.entry_matrix():
        arg = int(z) if bounds.get(bound_id).quantity == "average" else z
        for rule in bounds.get(bound_id).sides:
            try:
                value = bounds.bound_value(bound_id, params, arg,
                                           side=rule.side)
            except ValueError as exc:
                assert str(exc) == f"z={arg!r} is beyond float range for " \
                    f"the {rule.side} side of {bound_id}"
                refused += 1
            else:
                assert isinstance(value, Fraction) or math.isfinite(value), \
                    (bound_id, params, rule.side, value)
    assert refused


def _decimal_root(x: Fraction, n: int) -> float:
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        num = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        return float(num ** (decimal.Decimal(1) / n))


@pytest.mark.parametrize("x,n", [
    (Fraction(10 ** 400) + Fraction(1, 3), 2),
    (Fraction(3 * 10 ** 600), 2),
    (Fraction(10 ** 400) + Fraction(1, 3), 3),
    (Fraction(2 ** 1100 + 1, 3), 7),
    (Fraction(2 ** 2046 + 1), 2),
], ids=["sqrt-1e400", "sqrt-3e600", "cbrt-1e400", "7th-root", "sqrt-2^2046"])
def test_root_of_a_rational_past_float_range_is_a_float(x, n):
    root = bounds._root(x, n)
    assert type(root) is float
    assert root == pytest.approx(_decimal_root(x, n), rel=4e-16)


@pytest.mark.parametrize("x,n", [
    (Fraction(7, 3), 2), (Fraction(10 ** 300 + 1), 2),
    (Fraction(10 ** 300 + 1, 7), 5), (Fraction(3, 10 ** 400), 2),
    (Fraction(2, 3), 100)])
def test_root_in_float_range_keeps_its_float_expression(x, n):
    expected = math.sqrt(float(x)) if n == 2 else float(x) ** (1.0 / n)
    assert bounds._root(x, n) == expected


def test_a_root_past_float_range_is_one_value_error_naming_the_side():
    with pytest.raises(OverflowError):
        bounds._root(Fraction(10 ** 701))
    z = Fraction(10 ** 701)
    with pytest.raises(ValueError) as exc:
        bounds.bound_value("hemi2.r1d.lower", None, z)
    assert str(exc.value) == (f"z={z!r} is beyond float range for the "
                              "lower side of hemi2.r1d.lower")


@pytest.mark.parametrize("d", [100, 150])
def test_optimal_shift_at_a_dimension_past_float_range(d):
    # x^2 / 4 > 2^1024 for l = 1; b(l) still tends to z_d = d(2d-1)/12.
    shifts = [bounds.optimal_shift(d, l) for l in (1, 2, 50)]
    x = (d + 2) * math.prod(range(2, d + 1))
    assert shifts[0] == pytest.approx(
        d / (d + 2) * (_decimal_root(Fraction(x * x, 4), d) - (d + 1)),
        rel=1e-12)
    assert all(0 < b < d * (2 * d - 1) / 12 for b in shifts)


def test_verify_refuses_a_side_past_float_range_as_bound_value_does():
    # At d = 300 the b_d-shifted S^d lower side float(c) (z + b)^(d/2 + 1)
    # has c = 0.0 and a power past float range at every grid point: verify
    # raises bound_value's ValueError at the first one, not the
    # OverflowError of the float power.
    with pytest.raises(ValueError) as exc:
        bounds.verify("fail.sd.r1.lower.bdshift", {"d": 300}, points=50)
    assert str(exc.value) == ("z=0.0 is beyond float range for the lower "
                              "side of fail.sd.r1.lower.bdshift")
    with pytest.raises(ValueError) as again:
        bounds.bound_value("fail.sd.r1.lower.bdshift", {"d": 300}, 0.0)
    assert str(again.value) == str(exc.value)


@pytest.mark.parametrize("family", [
    family for family in Family if family is not Family.CAYLEY_PLANE])
def test_a_dimension_past_the_cap_is_refused(family):
    # DIMENSION_CAP is a multiple of 4, so every family but the Cayley
    # plane admits it and DIMENSION_CAP + 4: only the cap refuses the last.
    assert Space(family, DIMENSION_CAP).dim == DIMENSION_CAP
    for d in (DIMENSION_CAP + 4, 10 ** 400):
        with pytest.raises(ValueError) as exc:
            Space(family, d)
        assert str(exc.value) == \
            f"dimension {d} out of range for {family.value}"


@pytest.mark.parametrize("call", [
    lambda d: parse_space(f"sphere:{d}"),
    lambda d: hemisphere_dirichlet(d),
    lambda d: lclass(1, d),
    lambda d: sphere_volume(d),
    lambda d: bounds.bound_value("sd.r1.upper.shift", {"d": d}, 5),
    lambda d: bounds.verify("sd.r1.upper.shift", {"d": d}, points=3),
], ids=["parse_space", "hemisphere_dirichlet", "lclass", "sphere_volume",
        "bound_value", "verify"])
def test_entry_points_inherit_the_dimension_range(call):
    call(4)
    for d in (DIMENSION_CAP + 1, 10 ** 5, 10 ** 400):
        with pytest.raises(ValueError, match=f"^dimension {d} out of range "
                           "for (sphere|hemisphere-d)$"):
            call(d)


@pytest.mark.parametrize("d", [1240, 1241, 1300, 5000, DIMENSION_CAP])
def test_sphere_volume_past_the_float_pi_power_is_zero(d):
    # pi^(h/2) leaves float range from d = 1,241, where |S^d| < 1e-1000
    # rounds to 0.0: no OverflowError inside the declared range.
    assert sphere_volume(d) == 0.0


@pytest.mark.parametrize("d", [1, 2, 100, 342, 343, 350, 356, 357, 400, 453,
                               454, 455, 456, 600, 1240])
def test_sphere_volume_is_the_exact_rational_rounded_once(d):
    # |S^d| = c pi^(h/2), c rational: from d = 343 float(c) is subnormal
    # or 0.0, so the value is c (float pi)^(h/2) rounded once, which is
    # 0.0 only from d = 455.  At d <= 342 the float product
    # float(c) pi^(h/2) is kept, bit for bit.
    c, h = weyl._sphere_volume_exact(d)
    exact = float(c * Fraction(math.pi) ** (h // 2))
    value = sphere_volume(d)
    if d <= 342:
        assert value == float(c) * math.pi ** (h / 2)
        assert value == pytest.approx(exact, rel=1e-13)
    else:
        assert value == exact
    assert (value == 0.0) == (d >= 455)


PSI_SIDES = [("hemi2.nd.twosided", "lower"), ("hemi2.nd.twosided", "upper"),
             ("s2.r1.lower.imp", "lower"), ("s2.r1.upper.imp", "upper")]


@pytest.mark.parametrize("bound_id,side", PSI_SIDES,
                         ids=[f"{b}-{s}" for b, s in PSI_SIDES])
@pytest.mark.parametrize("z", [math.nextafter(INVERT_W_MAX, math.inf), 1e308,
                               FLOAT_MAX])
def test_a_psi_side_above_invert_w_range_is_one_value_error(bound_id, side,
                                                            z, monkeypatch):
    # psi needs w from z, and 4 z leaves float range above INVERT_W_MAX:
    # bound_value and verify both refuse the side by name, not with the
    # NaN of the inversion.
    with pytest.raises(ValueError) as exc:
        bounds.bound_value(bound_id, None, z, side=side)
    assert str(exc.value) == (f"z={z!r} is beyond float range for the "
                              f"{side} side of {bound_id}")
    # The level cap stops verify's target column far below such z; with
    # the targets stubbed, its side scan meets the side's overflow.
    monkeypatch.setattr(bounds, "evaluate_grid", lambda q, quantity, grid: (
        [0.0] * len(grid), [0] * len(grid)))
    first = bounds.get(bound_id).sides[0].side
    with pytest.raises(ValueError) as exc:
        bounds.verify(bound_id, grid=[1.0, z])
    assert str(exc.value) == (f"z={z!r} is beyond float range for the "
                              f"{first} side of {bound_id}")


# (query, gamma, float z): at z = 2^1023 on S^2 at p = 1023,
# R1 = 4 z - 3 lambda_1^p = 2^1023 while s1 = 3 * 2^1023 leaves float
# range; at z = 1.5 * 2^1022 and p = 1022, s1 = 3 * 2^1022 is a float but
# 4 z is inf, and R1 = 3 * 2^1022; at z just above lambda_1^p = 3^323 on
# S^3, R2 is about 1.66e308 while s2 = 4 * 3^646 leaves float range.
OVERFLOW_INTERMEDIATE = [
    (SpectrumQuery(sphere(2), power=1023), 1, 2.0 ** 1023),
    (SpectrumQuery(sphere(2), power=1022), 1, 1.5 * 2.0 ** 1022),
    (SpectrumQuery(sphere(3), power=323), 2,
     float(3 ** 323) * (1 + 2 ** -40)),
]


@pytest.mark.parametrize("q,gamma,z", OVERFLOW_INTERMEDIATE,
                         ids=["R1-s2-p1023", "R1-inf-s2-p1022", "R2-s3-p323"])
def test_a_float_riesz_mean_past_float_range_on_the_way_is_the_exact_value(
        q, gamma, z):
    exact = riesz_mean(q, gamma, Fraction(z))
    assert riesz_mean(q, gamma, z) == float(exact)
    assert float(exact) > 1e307
    quantity = f"R{gamma}"
    assert evaluate_grid(q, quantity, [0.0, 1.0, z])[0] == [
        riesz_mean(q, gamma, x) for x in (0.0, 1.0, z)]


@pytest.mark.parametrize("gamma", [1, 2])
@pytest.mark.parametrize("z", [1e7, 1315142.0])
def test_a_float_riesz_mean_past_float_range_is_one_value_error(gamma, z):
    # On S^300 the count at z = 1e7 is about 1e400: R1 and R2 are past
    # float range, so the float path refuses them with one error naming z,
    # point by point and on a sorted grid alike (the first bad point).
    q = SpectrumQuery(sphere(300))
    message = f"R{gamma} at z={z!r} is beyond float range"
    with pytest.raises(ValueError) as exc:
        riesz_mean(q, gamma, z)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        evaluate_grid(q, f"R{gamma}", [1.0, z, 2e7])
    assert str(exc.value) == message
    assert riesz_mean(q, gamma, 1.0) == riesz_mean(q, gamma, 1)


@pytest.mark.parametrize("d", [300, 301])
def test_a_power_side_whose_float_power_overflows_takes_the_exact_path(d):
    # (z + b)^(d/2 + 1) of the shifted S^d upper side leaves float range at
    # d = 300 (2q even) and 301 (2q odd) while c (z + b)^(d/2 + 1) is about
    # 1.4e14: float and Fraction z give the float of the exact value.
    value = bounds.bound_value("sd.r1.upper.shift", {"d": d}, 5.0)
    exact = bounds.bound_value("sd.r1.upper.shift", {"d": d}, Fraction(5))
    assert value == float(exact) == pytest.approx(
        1.38e14 if d == 300 else 1.53e14, rel=0.01)
    assert bounds.verify("sd.r1.upper.shift", {"d": d}, points=50).passed
