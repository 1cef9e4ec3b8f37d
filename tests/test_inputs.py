"""The bad-input contract, table-driven.

Every integer argument of the library goes through `spaces.require_int`.
Each row of INT_ARGS names one such argument: a call that takes the value,
the argument's name and its inclusive bounds.  A bool, a non-integral and
an integral float, an integral Fraction and lo - 1 (and hi + 1 where there
is a hi) are each exactly one ValueError in the one wording, and lo itself
is accepted.  The rows after the table cover the float and overflow inputs
that refuse with a ValueError of their own.
"""

import decimal
import math
from fractions import Fraction

import pytest

from spectral_riesz import bounds
from spectral_riesz.riesz import (SpectrumQuery, eigenvalue_average,
                                  eigenvalue_sums, poly_transform_check,
                                  prefix_sums)
from spectral_riesz.scan import figure
from spectral_riesz.spaces import (eigenvalue, fluctuation,
                                   hemisphere_dirichlet, invert_w,
                                   level_columns, multiplicity, sphere)
from spectral_riesz.sumrules import check_pq_identity, trace_identity_partial
from spectral_riesz.weyl import (BoundExpansion, expansion, lclass,
                                 lclass_volume)

S2 = SpectrumQuery(sphere(2))

# (id, call, name, lo, hi): call(value) passes value as the argument.
INT_ARGS = [
    ("eigenvalue", lambda v: eigenvalue(sphere(3), v), "level", 0, None),
    ("eigenvalue-dirichlet",
     lambda v: eigenvalue(hemisphere_dirichlet(3), v), "level", 1, None),
    ("multiplicity", lambda v: multiplicity(sphere(3), v), "level", 0, None),
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


@pytest.mark.parametrize("z", [10 ** 400, Fraction(10 ** 400), math.inf,
                               math.nan, -1, Fraction(-1, 10 ** 400)],
                         ids=["int-past-float", "fraction-past-float", "inf",
                              "nan", "negative", "tiny-negative-fraction"])
def test_invert_w_refuses_z_outside_float_range_or_below_zero(z):
    with pytest.raises(ValueError, match=r"invert_w requires z >= 0, got "
                       r".*: z must be finite, nonnegative and in float range"):
        invert_w(3, z)


@pytest.mark.parametrize("w", [math.inf, math.nan, -0.5, Fraction(-1, 3)],
                         ids=["inf", "nan", "negative", "negative-fraction"])
def test_fluctuation_refuses_w_that_is_not_finite_and_nonnegative(w):
    with pytest.raises(ValueError,
                       match=r"fluctuation requires a finite w >= 0, got "):
        fluctuation(w)


def test_fluctuation_keeps_its_values():
    assert fluctuation(0.0) == -0.5 and fluctuation(2.25) == -0.25
    assert fluctuation(Fraction(7, 2)) == 0


def test_legendre_average_bound_refuses_a_bool_k():
    with pytest.raises(ValueError, match="k must be finite and >= 1, got True"):
        bounds.legendre_average_bound("sd.r1.upper.shift", {"d": 2}, True)


@pytest.mark.parametrize("z", [1e160, 1e300])
def test_bound_value_is_finite_or_one_value_error_at_huge_z(z):
    # The float path of a side can overflow to inf or reach inf - inf =
    # NaN without an OverflowError; either is the one beyond-float-range
    # ValueError, as an OverflowError already is.
    refused = 0
    for bound_id, params in bounds.entry_matrix():
        for rule in bounds.get(bound_id).sides:
            try:
                value = bounds.bound_value(bound_id, params, z, side=rule.side)
            except ValueError as exc:
                assert str(exc) == f"z={z!r} is beyond float range for " \
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
