import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectral_riesz.spaces import (Family, Space, hemisphere_dirichlet,
                                   hemisphere_neumann, invert_w, sphere)
from spectral_riesz import weyl
from spectral_riesz.weyl import (BoundExpansion, _sphere_volume_exact,
                                 expansion, lclass, lclass_volume,
                                 snapped_fluctuation, sphere_volume)


def test_lclass_volume_paper_values():
    assert lclass_volume(sphere(2), 1) == Fraction(1, 2)
    assert lclass_volume(sphere(3), 0) == Fraction(1, 3)
    assert lclass_volume(sphere(2), 1, 4) == Fraction(4, 5)


def test_constant_identities_exact_up_to_d16():
    for d in range(1, 17):
        fact = math.factorial(d)
        assert lclass_volume(sphere(d), 0) == Fraction(2, fact)
        assert lclass_volume(sphere(d), 1) == Fraction(4, (d + 2) * fact)
        assert lclass_volume(sphere(d), 2) \
            == Fraction(16, (d + 2) * (d + 4) * fact)


def test_lclass_matches_float_gamma_formula():
    for gamma, d, p in [(0, 3, 1), (1, 5, 1), (2, 4, 1), (1, 2, 4),
                        (1, 3, 2), (2, 7, 3)]:
        got = lclass(gamma, d, p)
        want = ((4 * math.pi) ** (-d / 2) * math.gamma(gamma + 1)
                * math.gamma(1 + d / (2 * p))
                / (math.gamma(1 + d / 2) * math.gamma(1 + gamma + d / (2 * p))))
        assert abs(got / want - 1) < 1e-14


def test_lclass_times_sphere_volume_consistency():
    for d in (1, 2, 3, 5, 8):
        for gamma in (0, 1, 2):
            lhs = lclass(gamma, d) * sphere_volume(d)
            assert abs(lhs / float(lclass_volume(sphere(d), gamma)) - 1) < 1e-14


def test_sphere_volume_examples():
    assert sphere_volume(1) == 2 * math.pi
    assert sphere_volume(2) == 4 * math.pi
    assert abs(sphere_volume(3) - 2 * math.pi ** 2) < 1e-14
    assert abs(sphere_volume(4) - 8 * math.pi ** 2 / 3) < 1e-14
    for d in (0, 2.0, True):
        with pytest.raises(ValueError):
            sphere_volume(d)


def test_sphere_volume_exact_pair():
    # |S^d| = c pi^(h/2): Gamma((d+1)/2) is an integer factorial in odd d
    # and a rational times sqrt(pi) in even d (Gamma(5/2) = 3/4 sqrt(pi)).
    assert _sphere_volume_exact(1) == (2, 2)
    assert _sphere_volume_exact(4) == (Fraction(8, 3), 4)
    assert _sphere_volume_exact(11) == (Fraction(2, math.factorial(5)), 12)
    for d in range(1, 40):
        c, h = _sphere_volume_exact(d)
        want = 2 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)
        assert abs(float(c) * math.pi ** (h / 2) / want - 1) < 1e-13


def test_catalog_constants_are_pinned_bit_for_bit():
    # The floats that the catalog binds (dom.sd.bly.shift, dom.sd.kroger.imp,
    # dom.sd.neubih.lower and their sphere areas), as rounded once from the
    # exact rational and pi power.
    assert [lclass(1, d).hex() for d in (2, 3, 4)] == [
        "0x1.45f306dc9c883p-5", "0x1.baadd357a6e00p-8",
        "0x1.14aca416c84c0p-10"]
    assert [lclass(1, d, 2).hex() for d in (3, 4)] == [
        "0x1.3c3304ac52a00p-7", "0x1.9f02f6222c720p-10"]
    assert [sphere_volume(d).hex() for d in (2, 3, 4)] == [
        "0x1.921fb54442d18p+3", "0x1.3bd3cc9be45dep+4",
        "0x1.a51a6625307d2p+4"]


@pytest.mark.parametrize("gamma,p", [(1, 0), (1, -2), (3, 1)],
                         ids=["p=0", "p=-2", "gamma=3"])
def test_constants_refuse_bad_gamma_and_p(gamma, p):
    for constant in (lambda: lclass(gamma, 2, p),
                     lambda: lclass_volume(sphere(2), gamma, p)):
        with pytest.raises(ValueError):
            constant()


def test_hemisphere_surface_coefficient_is_rational():
    # (1/4) L_{1,d-1}|bd S^d_+| / (L_{1,d}|S^d_+|) = d(d+2)/(2(d+1))
    for d in range(2, 9):
        ratio = Fraction(1, 4) * lclass_volume(sphere(d - 1), 1) \
            / lclass_volume(hemisphere_dirichlet(d), 1)
        assert ratio == Fraction(d * (d + 2), 2 * (d + 1))


# ---------------------------------------------------------------------------
# Expansions


def test_expansion_leading_term_only():
    for space, quantity in [(sphere(3), "N"), (sphere(3), "R1"),
                            (hemisphere_dirichlet(4), "N"),
                            (hemisphere_neumann(4), "R1")]:
        ev = expansion(space, quantity, 500.0, 1)
        lead = float(lclass_volume(space, 0 if quantity == "N" else 1))
        expo = space.dim / 2 + (0 if quantity == "N" else 1)
        assert ev.ratio == 1.0
        assert ev.value == pytest.approx(lead * 500.0 ** expo, rel=1e-15)


def test_sphere_r1_second_term_vanishes_at_levels_when_d2():
    # psi = -1/2 at integer w kills the d = 2 bracket entirely.
    z = 30  # lambda_(5) on S^2
    ev = expansion(sphere(2), "R1", z, 2)
    assert ev.ratio == 1.0


def test_hemisphere_nd_two_term_example():
    z = 3.75  # w = 1.5, psi = 0
    ev = expansion(hemisphere_dirichlet(2), "N", z, 2)
    assert ev.value == pytest.approx(z / 2 * (1 - z ** -0.5), rel=1e-15)


def test_expansion_bad_requests():
    with pytest.raises(ValueError):
        expansion(Space(Family.REAL_PROJECTIVE, 3), "N", 10.0, 2)
    with pytest.raises(ValueError):
        expansion(sphere(2), "R1", 10.0, 3)   # two-term theorem only
    with pytest.raises(ValueError):
        expansion(sphere(2), "R2", 10.0, 1)
    with pytest.raises(ValueError):
        expansion(sphere(2), "N", 0.0, 1)


def test_remainder_scale_below_last_retained_power():
    last_power = {1: 0.0, 2: -0.5, 3: -1.0}
    for terms in (1, 2, 3):
        ev = expansion(hemisphere_dirichlet(3), "N", 100.0, terms)
        assert ev.remainder_scale < last_power[terms]
    ev = expansion(sphere(3), "R1", 100.0, 2)
    assert ev.remainder_scale == -1.25


@pytest.mark.parametrize("z", [
    math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1.0, -3, Fraction(-1, 2),
    10 ** 400, -10 ** 400, Fraction(10 ** 400, 3), Fraction(1, 10 ** 400),
    1e300, 10 ** 300], ids=repr)
def test_expansion_rejects_bad_z_with_one_value_error(z):
    # NaN, +-inf, z <= 0, ints/Fractions past float range (either way) or
    # below the smallest positive float are the one real-argument wording;
    # z whose leading power z^(d/2) leaves float range is the expansion's.
    bound = BoundExpansion(sphere(3), "N", 3)
    for evaluate in (lambda: expansion(sphere(3), "N", z, 3),
                     lambda: bound(z), lambda: bound.at(z)):
        with pytest.raises(ValueError) as exc:
            evaluate()
        assert str(exc.value) == _bad_expansion_z(z)


def _bad_expansion_z(z):
    if z in (1e300, 10 ** 300):
        return f"expansion requires z^1.5 in float range, got z={z!r}"
    return ("z must be a finite number in [5e-324, 4.4942328371557893e+307]"
            f", got {z!r}")


@pytest.mark.parametrize("space,quantity", [
    (sphere(3), "N"), (sphere(2), "R1"), (hemisphere_dirichlet(2), "R1"),
    (hemisphere_neumann(3), "R1")])
def test_one_term_expansion_is_the_bare_leading_power(space, quantity):
    # The one-term call skips the bracket; the value is bit-equal to the
    # leading power times the 1.0 bracket, and bad z still raise the same
    # ValueError.
    bound = BoundExpansion(space, quantity, 1)
    zs = [w * (w + space.dim - 1) for w in (k / 7 for k in range(1, 400))]
    for z in zs + [5e-324, 1e-300, 0.5, 1e100]:
        old = bound.lead * z ** bound.exponent * 1.0
        assert bound(z).hex() == old.hex() == bound.at(z).value.hex(), z
    for z in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300):
        for evaluate in (bound, bound.at):
            with pytest.raises(ValueError) as exc:
                evaluate(z)
            message = _bad_expansion_z(z)
            if z == 1e300:  # the exponent is d/2 + gamma
                message = message.replace("1.5", f"{bound.exponent:g}")
            assert str(exc.value) == message


def _theorem_coefficients(space, quantity, psi):
    """(leading rational, c_half, c_one, max_terms) of the expansion
    theorem, with the oscillating coefficients at psi."""
    gamma, max_terms, _, coefficients = weyl._theorem(space, quantity)
    return (lclass_volume(space, gamma), *coefficients(psi), max_terms)


def _per_point_expansion(space, quantity, z, terms):
    """The expansion assembled point by point from the theorem's
    coefficients, in the order the bracket is defined: 1, then z^(-1/2),
    then z^(-1)."""
    zf = float(z)
    psi = snapped_fluctuation(invert_w(space.dim, zf))
    lead, c_half, c_one, max_terms = _theorem_coefficients(
        space, quantity, psi)
    orders = [(c_half, zf ** -0.5), (c_one, 1.0 / zf)][3 - max_terms:]
    ratio = 1.0
    for coeff, scale in orders[:terms - 1]:
        ratio += coeff * scale
    gamma = 0 if quantity == "N" else 1
    return float(lead) * zf ** (space.dim / 2.0 + gamma) * ratio, ratio


@pytest.mark.parametrize("space,quantity,max_terms", [
    (sphere(3), "N", 3), (sphere(2), "R1", 2), (sphere(3), "R1", 2),
    (hemisphere_dirichlet(3), "N", 3), (hemisphere_neumann(3), "N", 3),
    (hemisphere_dirichlet(4), "R1", 3), (hemisphere_neumann(3), "R1", 3)])
def test_bound_expansion_equals_the_per_point_assembly(space, quantity,
                                                       max_terms):
    zs = [0.5, 3.75, 12, Fraction(47, 7), 100.0, 1e6] + [
        w * (w + space.dim - 1) for w in (1 + k / 7 for k in range(60))]
    for terms in range(1, max_terms + 1):
        bound = BoundExpansion(space, quantity, terms)
        for z in zs:
            value, ratio = _per_point_expansion(space, quantity, z, terms)
            ev = bound.at(z)
            assert bound(z) == value, (terms, z)
            assert (ev.value, ev.ratio, ev.order) == (value, ratio, terms)
            assert expansion(space, quantity, z, terms) == ev


@given(st.integers(2, 8),
       st.floats(min_value=-0.5, max_value=0.4999))
@settings(max_examples=100)
def test_dirichlet_neumann_coefficient_symmetry(d, psi):
    # z^(-1/2) coefficients exact negatives, z^(-1) coefficients identical.
    _, ch_d, c1_d, _ = _theorem_coefficients(
        hemisphere_dirichlet(d), "R1", psi)
    _, ch_n, c1_n, _ = _theorem_coefficients(
        hemisphere_neumann(d), "R1", psi)
    assert ch_d == -ch_n
    assert c1_d == c1_n


@given(st.integers(2, 8),
       st.floats(min_value=-0.5, max_value=0.4999))
@settings(max_examples=100)
def test_sphere_counting_coefficients_decompose(d, psi):
    # N = N^D + N^N level by level, so the sphere bracket is the average
    # of the two hemisphere brackets (the leading terms halve).
    lead_s, ch_s, c1_s, _ = _theorem_coefficients(sphere(d), "N", psi)
    lead_d, ch_d, c1_d, _ = _theorem_coefficients(
        hemisphere_dirichlet(d), "N", psi)
    lead_n, ch_n, c1_n, _ = _theorem_coefficients(
        hemisphere_neumann(d), "N", psi)
    assert lead_s == lead_d + lead_n
    assert abs(ch_s - (ch_d + ch_n) / 2) < 1e-12
    assert abs(c1_s - (c1_d + c1_n) / 2) < 1e-12


def test_snapped_fluctuation():
    assert snapped_fluctuation(5.0) == -0.5
    assert snapped_fluctuation(5.0 + 2 * math.ulp(5.0)) == -0.5
    assert snapped_fluctuation(5.0 - 2 * math.ulp(5.0)) == -0.5
    assert snapped_fluctuation(5.25) == -0.25
