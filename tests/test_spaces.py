import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectral_riesz.spaces import (Family, Space, _integer_nth_root,
                                   eigenvalue, fluctuation,
                                   hemisphere_dirichlet, hemisphere_neumann,
                                   invert_w, max_level_index, multiplicity,
                                   parse_space, sphere)

ALL_SPACES = [
    sphere(1), sphere(2), sphere(3), sphere(6),
    hemisphere_dirichlet(2), hemisphere_dirichlet(5),
    hemisphere_neumann(2), hemisphere_neumann(5),
    Space(Family.REAL_PROJECTIVE, 2), Space(Family.REAL_PROJECTIVE, 5),
    Space(Family.COMPLEX_PROJECTIVE, 4), Space(Family.COMPLEX_PROJECTIVE, 8),
    Space(Family.QUATERNION_PROJECTIVE, 8),
    Space(Family.QUATERNION_PROJECTIVE, 12),
    Space(Family.CAYLEY_PLANE, 16),
]


@pytest.mark.parametrize("space,l,lam,mult", [
    (sphere(2), 3, 12, 7),
    (sphere(1), 2, 4, 2),
    (sphere(3), 2, 8, 9),
    (hemisphere_neumann(2), 1, 2, 2),
    (Space(Family.COMPLEX_PROJECTIVE, 4), 1, 3, 8),
    (Space(Family.REAL_PROJECTIVE, 2), 1, 6, 5),
    (hemisphere_dirichlet(2), 1, 2, 1),
    (Space(Family.QUATERNION_PROJECTIVE, 8), 1, 6, 14),
    (Space(Family.CAYLEY_PLANE, 16), 1, 12, 26),
])
def test_energy_level_examples(space, l, lam, mult):
    assert (eigenvalue(space, l), multiplicity(space, l)) == (lam, mult)


def test_bottom_level_multiplicity_one_on_closed_spaces():
    for space in ALL_SPACES:
        if space.min_level == 0:
            assert multiplicity(space, 0) == 1


def test_dirichlet_hemisphere_has_no_bottom_level():
    for level_fact in (eigenvalue, multiplicity):
        with pytest.raises(ValueError,
                           match="level must be an integer >= 1, got 0"):
            level_fact(hemisphere_dirichlet(3), 0)


@pytest.mark.parametrize("family,dim", [
    (Family.SPHERE, 0),
    (Family.HEMISPHERE_DIRICHLET, 1),
    (Family.HEMISPHERE_NEUMANN, 1),
    (Family.REAL_PROJECTIVE, 1),
    (Family.COMPLEX_PROJECTIVE, 5),
    (Family.COMPLEX_PROJECTIVE, 2),
    (Family.QUATERNION_PROJECTIVE, 10),
    (Family.QUATERNION_PROJECTIVE, 4),
    (Family.CAYLEY_PLANE, 8),
    (Family.SPHERE, 2.5),
    (Family.SPHERE, 2.0),
    (Family.SPHERE, True),
])
def test_out_of_range_dimension_rejected(family, dim):
    with pytest.raises(ValueError):
        Space(family, dim)


@pytest.mark.parametrize("level", [2.5, 2.0, True])
def test_level_that_is_not_an_int_is_refused(level):
    for level_fact in (eigenvalue, multiplicity):
        with pytest.raises(ValueError, match="level must be an integer"):
            level_fact(sphere(3), level)


def test_levels_strictly_increasing_up_to_200():
    for space in ALL_SPACES:
        lams = [eigenvalue(space, l)
                for l in range(space.min_level, space.min_level + 201)]
        assert all(a < b for a, b in zip(lams, lams[1:])), space.describe()


def test_multiplicities_positive_big_integers():
    for space in ALL_SPACES:
        for l in range(space.min_level, space.min_level + 60):
            m = multiplicity(space, l)
            assert isinstance(m, int) and m >= 1


def test_cayley_multiplicity_needs_big_integers():
    # Exact big-integer multiplicities: at d = 16 the eigenspace dimension
    # leaves 64-bit range around l ~ 100.
    assert multiplicity(Space(Family.CAYLEY_PLANE, 16), 100) > 2 ** 63


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_sphere_splitting_into_hemisphere_multiplicities(d):
    s, hd, hn = sphere(d), hemisphere_dirichlet(d), hemisphere_neumann(d)
    for l in range(1, 101):
        assert multiplicity(s, l) == multiplicity(hd, l) + multiplicity(hn, l)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_real_projective_embeds_as_even_sphere_levels(d):
    rp = Space(Family.REAL_PROJECTIVE, d)
    s = sphere(d)
    for l in range(0, 101):
        assert eigenvalue(rp, l) == eigenvalue(s, 2 * l)
        assert multiplicity(rp, l) == multiplicity(s, 2 * l)


def test_max_level_index_examples():
    assert max_level_index(sphere(2), 6) == 2      # inclusive at lambda_(2)
    assert max_level_index(sphere(2), 5.9) == 1
    assert max_level_index(hemisphere_dirichlet(3), 2.5) is None
    # Beyond float range: the level cap, not an OverflowError.
    with pytest.raises(ValueError, match="level cap"):
        max_level_index(sphere(2), Fraction(10 ** 400))


def test_max_level_index_right_continuous_and_unit_steps():
    for space in (sphere(2), sphere(5), hemisphere_dirichlet(3),
                  Space(Family.COMPLEX_PROJECTIVE, 4), *ALL_SPACES):
        for l in range(space.min_level, space.min_level + 30):
            lam = eigenvalue(space, l)
            assert max_level_index(space, lam) == l
            assert max_level_index(space, lam + Fraction(1, 7)) == l
            below = max_level_index(space, lam - Fraction(1, 7)) \
                if lam > 0 else None
            if l > space.min_level:
                assert below == l - 1
    assert max_level_index(sphere(3), 0) == 0


@given(st.integers(1, 10),
       st.fractions(min_value=0, max_value=10 ** 6))
@settings(max_examples=150, deadline=None)
def test_invert_w_newton_accuracy(d, z):
    w = invert_w(d, float(z))
    zf = float(z)
    assert abs(w * (w + d - 1) - zf) <= 4 * math.ulp(max(zf, 1.0))


def test_invert_w_examples():
    assert invert_w(2, 2) == 1.0
    assert invert_w(3, 3) == 1.0
    assert invert_w(2, 3.75) == 1.5


@pytest.mark.parametrize("z", [math.nan, -1.0, math.inf],
                         ids=["nan", "negative", "inf"])
def test_invert_w_refuses_z_that_is_not_nonnegative(z):
    with pytest.raises(ValueError, match=r"z must be a finite number in "
                       r"\[0, 4.4942328371557893e\+307\], got "):
        invert_w(3, z)


def test_fluctuation_examples():
    assert fluctuation(1.0) == -0.5
    assert fluctuation(1.5) == 0.0
    assert fluctuation(2.75) == 0.25
    assert fluctuation(Fraction(7, 2)) == Fraction(0)


@given(st.floats(min_value=0, max_value=1e9, allow_nan=False))
@settings(max_examples=200)
def test_fluctuation_range(w):
    psi = fluctuation(w)
    assert -0.5 <= psi < 0.5


def test_circle_is_sphere_dim_one():
    c = sphere(1)
    assert parse_space("circle") == c
    assert [eigenvalue(c, l) for l in range(6)] == [0, 1, 4, 9, 16, 25]
    assert [multiplicity(c, l) for l in range(4)] == [1, 2, 2, 2]


def test_parse_space():
    assert parse_space("sphere:3") == sphere(3)
    assert parse_space("hemisphere-d:2") == hemisphere_dirichlet(2)
    assert parse_space("cp:4") == Space(Family.COMPLEX_PROJECTIVE, 4)
    assert parse_space("circle") == sphere(1)
    with pytest.raises(ValueError):
        parse_space("torus:2")
    with pytest.raises(ValueError):
        parse_space("sphere:x")


def _reference_nth_root(m, n):
    """floor(m^(1/n)) by integer Newton iteration from 1 << ceil(bits / n),
    at most twice the root: exact, and slow for large n."""
    if m < 2:
        return m
    r = 1 << -(-m.bit_length() // n)
    while True:
        nr = ((n - 1) * r + m // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


@given(st.integers(1, 60), st.integers(0, 2 ** 64), st.integers(0, 80),
       st.sampled_from([-1, 0, 1]))
@settings(max_examples=400, deadline=None)
def test_integer_nth_root_matches_the_reference_loop(n, root, scale, step):
    # m near an exact n-th power, where a float seed is easiest to get
    # wrong by one, and the bits of m spread from 0 up to 64 n + 80.
    m = max(root ** n + step, 0) << scale
    assert _integer_nth_root(m, n) == _reference_nth_root(m, n)


@pytest.mark.parametrize("n", [3, 100, 1000, 2000])
def test_integer_nth_root_of_a_root_just_above_a_power_of_two(n):
    # The reference loop starts at twice such a root and takes about 0.7 n
    # steps (seconds at n = 2,000); the root must still be exact.
    for root in (2 ** 64 + 12345, 2 ** 53 + 1, 3 ** 40):
        for m in (root ** n - 1, root ** n, (root + 1) ** n - 1):
            r = _integer_nth_root(m, n)
            assert r ** n <= m < (r + 1) ** n
