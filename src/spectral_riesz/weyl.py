"""Semiclassical constants, the sphere volume, and the truncated Weyl
expansions.

Every constant has one exact derivation: L^class_{gamma,d,p} |M^d| is the
rational `lclass_volume`, from the family record's gamma = 0 value and a
rational Gamma ratio.  The sphere volume |S^d| is a rational times a
half-integer power of pi (Gamma enters only at integer and half-integer
points), so L^class_{gamma,d,p} itself is `lclass_volume` on S^d over that
rational, times the reciprocal power of pi.  Expansion coefficients are
transcribed from the two/three-term theorems and certified numerically by
the test suite, not derived symbolically.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import NamedTuple, Tuple

from .spaces import (INVERT_W_MAX, Family, Real, Space, _fluctuation,
                     _invert_w, require_int, require_real, sphere)

# ---------------------------------------------------------------------------
# Semiclassical constants and the sphere volume


def _gamma_ratio(gamma: int, d: int, p: int) -> Fraction:
    """Gamma(gamma+1) Gamma(1 + d/2p) / Gamma(1 + gamma + d/2p)
    = gamma! / (1 + d/2p)_gamma, for the ints gamma in 0..2 and p >= 1."""
    require_int("gamma", gamma, 0, 2)
    x = 1 + Fraction(d, 2 * require_int("p", p, 1))
    return Fraction(math.factorial(gamma)) / math.prod(
        (x + i for i in range(gamma)), start=Fraction(1))


def _sphere_volume_exact(d: int) -> Tuple[Fraction, int]:
    """(c, h) with |S^d| = 2 pi^((d+1)/2) / Gamma((d+1)/2) = c pi^(h/2)."""
    n, odd = divmod(d + 1, 2)
    if odd:  # Gamma(n + 1/2) = (2n)! / (4^n n!) sqrt(pi)
        return Fraction(2 * 4 ** n * math.factorial(n),
                        math.factorial(2 * n)), d
    return Fraction(2, math.factorial(n - 1)), d + 1


# Both caches are typed: a cached (space, 1, 1) must not answer the call
# (space, True) or (space, 1, 1.0) before _gamma_ratio refuses it.
@functools.lru_cache(maxsize=None, typed=True)
def lclass(gamma: int, d: int, p: int = 1) -> float:
    """L^class_{gamma,d,p} = (4 pi)^(-d/2) Gamma(gamma+1) Gamma(1 + d/2p)
    / (Gamma(1 + d/2) Gamma(1 + gamma + d/2p)), as the exact rational
    lclass_volume(S^d) / c times pi^(-h/2), (c, h) the sphere volume's."""
    exact = lclass_volume(sphere(d), gamma, p)  # sphere(d) checks d
    c, h = _sphere_volume_exact(d)
    return float(exact / c) * math.pi ** (-h / 2)


def sphere_volume(d: int) -> float:
    """|S^d| = 2 pi^((d+1)/2) / Gamma((d+1)/2), from its exact rational c
    and pi^(h/2), h even: float(c) times the float power of pi while
    float(c) is a normal float (d <= 342), else c times the exact power
    of the float pi, rounded once, where float(c) has lost bits or is 0.0
    (d >= 343: |S^d| is below 1e-200 there, and 0.0 from d = 455)."""
    c, h = _sphere_volume_exact(sphere(d).dim)  # sphere(d) checks d
    if float(c) >= sys.float_info.min:  # a normal float: d <= 342
        return float(c) * math.pi ** (h / 2)
    a, b = math.pi.as_integer_ratio()
    return c.numerator * a ** (h // 2) / (c.denominator * b ** (h // 2))


@functools.lru_cache(maxsize=None, typed=True)
def lclass_volume(space: Space, gamma: int, p: int = 1) -> Fraction:
    """L^class_{gamma,d,p} * |M^d| as an exact rational.

    For hemisphere spaces the measure is |S^d_+|.  The gamma = 0 value is
    the family record's w0 (e.g. 2/d! for the sphere); higher gamma
    follows from the rational ratio of the semiclassical constants.
    """
    return space.record.w0(space.dim) * _gamma_ratio(gamma, space.dim, p)


# ---------------------------------------------------------------------------
# Fluctuation with deterministic snapping


def snapped_fluctuation(w: float) -> float:
    """psi(w), with w within 8 ulp of an integer snapped to that integer.

    The expansions are discontinuous in psi at the energy levels; the snap
    makes grid evaluations reproducible when w is recovered from z by
    floating inversion.
    """
    r = round(w)
    if abs(w - r) <= 8 * math.ulp(max(1.0, abs(w))):
        return -0.5
    return _fluctuation(w)


# ---------------------------------------------------------------------------
# Two/three-term expansions


class ExpansionEval(NamedTuple):
    """Truncated expansion at z: approximation to the raw quantity.

    `ratio` is the truncated bracket (raw approx divided by the leading
    Weyl term); `remainder_scale` is the relative power of z carried by
    the first omitted term, strictly below the last retained power.
    """

    value: float
    ratio: float
    order: int
    remainder_scale: float


def _theorem(space: Space, quantity: str):
    """(gamma, max_terms, remainder_scale, coefficients) of the expansion
    theorem for quantity on space.

    The leading term is lclass_volume(space, gamma) z^(d/2 + gamma);
    coefficients(psi) gives (c_half, c_one) of the bracket
    1 + c_half z^(-1/2) + c_one z^(-1).  The sphere R_1 expansion has no
    z^(-1/2) term and only two retained terms.
    """
    d = space.dim
    fam = space.family
    if quantity == "N":
        if fam is Family.SPHERE:
            return 0, 3, -1.5, lambda psi: (
                -d * psi, d * (d - 1) * (12 * psi ** 2 + 2 * d - 1) / 24.0)
        if fam is Family.HEMISPHERE_DIRICHLET:
            return 0, 3, -1.5, lambda psi: (
                -d * (1 + 2 * psi) / 2.0,
                (d * (d - 1) / 2.0) * ((0.5 + psi) ** 2 + (d - 2) / 6.0))
        if fam is Family.HEMISPHERE_NEUMANN:
            return 0, 3, -1.5, lambda psi: (
                d * (1 - 2 * psi) / 2.0,
                (d * (d - 1) / 2.0) * ((0.5 - psi) ** 2 + (d - 2) / 6.0))
    elif quantity == "R1":
        if fam is Family.SPHERE:
            return 1, 2, -1.25, lambda psi: (
                0.0, (d * (d + 2) / 12.0) * (d - 2 + 6 * (0.25 - psi ** 2)))
        if fam in (Family.HEMISPHERE_DIRICHLET, Family.HEMISPHERE_NEUMANN):
            surf = d * (d + 2) / (2.0 * (d + 1))
            if fam is Family.HEMISPHERE_DIRICHLET:
                surf = -surf
            return 1, 3, -1.5, lambda psi: (
                surf,
                (d * (d + 2) / 2.0) * ((0.25 - psi ** 2) + (d - 2) / 6.0))
    raise ValueError(f"no expansion theorem for quantity {quantity!r} "
                     f"on {space.describe()}")


_SMALLEST = math.ulp(0.0)  # z >= this keeps float(z) > 0 for a Fraction


class BoundExpansion:
    """The truncated expansion of one (space, quantity, terms), bound once.

    The theorem, its leading constant, the exponent and the term count are
    resolved here; a call at z runs only the level inversion, the snapped
    fluctuation and the psi-dependent coefficients.  Called, it returns the
    value (the approximation to the raw quantity); `at` gives the full
    ExpansionEval.  z is checked once per call, in [ulp(0), INVERT_W_MAX];
    the w and psi arithmetic after it checks nothing again.
    """

    __slots__ = ("dim", "terms", "max_terms", "coefficients", "lead",
                 "exponent", "remainder")

    def __init__(self, space: Space, quantity: str, terms: int):
        gamma, max_terms, rem, coefficients = _theorem(space, quantity)
        require_int("terms", terms, 1, max_terms)
        self.dim = space.dim
        self.terms = terms
        self.max_terms = max_terms
        self.coefficients = coefficients
        self.lead = float(lclass_volume(space, gamma))
        self.exponent = space.dim / 2.0 + gamma
        # The relative power of the first omitted term.
        self.remainder = ((-0.5, -1.0, rem) if max_terms == 3
                          else (-1.0, rem))[terms - 1]

    def _bracket(self, zf: float) -> float:
        c_half, c_one = self.coefficients(
            snapped_fluctuation(_invert_w(self.dim, zf)))
        if self.max_terms == 2:
            # Sphere R_1 skips the absent z^(-1/2) order: term 2 is z^(-1).
            return 1.0 + c_one * (1.0 / zf)
        ratio = 1.0 + c_half * zf ** -0.5
        return ratio if self.terms == 2 else ratio + c_one * (1.0 / zf)

    def _leading(self, z: Real, zf: float) -> float:
        """lead z^(d/2 + gamma); one ValueError if it leaves float range."""
        try:
            return self.lead * zf ** self.exponent
        except OverflowError:
            raise ValueError(f"expansion requires z^{self.exponent:g} in "
                             f"float range, got z={z!r}") from None

    def __call__(self, z: Real) -> float:
        zf = float(require_real("z", z, _SMALLEST, INVERT_W_MAX))
        lead = self._leading(z, zf)
        # The one-term bracket is 1.0, and lead * 1.0 is lead bit for bit.
        return lead if self.terms == 1 else lead * self._bracket(zf)

    def at(self, z: Real) -> ExpansionEval:
        zf = float(require_real("z", z, _SMALLEST, INVERT_W_MAX))
        ratio = 1.0 if self.terms == 1 else self._bracket(zf)
        return ExpansionEval(self._leading(z, zf) * ratio, ratio,
                             self.terms, self.remainder)


def expansion(space: Space, quantity: str, z: Real, terms: int) -> ExpansionEval:
    """Truncated semiclassical expansion times the leading Weyl term.

    quantity is 'N' or 'R1'; terms counts retained terms of the relevant
    theorem (sphere R_1 has at most 2, the others at most 3).  Callers
    that evaluate many z bind a BoundExpansion once instead.
    """
    return BoundExpansion(space, quantity, terms).at(z)
