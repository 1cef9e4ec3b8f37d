"""Exactly known Laplacian spectra on compact rank-one symmetric spaces.

Energy levels and multiplicities for spheres, hemispheres (Dirichlet and
Neumann on the equator) and the four projective families.  Everything is
exact integer arithmetic; multiplicities are built from binomials, never
from floating Gamma ratios, since they overflow 64-bit integers already
around l ~ 40 in dimension 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

Real = Union[int, float, Fraction]

#: The one level guard: levels beyond this cap are refused instead of
#: silently enumerated, by every lookup and inversion.
DEFAULT_LEVEL_CAP = 10_000


class Family(Enum):
    SPHERE = "sphere"
    HEMISPHERE_DIRICHLET = "hemisphere-d"
    HEMISPHERE_NEUMANN = "hemisphere-n"
    REAL_PROJECTIVE = "rp"
    COMPLEX_PROJECTIVE = "cp"
    QUATERNION_PROJECTIVE = "hp"
    CAYLEY_PLANE = "cayley"


_HEMISPHERES = (Family.HEMISPHERE_DIRICHLET, Family.HEMISPHERE_NEUMANN)


@dataclass(frozen=True)
class Space:
    """A manifold (plus boundary condition) with fully explicit spectrum.

    The circle is represented as the sphere with dim=1 so that every
    generic d-dimensional formula is exercised at d=1.
    """

    family: Family
    dim: int

    def __post_init__(self):
        d = self.dim
        fam = self.family
        ok = {
            Family.SPHERE: d >= 1,
            Family.HEMISPHERE_DIRICHLET: d >= 2,
            Family.HEMISPHERE_NEUMANN: d >= 2,
            Family.REAL_PROJECTIVE: d >= 2,
            Family.COMPLEX_PROJECTIVE: d >= 4 and d % 2 == 0,
            Family.QUATERNION_PROJECTIVE: d >= 8 and d % 4 == 0,
            Family.CAYLEY_PLANE: d == 16,
        }[fam]
        if not ok:
            raise ValueError(f"dimension {d} out of range for {fam.value}")

    @property
    def is_closed(self) -> bool:
        return self.family not in _HEMISPHERES

    @property
    def min_level(self) -> int:
        """Smallest admissible level index (1 for the Dirichlet hemisphere)."""
        return 1 if self.family is Family.HEMISPHERE_DIRICHLET else 0

    @property
    def first_positive_eigenvalue(self) -> int:
        """lambda_(1), the first non-trivial energy level."""
        return eigenvalue(self, 1)

    def describe(self) -> str:
        return f"{self.family.value}:{self.dim}"


def sphere(d: int) -> Space:
    return Space(Family.SPHERE, d)


def circle() -> Space:
    return Space(Family.SPHERE, 1)


def hemisphere_dirichlet(d: int) -> Space:
    return Space(Family.HEMISPHERE_DIRICHLET, d)


def hemisphere_neumann(d: int) -> Space:
    return Space(Family.HEMISPHERE_NEUMANN, d)


@dataclass(frozen=True)
class EnergyLevel:
    """One energy level: index l, exact eigenvalue and exact multiplicity."""

    l: int
    lam: int
    mult: int


def _h(d: int, l: int) -> int:
    # H_{l,d} = C(d+l, l); zero for negative l.
    return math.comb(d + l, l) if l >= 0 else 0


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-integer multiplicity {num}/{den}")
    return q


def eigenvalue(space: Space, l: int) -> int:
    """Exact integer eigenvalue lambda_(l) of the Laplacian on the space."""
    if l < space.min_level:
        raise ValueError(f"level {l} below minimum {space.min_level} "
                         f"for {space.describe()}")
    d = space.dim
    fam = space.family
    if fam in (Family.SPHERE, *_HEMISPHERES):
        return l * (l + d - 1)
    if fam is Family.REAL_PROJECTIVE:
        return 2 * l * (2 * l + d - 1)
    if fam is Family.COMPLEX_PROJECTIVE:
        return _exact_div(l * (2 * l + d), 2)
    if fam is Family.QUATERNION_PROJECTIVE:
        return _exact_div(l * (2 * l + d + 2), 2)
    if fam is Family.CAYLEY_PLANE:
        return _exact_div(l * (2 * l + d + 6), 2)
    raise AssertionError(fam)


def multiplicity(space: Space, l: int) -> int:
    """Exact multiplicity m_{l,d} of level l (big integer).

    The projective-family formulas have l in a denominator; the l = 0
    eigenspace is the constants, so m_0 = 1 by definition.
    """
    if l < space.min_level:
        raise ValueError(f"level {l} below minimum {space.min_level} "
                         f"for {space.describe()}")
    d = space.dim
    fam = space.family
    if fam is Family.SPHERE:
        return _h(d, l) - _h(d, l - 2)
    if fam is Family.HEMISPHERE_DIRICHLET:
        return math.comb(d + l - 2, d - 1)
    if fam is Family.HEMISPHERE_NEUMANN:
        return math.comb(d + l - 1, d - 1)
    if l == 0:
        return 1
    if fam is Family.REAL_PROJECTIVE:
        return _exact_div((4 * l + d - 1) * math.comb(d + 2 * l - 2, d - 1),
                          2 * l)
    h = d // 2
    if fam is Family.COMPLEX_PROJECTIVE:
        return _exact_div((d + 4 * l) * math.comb(h + l - 1, h - 1) ** 2, d)
    if fam is Family.QUATERNION_PROJECTIVE:
        return _exact_div((4 * l + d + 2) * math.comb(h + l - 1, h - 1)
                          * math.comb(h + l, h + 1), 2 * l * (l + 1))
    if fam is Family.CAYLEY_PLANE:
        return _exact_div(3 * (4 * l + d + 6) * math.comb(h + l - 1, h - 1)
                          * math.comb(h + l + 2, h + 3),
                          l * (l + 1) * (l + 2) * (l + 3))
    raise AssertionError(fam)


def energy_level(space: Space, l: int) -> EnergyLevel:
    """Level index, eigenvalue and multiplicity bundled together."""
    return EnergyLevel(l, eigenvalue(space, l), multiplicity(space, l))


def require_finite_nonnegative(z: Real) -> None:
    """ValueError for NaN, +-inf and z < 0, the one check on bad z."""
    if isinstance(z, float) and not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z!r}")


def max_level_index(space: Space, z: Real) -> Optional[int]:
    """Largest l with lambda_(l) <= z, in exact integer arithmetic.

    Returns None for the Dirichlet hemisphere when z < lambda_(1); for all
    other spaces z >= 0 guarantees at least the bottom level.  With
    s lambda(l) = a l^2 + b l (integers a, b, s), and lambda(l) an integer,
    lambda(l) <= z exactly when a l^2 + b l <= s floor(z); the largest such
    l is (isqrt(b^2 + 4 a s floor(z)) - b) // (2a), with no rounding.
    """
    require_finite_nonnegative(z)
    a, b, s = _level_quadratic(space)
    l = (math.isqrt(b * b + 4 * a * s * math.floor(z)) - b) // (2 * a)
    if l > DEFAULT_LEVEL_CAP:
        raise ValueError(f"level cap {DEFAULT_LEVEL_CAP} exceeded at z={z!r}")
    return l if l >= space.min_level else None


def _level_quadratic(space: Space):
    """(a, b, s) with s lambda(l) = a l^2 + b l, all integers."""
    d = space.dim
    fam = space.family
    if fam in (Family.SPHERE, *_HEMISPHERES):
        return 1, d - 1, 1
    if fam is Family.REAL_PROJECTIVE:
        return 4, 2 * (d - 1), 1
    if fam is Family.COMPLEX_PROJECTIVE:
        return 2, d, 2
    if fam is Family.QUATERNION_PROJECTIVE:
        return 2, d + 2, 2
    if fam is Family.CAYLEY_PLANE:
        return 2, d + 6, 2
    raise AssertionError(fam)


def invert_w(d: int, z: Real) -> float:
    """Nonnegative root w of w(w+d-1) = z, refined by one Newton step.

    The refinement keeps |w(w+d-1) - z| within a few ulp of z.
    """
    if z < 0:
        raise ValueError("invert_w requires z >= 0")
    zf = float(z)
    c = d - 1.0
    w = (-c + math.sqrt(c * c + 4.0 * zf)) / 2.0
    slope = 2.0 * w + c
    if slope > 0.0:
        w -= (w * (w + c) - zf) / slope
    return max(w, 0.0)


def fluctuation(w):
    """Fluctuation psi(w) = w - floor(w) - 1/2, in [-1/2, 1/2).

    Exact for Fraction input (returns a Fraction); -1/2 at integers.
    """
    if w < 0:
        raise ValueError("fluctuation requires w >= 0")
    if isinstance(w, float):
        return w - math.floor(w) - 0.5
    return w - math.floor(w) - Fraction(1, 2)


_FAMILY_ALIASES = {
    "sphere": Family.SPHERE,
    "s": Family.SPHERE,
    "circle": Family.SPHERE,
    "hemisphere-d": Family.HEMISPHERE_DIRICHLET,
    "hemisphere-dirichlet": Family.HEMISPHERE_DIRICHLET,
    "hemisphere-n": Family.HEMISPHERE_NEUMANN,
    "hemisphere-neumann": Family.HEMISPHERE_NEUMANN,
    "rp": Family.REAL_PROJECTIVE,
    "cp": Family.COMPLEX_PROJECTIVE,
    "hp": Family.QUATERNION_PROJECTIVE,
    "cayley": Family.CAYLEY_PLANE,
}


def is_space_descriptor(text: str) -> bool:
    """True when text names a space family (with or without ':dim')."""
    name = text.partition(":")[0].strip().lower()
    return name in _FAMILY_ALIASES


def parse_space(descriptor: str) -> Space:
    """Parse a 'family:dim' descriptor such as 'sphere:3' or 'hemisphere-d:2'."""
    name, sep, dim_str = descriptor.partition(":")
    name = name.strip().lower()
    if name == "circle" and not sep:
        dim_str = "1"
    if name not in _FAMILY_ALIASES:
        valid = ", ".join(sorted(set(_FAMILY_ALIASES)))
        raise ValueError(f"unknown space family {name!r}; valid: {valid}")
    try:
        dim = int(dim_str)
    except ValueError:
        raise ValueError(f"bad dimension in descriptor {descriptor!r}") from None
    if name == "circle" and dim != 1:
        raise ValueError("circle is one-dimensional")
    return Space(_FAMILY_ALIASES[name], dim)
