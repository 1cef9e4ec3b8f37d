"""Exactly known Laplacian spectra on compact rank-one symmetric spaces.

Energy levels and multiplicities for spheres, hemispheres (Dirichlet and
Neumann on the equator) and the four projective families.  Everything is
exact integer arithmetic; multiplicities are built from binomials, never
from floating Gamma ratios, since they overflow 64-bit integers already
around l ~ 40 in dimension 16.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple, Union

Real = Union[int, float, Fraction]

#: The one level guard: levels beyond this cap are refused instead of
#: silently enumerated, by every lookup and inversion.
DEFAULT_LEVEL_CAP = 10_000
#: The declared dimension range: the exact Gamma ratios of a d-dimensional
#: space grow faster than linearly in d, and take about 0.1 s at this d.
DIMENSION_CAP = 20_000
#: The largest float, and the largest z whose 4 z (in `invert_w`) is one.
FLOAT_MAX = sys.float_info.max
INVERT_W_MAX = FLOAT_MAX / 4


class Family(Enum):
    SPHERE = "sphere"
    HEMISPHERE_DIRICHLET = "hemisphere-d"
    HEMISPHERE_NEUMANN = "hemisphere-n"
    REAL_PROJECTIVE = "rp"
    COMPLEX_PROJECTIVE = "cp"
    QUATERNION_PROJECTIVE = "hp"
    CAYLEY_PLANE = "cayley"


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-integer quotient {num}/{den}")
    return q


class _FamilyRecord(NamedTuple):
    """Every per-family fact of the spectrum, as functions of dimension d."""

    admits: Callable[[int], bool]  # d is an admissible dimension
    closed: bool
    min_level: int
    # (a, b, s), integers with s lambda(l) = a l^2 + b l: the eigenvalue
    # and the level inversion both read it.
    quadratic: Callable[[int], Tuple[int, int, int]]
    mult: Callable[[int, int], int]  # m(l) for l >= 1; m_0 = 1 everywhere
    # L^class_{0,d} |M^d|, the volume normalization of the eigenvalue
    # conventions, as an exact rational.
    w0: Callable[[int], Fraction]


_FAMILIES = {
    Family.SPHERE: _FamilyRecord(
        lambda d: d >= 1, True, 0, lambda d: (1, d - 1, 1),
        lambda d, l: math.comb(d + l, d) - math.comb(d + l - 2, d),
        lambda d: Fraction(2, math.factorial(d))),
    Family.HEMISPHERE_DIRICHLET: _FamilyRecord(
        lambda d: d >= 2, False, 1, lambda d: (1, d - 1, 1),
        lambda d, l: math.comb(d + l - 2, d - 1),
        lambda d: Fraction(1, math.factorial(d))),
    Family.HEMISPHERE_NEUMANN: _FamilyRecord(
        lambda d: d >= 2, False, 0, lambda d: (1, d - 1, 1),
        lambda d, l: math.comb(d + l - 1, d - 1),
        lambda d: Fraction(1, math.factorial(d))),
    Family.REAL_PROJECTIVE: _FamilyRecord(
        lambda d: d >= 2, True, 0, lambda d: (4, 2 * (d - 1), 1),
        lambda d, l: _exact_div(
            (4 * l + d - 1) * math.comb(d + 2 * l - 2, d - 1), 2 * l),
        lambda d: Fraction(1, math.factorial(d))),
    Family.COMPLEX_PROJECTIVE: _FamilyRecord(
        lambda d: d >= 4 and d % 2 == 0, True, 0, lambda d: (2, d, 2),
        lambda d, l: _exact_div(
            (d + 4 * l) * math.comb(d // 2 + l - 1, d // 2 - 1) ** 2, d),
        lambda d: Fraction(1, math.factorial(d // 2) ** 2)),
    Family.QUATERNION_PROJECTIVE: _FamilyRecord(
        lambda d: d >= 8 and d % 4 == 0, True, 0, lambda d: (2, d + 2, 2),
        lambda d, l: _exact_div(
            (4 * l + d + 2) * math.comb(d // 2 + l - 1, d // 2 - 1)
            * math.comb(d // 2 + l, d // 2 + 1), 2 * l * (l + 1)),
        lambda d: Fraction(2, d * math.factorial(d // 2 - 1)
                           * math.factorial(d // 2 + 1))),
    Family.CAYLEY_PLANE: _FamilyRecord(
        lambda d: d == 16, True, 0, lambda d: (2, d + 6, 2),
        lambda d, l: _exact_div(
            3 * (4 * l + d + 6) * math.comb(d // 2 + l - 1, d // 2 - 1)
            * math.comb(d // 2 + l + 2, d // 2 + 3),
            l * (l + 1) * (l + 2) * (l + 3)),
        lambda d: Fraction(3, 4 * math.factorial(7) * math.factorial(11))),
}


class _SpaceFields(NamedTuple):
    family: Family
    dim: int


class Space(_SpaceFields):
    """A manifold (plus boundary condition) with fully explicit spectrum.

    The circle is represented as the sphere with dim=1 so that every
    generic d-dimensional formula is exercised at d=1.  Construction
    checks the dimension in `__post_init__`, looked up on the class, so a
    wrapper set there sees every space built (perfbench counts them).
    """

    __slots__ = ()

    def __new__(cls, family: Family, dim: int):
        self = super().__new__(cls, family, dim)
        self.__post_init__()
        return self

    def __post_init__(self):
        admits = _FAMILIES[self.family].admits
        if (type(self.dim) is not int or not admits(self.dim)
                or self.dim > DIMENSION_CAP):
            raise ValueError(f"dimension {self.dim} out of range "
                             f"for {self.family.value}")

    @property
    def record(self) -> _FamilyRecord:
        return _FAMILIES[self.family]

    @property
    def is_closed(self) -> bool:
        return _FAMILIES[self.family].closed

    @property
    def min_level(self) -> int:
        """Smallest admissible level index (1 for the Dirichlet hemisphere)."""
        return _FAMILIES[self.family].min_level

    @property
    def first_positive_eigenvalue(self) -> int:
        """lambda_(1), the first non-trivial energy level."""
        return eigenvalue(self, 1)

    def describe(self) -> str:
        return f"{self.family.value}:{self.dim}"


@functools.cache
def sphere(d: int) -> Space:
    return Space(Family.SPHERE, d)


def hemisphere_dirichlet(d: int) -> Space:
    return Space(Family.HEMISPHERE_DIRICHLET, d)


def hemisphere_neumann(d: int) -> Space:
    return Space(Family.HEMISPHERE_NEUMANN, d)


def eigenvalue(space: Space, l: int) -> int:
    """Exact integer eigenvalue lambda_(l) = (a l^2 + b l) / s of the
    Laplacian, from the same quadratic as the level inversion."""
    require_int("level", l, space.min_level)
    a, b, s = space.record.quadratic(space.dim)
    return _exact_div(a * l * l + b * l, s)


def multiplicity(space: Space, l: int) -> int:
    """Exact multiplicity m_{l,d} of level l (big integer).

    The projective-family formulas have l in a denominator; the l = 0
    eigenspace is the constants, so m_0 = 1 by definition.
    """
    require_int("level", l, space.min_level)
    return space.record.mult(space.dim, l) if l else 1


def level_values(a: int, b: int, s: int, start: int,
                 stop: int) -> Iterator[int]:
    """The integer eigenvalues lambda(l) = (a l + b) l / s of levels start
    to stop - 1, as an iterator built in C: one product of two ranges per
    level once (a, b, s) is divided by its gcd, which leaves s = 1 for
    every family.  A larger s divides each product with the
    exact-division check of `eigenvalue`.
    """
    g = math.gcd(a, b, s)
    a, b, s = a // g, b // g, s // g
    values = map(mul, range(a * start + b, a * stop + b, a),
                 range(start, stop))
    return values if s == 1 else map(_exact_div, values, repeat(s))


def level_columns(space: Space, start: int,
                  stop: int) -> Tuple[List[int], List[int]]:
    """(lam, mult): the eigenvalues and multiplicities of levels start to
    stop - 1, as two lists.

    The same ints as `eigenvalue` and `multiplicity` level by level, read
    off the same record with the same exact-division check, in one call
    for a whole run of levels: the prefix tables take their
    multiplicities from it.
    """
    require_int("start", start, space.min_level)
    rec, d = space.record, space.dim
    return (list(level_values(*rec.quadratic(d), start, stop)),
            [rec.mult(d, l) if l else 1 for l in range(start, stop)])


def level_cap_exceeded(name: str, value) -> ValueError:
    """The one error for a lookup past DEFAULT_LEVEL_CAP."""
    return ValueError(f"level cap {DEFAULT_LEVEL_CAP} exceeded "
                      f"at {name}={value!r}")


def require_int(name: str, value, lo: int, hi: Optional[int] = None):
    """value, after one ValueError unless it is an int (a bool is not) in
    lo..hi, or >= lo when hi is None: the one check on an integer argument.
    """
    if type(value) is not int or value < lo or hi is not None and value > hi:
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return value


def require_real(name: str, value, lo: Real = 0, hi: Real = math.inf,
                 strict: bool = False):
    """value, after one ValueError unless it is a finite number (a bool is
    not) >= lo (> lo when strict) and <= hi: the one check on a real
    argument.  value is never converted, so exact comparisons decide: an
    int or Fraction past float range passes when hi is infinite.
    """
    if (type(value) is bool or not (lo < value if strict else lo <= value)
            or value > hi or value == math.inf):  # NaN fails lo too
        span = (f"{'>' if strict else '>='} {lo}" if hi == math.inf
                else f"in {'(' if strict else '['}{lo}, {hi}]")
        raise ValueError(f"{name} must be a finite number {span}, "
                         f"got {value!r}")
    return value


def _integer_nth_root(m: int, n: int) -> int:
    """floor(m^(1/n)) for ints m >= 0 and n >= 1, exactly, with no float
    overflow: `math.isqrt` for n = 2.

    Below 2^53, m is a float and the float root is within 1 of the
    integer one, which two exact powers then fix.  Above, integer Newton
    iteration runs down from a start above the root: the float root of
    m's top bits, nudged up and shifted back, within about 2^-40 of it.
    Newton then takes a few steps, where a start up to twice the root
    took about 0.7 n.
    """
    if m < 2:
        return m
    if n == 2:
        return math.isqrt(m)
    if m < 1 << 53:
        r = int(m ** (1.0 / n))
        if r ** n > m:
            return r - 1
        return r + 1 if (r + 1) ** n <= m else r
    # m^(1/n) <= ((m >> n s)^(1/n) + 1) 2^s, a root of about 53 bits.
    s = max(m.bit_length() // n - 53, 0)
    top = 2.0 ** (math.log2(m >> n * s) / n)
    r = (int(top * (1 + 2.0 ** -40)) + 2) << s
    while True:
        nr = ((n - 1) * r + m // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


def _level_inversion(z: Real, key: int, p: int, a: int, b: int,
                     s: int) -> int:
    """Largest l >= 0 with lambda_(l)^p <= z, for key = floor(z) >= 0 and
    s lambda(l) = a l^2 + b l; past DEFAULT_LEVEL_CAP, the cap error
    naming z.

    Every lambda(l) is an int, so lambda(l)^p <= z exactly when
    lambda(l) <= r, r the integer p-th root of floor(z), that is when
    a l^2 + b l <= s r; the largest such l is
    (isqrt(b^2 + 4 a s r) - b) // (2a), with no rounding.
    """
    r = (key if p == 1 else math.isqrt(key) if p == 2
         else _integer_nth_root(key, p))
    l = (math.isqrt(b * b + 4 * a * s * r) - b) // (2 * a)
    if l > DEFAULT_LEVEL_CAP:
        raise level_cap_exceeded("z", z)
    return l


def max_level_index(space: Space, z: Real) -> Optional[int]:
    """Largest l with lambda_(l) <= z, in exact integer arithmetic
    (`_level_inversion` at p = 1).

    Returns None for the Dirichlet hemisphere when z < lambda_(1); for all
    other spaces z >= 0 guarantees at least the bottom level.
    """
    l = _level_inversion(z, math.floor(require_real("z", z)), 1,
                         *space.record.quadratic(space.dim))
    return l if l >= space.min_level else None


def _invert_w(d: int, z: float) -> float:
    """`invert_w` of a float z already known to be in [0, INVERT_W_MAX]."""
    c = d - 1.0
    w = (-c + math.sqrt(c * c + 4.0 * z)) / 2.0
    slope = 2.0 * w + c
    if slope > 0.0:
        w -= (w * (w + c) - z) / slope
    return max(w, 0.0)


def invert_w(d: int, z: Real) -> float:
    """Nonnegative root w of w(w+d-1) = z, for z in [0, INVERT_W_MAX],
    refined by one Newton step, which keeps |w(w+d-1) - z| within a few
    ulp of z."""
    return _invert_w(d, float(require_real("z", z, 0, INVERT_W_MAX)))


def _fluctuation(w):
    """`fluctuation` of a w already known to be finite and >= 0."""
    return w - math.floor(w) - (0.5 if isinstance(w, float)
                                else Fraction(1, 2))


def fluctuation(w):
    """Fluctuation psi(w) = w - floor(w) - 1/2, in [-1/2, 1/2), of a finite
    w >= 0: exact (a Fraction) for Fraction w, and -1/2 at integers."""
    return _fluctuation(require_real("w", w))


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
