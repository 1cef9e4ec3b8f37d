"""Catalog of the sharp spectral bounds, with verification machinery.

Every inequality is a catalog entry: an id, the spectrum it constrains,
one or two sides with closed-form evaluators, recorded equality points,
and an expected_valid flag.  Entries with expected_valid=False reproduce
documented counterexamples and must exhibit at least one violation.

Each side is one expression for both arithmetic paths: int/Fraction
arguments stay exact whenever the closed form is rational (square roots
of perfect rational squares included), so recorded equality points test
with slack exactly zero, and float arguments run in binary64 because
Fraction-float arithmetic rounds the Fraction first.  Only the
root helpers below, Power and two S^d sides look at the argument
type: Power and sd.r1.lower.shift send a float z through
float constants kept from binding, the same floats Fraction-float
arithmetic would make, and the sd.avg.twosided sides work on the integer
ratio of k, exact when the root is.  Each entry
declares its parameters once; BoundSpec.validate reads that schema.  It
also declares its parameter matrix, the representative parameter sets
that entry_matrix() gives the catalog sweep.
Each side is bound once per parameter set (SideRule.bind), and every side
c (z + b)^q is one Power, which also gives Legendre its closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import truediv
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .riesz import (SpectrumQuery, Variant, eigenvalue_sums, evaluate_grid,
                    level_values_upto, prefix_sums)
from .spaces import (DEFAULT_LEVEL_CAP, FLOAT_MAX, Family, Real, Space,
                     _fluctuation, _integer_nth_root, _invert_w,
                     hemisphere_dirichlet, hemisphere_neumann, require_int,
                     require_real, sphere)
from .sumrules import natural_shift
from .weyl import lclass, lclass_volume, sphere_volume

# ---------------------------------------------------------------------------
# Exactness-preserving numeric helpers


def _big_root(a: int, b: int, n: int) -> float:
    """(a / b)^(1/n) for positive ints whose quotient is past float range:
    the integer n-th root of a 2^(n s) / b, at a scale 2^s that leaves it
    64 bits, scaled back once.  A root past float range is an
    OverflowError."""
    s = 64 - (a.bit_length() - b.bit_length()) // n
    m = (a << n * s) // b if s >= 0 else a // (b << -n * s)
    return math.ldexp(_integer_nth_root(m, n), -s)


def _root(x, n: int = 2):
    """x^(1/n); Fraction in, Fraction out when x is a perfect n-th power.
    Otherwise one float root: math.sqrt for n = 2, x ** (1/n) else, of
    float(x), or `_big_root` when float(x) is past float range."""
    if not isinstance(x, float):
        xq = Fraction(x)
        a, b = xq.numerator, xq.denominator
        rn, rd = (math.isqrt(v) if n == 2 else _integer_nth_root(v, n)
                  for v in (a, b))
        if rn ** n == a and rd ** n == b:
            return Fraction(rn, rd)
        try:
            x = float(xq)
        except OverflowError:
            return _big_root(a, b, n)
    return math.sqrt(x) if n == 2 else x ** (1.0 / n)


def _pow_half(x, halves: int):
    """x^(halves/2), exact when possible."""
    if halves % 2 == 0:
        return x ** (halves // 2)
    if not isinstance(x, float):
        s = _root(x)
        if not isinstance(s, float):
            return x ** (halves // 2) * s
    return float(x) ** (halves / 2.0)


def _w_of(d: int, z):
    """w with w(w+d-1) = z; exact Fraction when the discriminant is square."""
    if not isinstance(z, float):
        disc = (d - 1) ** 2 + 4 * Fraction(z)
        r = _root(disc)
        if not isinstance(r, float):
            return (r - (d - 1)) / 2
    return _invert_w(d, float(z))  # float(z) past float range: OverflowError


def _psi_of(d: int, z):
    return _fluctuation(_w_of(d, z))


def _normalize_arg(z):
    # Ints must ride the exact path: a bare int would hit float division.
    return Fraction(z) if isinstance(z, int) else z


# ---------------------------------------------------------------------------
# Catalog data model


def _closed_space(name: str, value, lo, hi) -> Space:
    if not isinstance(value, Space):
        raise ValueError(f"parameter {name!r} must be a Space")
    if not value.is_closed:
        raise ValueError("R2 sum-rule bounds apply to closed spaces")
    if value.dim < 2:
        # The gap-minimum positivity (d-2)/(d+2) L(L+d) needs d >= 2;
        # on the circle the lower bound genuinely fails (z ~ 1537).
        raise ValueError("R2 two-sided bounds require dim >= 2")
    return value


class Param(NamedTuple):
    """One declared entry parameter.

    `kind(name, value, lo, hi)` checks a given value, inclusively within
    `lo`/`hi`, and converts it: an integer is `require_int`, the area
    `require_real` and float.  A `default` of None makes the parameter
    required.  `default`, `lo` and `hi` may be callables of the parameters
    declared before this one (a domain's area is bounded by its space's).
    """

    name: str
    kind: Callable[[str, Any, Any, Any], Any] = require_int
    lo: Any = None
    hi: Any = None
    default: Any = None


def _area(full: Callable[[dict], float]) -> Param:
    return Param("area", lambda *arg: float(require_real(*arg)), lo=0,
                 hi=lambda prm: full(prm) * (1 + 1e-12), default=full)


class SideRule(NamedTuple):
    side: str  # 'lower' or 'upper'
    bind: Callable[..., Callable]  # (**params) -> the side, a function of z


class Power:
    """The side c (z + b)^q as data; `legendre` is its closed-form transform.

    A float z, or any z when c or b is a float or 2q is not an integer,
    evaluates cf (float(z) + bf)^q in binary64 with cf = float(c) and
    bf = float(b), kept from construction: Python evaluates float (+)
    Fraction as float (+) float(Fraction), so a float z gets the value the
    exact expression gives, without Fraction's dispatch.  Otherwise (2q =
    `halves`) int and Fraction z stay exact whenever the value is.  When
    a float power overflows and 2q is an integer, the value is the float of
    the exact c (z + b)^floor(q), times the root of z + b for an odd 2q: a
    value in float range is returned, not an overflow.  The attributes are
    slots, read on every call: a NamedTuple field read is a descriptor
    call, about 12 ns more than a slot read.
    """

    __slots__ = ("c", "q", "b", "cf", "bf", "halves")

    def __init__(self, c, q: float, b=0):
        self.c, self.q, self.b = c, q, b
        halves = round(2 * q)
        exact = halves == 2 * q and not any(
            isinstance(v, float) for v in (c, b))
        self.cf, self.bf = float(c), float(b)
        self.halves = halves if exact else None

    def __repr__(self):
        return (f"{type(self).__name__}(c={self.c!r}, q={self.q!r}, "
                f"b={self.b!r})")

    def __call__(self, z):
        try:
            if self.halves is None or type(z) is float:
                return self.cf * (float(z) + self.bf) ** self.q
            return self.c * _pow_half(z + self.b, self.halves)
        except OverflowError:  # in the float power
            if self.halves is None:
                raise
        x = Fraction(z) + self.b
        v = self.c * x ** (self.halves // 2)
        return float(v * _root(x) if self.halves % 2 else v)

    def legendre(self, k: int) -> float:
        """max over z >= 0 of (k z - c (z + b)^q) / k, for q > 1."""
        c, q, b = self.cf, self.q, self.bf
        zstar = (k / (c * q)) ** (1 / (q - 1)) - b
        if zstar <= 0:
            return -c * b ** q / k
        return (k * zstar - c * (zstar + b) ** q) / k


class _HalfSquare(Power):
    """z^2 / 2 in ints, z * z / 2: x ** 2 and x * x differ in binary64."""

    __slots__ = ()

    def __call__(self, z):
        return z * z / 2


class _HalfSquareShifted(Power):
    """(z + b)^2 / 2 with 2b an integer m, spelled (2z + m)^2 / 8."""

    __slots__ = ("m",)

    def __init__(self, c, q: float, b=0):
        super().__init__(c, q, b)
        self.m = int(2 * b)

    def __call__(self, z):
        t = 2 * z + self.m
        return t * t / 8


class BoundSpec(NamedTuple):
    id: str
    title: str
    quantity: str  # 'N' | 'R1' | 'R2' | 'average'
    query: Callable[[dict], SpectrumQuery]
    sides: Tuple[SideRule, ...]
    params: Tuple[Param, ...] = ()
    expected_valid: bool = True
    equality: Optional[Callable[[dict, int], list]] = None
    equality_side: Optional[str] = None  # None: applies to every side
    witnesses: Optional[Callable[[dict, float], list]] = None
    # The representative parameter sets the catalog sweep verifies, each
    # as (name, value) pairs, so that a spec stays hashable.
    matrix: Tuple[Tuple[Tuple[str, Any], ...], ...] = ((),)

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(par.name for par in self.params)

    def validate(self, params: dict) -> dict:
        """Declared parameters with defaults filled in; ValueError if bad."""
        unknown = set(params) - set(self.param_names)
        if unknown:
            raise ValueError(f"unexpected parameters {sorted(unknown)}")
        out = {}
        for par in self.params:
            value = params.get(par.name)
            if value is None:
                if par.default is None:
                    raise ValueError(f"parameter {par.name} is required")
                value = par.default(out) if callable(par.default) \
                    else par.default
            lo, hi = (v(out) if callable(v) else v for v in (par.lo, par.hi))
            out[par.name] = par.kind(par.name, value, lo, hi)
        return out


_CATALOG: Dict[str, BoundSpec] = {}
_ALIASES: Dict[str, str] = {}


def _register(spec: BoundSpec, *aliases: str):
    _CATALOG[spec.id] = spec
    for a in aliases:
        _ALIASES[a] = spec.id


def catalog() -> Dict[str, BoundSpec]:
    return dict(_CATALOG)


def entry_matrix() -> List[Tuple[str, dict]]:
    """(id, params) for every entry at each of its declared parameter sets,
    in catalog order: the pairs the catalog sweep verifies."""
    return [(bid, dict(prm)) for bid, spec in _CATALOG.items()
            for prm in spec.matrix]


def get(bound_id: str) -> BoundSpec:
    key = _ALIASES.get(bound_id, bound_id)
    if key not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise KeyError(f"unknown bound id {bound_id!r}; known ids: {known}")
    return _CATALOG[key]


# ---------------------------------------------------------------------------
# Shared formula pieces

def _zd(d: int) -> Fraction:  # the shift z_d
    return Fraction(d * (2 * d - 1), 12)


def _ld(d: int, p: int = 1) -> Fraction:  # L^class_{1,d,p} |S^d|
    return lclass_volume(sphere(d), 1, p)


def _each(name: str, values) -> Tuple[Tuple[Tuple[str, Any]], ...]:
    """A parameter matrix with one row per value of one parameter."""
    return tuple(((name, v),) for v in values)


def _upper_env_points(count: int):
    # z = (l+1)^2 - 1/2, the S^2 upper-bound equality family.
    return [Fraction(2 * (l + 1) ** 2 - 1, 2) for l in range(count)]


def optimal_shift(d: int, l: int) -> float:
    """Per-gap optimal shift b(l) -> z_d as l -> infinity.

    b(l) = d/(d+2) (4^(-1/d) ((d+2l)(d+l-1)!/l!)^(2/d) - l(l+d)).
    """
    require_int("d", d, 2)
    require_int("l", l, 1)
    x = (d + 2 * l) * math.prod(range(l + 1, l + d))
    val = _root(Fraction(x * x, 4), d)
    return float(Fraction(d, d + 2) * (val - l * (l + d)))


class Bly345Diagnostics(NamedTuple):
    """Interior-maximum diagnostics of the hemisphere gap ratio, any d >= 2.

    The Berezin-Li-Yau check on S^d_+ reduces to the per-gap maximum of
    R1^D over the Weyl term; these are the objects that decide it.
    """

    d: int
    level: int
    x_crit: float        # interior critical point of the gap ratio
    z_crit: float        # (L+d)(L + 1/(d+1))
    ratio_at_crit: float  # f_L(x_L)


def bly345_gap_diagnostics(d: int, level: int) -> Bly345Diagnostics:
    require_int("d", d, 2)
    L = require_int("level", level, 1)
    z_star = Fraction((L + d) * ((d + 1) * L + 1), d + 1)
    # Solve (L+x)(L+x+d-1) = z* for the fractional part x.
    c = 2 * L + d - 1
    x = (-c + math.sqrt(c * c + 4 * float(z_star - L * (L + d - 1)))) / 2
    f_crit = math.prod(range(L, L + d)) / float(z_star) ** (d / 2)
    return Bly345Diagnostics(d, L, x, float(z_star), f_crit)


# ---------------------------------------------------------------------------
# Entry definitions

def _build_catalog():
    # Binders compute each side's constants once.  Dyadic constants are
    # spelled with ints (z + 1/2 as (2z + 1)/2): floats stay bit-identical,
    # and a float z skips Fraction's costly mixed-type dispatch.

    # --- S^2, closed -------------------------------------------------------
    s2_query = lambda p: SpectrumQuery(sphere(2))
    s2_lower = _HalfSquare(Fraction(1, 2), 2.0)
    s2_upper = _HalfSquareShifted(Fraction(1, 2), 2.0, Fraction(1, 2))

    def _osc(z):
        psi = _psi_of(2, z)
        return (1 - 4 * psi * psi) / 4  # 1/4 - psi^2

    def s2_lower_imp(z):
        osc = _osc(z)
        base = s2_lower(z)
        if osc == 0:
            return base
        return base + 2 * osc * (z - _root(z) / 2)

    def s2_upper_imp(z):
        osc = _osc(z)
        base = s2_lower(z)
        if osc == 0:
            return base
        # 2 osc (z + sqrt(z)/2 + 1/2)
        return base + osc * (2 * z + _root(z) + 1)

    lam_points = lambda p, n: [l * (l + 1) for l in range(n)]
    _register(BoundSpec(
        "s2.r1.lower", "R1 on S^2 >= z^2/2", "R1", s2_query,
        (SideRule("lower", lambda: s2_lower),), equality=lam_points))
    _register(BoundSpec(
        "s2.r1.upper", "R1 on S^2 <= (z+1/2)^2/2", "R1", s2_query,
        (SideRule("upper", lambda: s2_upper),),
        equality=lambda p, n: _upper_env_points(n)))
    _register(BoundSpec(
        "s2.r1.lower.imp", "improved S^2 lower bound with fluctuation term",
        "R1", s2_query, (SideRule("lower", lambda: s2_lower_imp),),
        equality=lam_points))
    _register(BoundSpec(
        "s2.r1.upper.imp", "improved S^2 upper bound with fluctuation term",
        "R1", s2_query, (SideRule("upper", lambda: s2_upper_imp),),
        equality=lam_points))

    # --- S^2_+ -------------------------------------------------------------
    hd2 = lambda p: SpectrumQuery(hemisphere_dirichlet(2))
    hn2 = lambda p: SpectrumQuery(hemisphere_neumann(2))

    _register(BoundSpec(
        "hemi2.nd.polya", "Polya on the hemisphere: N^D <= z/2", "N", hd2,
        (SideRule("upper", lambda: lambda z: z / 2),), equality=lam_points))

    def nd_two_upper(z):
        a = (2 * _psi_of(2, z) + 1) / 2  # psi + 1/2
        if a == 0:  # at every level value, z = 0 included
            return z / 2
        t = _root(z) - a
        return t * t / 2

    def nd_two_lower(z):  # the upper side less a / (8 sqrt(z))
        a = (2 * _psi_of(2, z) + 1) / 2
        if a == 0:
            return z / 2
        s = _root(z)
        t = s - a
        return t * t / 2 - a / (8 * s)

    _register(BoundSpec(
        "hemi2.nd.twosided", "two-sided fluctuation bound for N^D on S^2_+",
        "N", hd2,
        (SideRule("lower", lambda: nd_two_lower),
         SideRule("upper", lambda: nd_two_upper)),
        equality=lam_points))

    def r1d_core(z):
        return z * z / 4 - z * _root(4 * z + 1) / 6  # z sqrt(z + 1/4) / 3

    _register(BoundSpec(
        "hemi2.r1d.lower", "R1^D on S^2_+ >= z^2/4 - z sqrt(z+1/4)/3",
        "R1", hd2, (SideRule("lower", lambda: r1d_core),),
        equality=lambda p, n: [l * (l + 1) for l in range(1, n + 1)]))
    _register(BoundSpec(
        "hemi2.r1d.upper", "R1^D on S^2_+, upper bound with +z/4 term",
        "R1", hd2,
        (SideRule("upper", lambda: lambda z: r1d_core(z) + z / 4),)))

    def r1n_core(z):
        return z * z / 4 + z * _root(4 * z + 1) / 6

    _register(BoundSpec(
        "hemi2.r1n.lower", "R1^N on S^2_+ >= z^2/4 + z sqrt(z+1/4)/3",
        "R1", hn2, (SideRule("lower", lambda: r1n_core),),
        equality=lam_points))
    _register(BoundSpec(
        "hemi2.r1n.upper", "R1^N on S^2_+, upper bound with +z term",
        "R1", hn2, (SideRule("upper", lambda: lambda z: r1n_core(z) + z),)))

    # --- domains of S^2_+ and S^2 -----------------------------------------
    area2p = _area(lambda p: 2 * math.pi)
    eight_pi = 8 * math.pi

    def bly(shift):  # area (z - shift)^2 / (8 pi)
        return lambda area: lambda z: area * (float(z) - shift) ** 2 / eight_pi

    _register(BoundSpec(
        "dom.s2p.bly", "Berezin-Li-Yau for domains of S^2_+", "R1", hd2,
        (SideRule("upper", bly(0)),), (area2p,)))
    _register(BoundSpec(
        "dom.s2p.bly.imp", "improved Berezin-Li-Yau with shift (z-1/2)^2",
        "R1", hd2, (SideRule("upper", bly(0.5)),), (area2p,)))

    buck2 = lambda p: SpectrumQuery(sphere(2), variant=Variant.BUCKLING)
    blys2_upper = _HalfSquareShifted(Fraction(1, 2), 2.0, Fraction(-1, 2))
    _register(BoundSpec(
        "lem.blys1", "sphere sum without l=0: <= z^2/2", "R1", buck2,
        (SideRule("upper", lambda: s2_lower),)))
    _register(BoundSpec(
        "lem.blys2", "sphere sum without l=0: <= (z-1/2)^2/2", "R1", buck2,
        (SideRule("upper", lambda: blys2_upper),),
        equality=lambda p, n: _upper_env_points(n)))

    _register(BoundSpec(
        "dom.s2.buckling", "Berezin-Li-Yau for buckling on domains of S^2",
        "R1", buck2, (SideRule("upper", bly(0.5)),),
        (_area(lambda p: 4 * math.pi),)))

    # --- S^d, closed -------------------------------------------------------
    sd_query = lambda p: SpectrumQuery(sphere(p["d"]))

    def shifted_lower(c, d):
        # c z^(d/2) (z + d(d-2)(d+2)/12).  A float z, or any z when c is a
        # float, takes float(c) and float(shift), as in Power.
        shift = Fraction(d * (d - 2) * (d + 2), 12)
        cf, shiftf, exact = float(c), float(shift), not isinstance(c, float)

        def side(z):
            if type(z) is float or not exact:
                zf = float(z)
                return cf * _pow_half(zf, d) * (zf + shiftf)
            return c * _pow_half(z, d) * (z + shift)
        return side

    def sd_equality(p, n):  # no finite equality points for d >= 3
        return lam_points(p, n) if p["d"] == 2 else []

    _register(BoundSpec(
        "sd.r1.lower", "Weyl lower bound for R1 on S^d", "R1", sd_query,
        (SideRule("lower", lambda d: Power(_ld(d), d / 2 + 1)),),
        (Param("d", lo=2),), equality=sd_equality,
        matrix=_each("d", range(2, 7))))
    _register(BoundSpec(
        "sd.r1.lower.shift", "refined lower bound with d(d-2)(d+2)/(12z)",
        "R1", sd_query,
        (SideRule("lower", lambda d: shifted_lower(_ld(d), d)),),
        (Param("d", lo=2),), equality=sd_equality,
        matrix=_each("d", range(2, 7))))

    def sd_upper_equality(p, n):
        d = p["d"]
        if d == 2:
            return _upper_env_points(n)
        # No equality z for d >= 3; expose the per-gap optimal shifts
        # b(l) -> z_d instead (see optimal_shift).
        return [optimal_shift(d, l) for l in range(1, n + 1)]

    _register(BoundSpec(
        "sd.r1.upper.shift", "shifted Weyl upper bound, shift z_d=d(2d-1)/12",
        "R1", sd_query,
        (SideRule("upper", lambda d: Power(_ld(d), d / 2 + 1, _zd(d))),),
        (Param("d", lo=2),), equality=sd_upper_equality,
        matrix=_each("d", range(2, 7))))

    _register(BoundSpec(
        "fail.sd.r1.lower.bdshift",
        "lower bound with the liminf shift b_d fails for d >= 3",
        "R1", sd_query,
        (SideRule("lower", lambda d: Power(
            float(_ld(d)), d / 2 + 1, d * (d - 2) / 6)),),
        (Param("d", lo=3),), expected_valid=False,
        matrix=_each("d", (3,))))

    # --- averages on S^d ---------------------------------------------------
    def avg_side(d, shift):
        # d/(d+2) ((k / w0)^2)^(1/d) - shift in integers: with k = p/r and
        # w0 = a/b, (k / w0)^2 = n/m in lowest terms.  One Fraction when n
        # and m are perfect d-th powers; else float(n/m) ** (1/d), or
        # _big_root past float range, the float _root takes, in the float
        # arithmetic that Fraction * float and float - Fraction run.
        a, b = lclass_volume(sphere(d), 0).as_integer_ratio()
        sn, sq = shift.as_integer_ratio()
        ratio, e, shiftf = d / (d + 2), 1.0 / d, float(shift)

        def side(k):
            p, r = k.as_integer_ratio()  # raises on NaN and inf
            num, den = p * b, r * a
            g = math.gcd(num, den)
            n, m = (num // g) ** 2, (den // g) ** 2
            rn, rm = _integer_nth_root(n, d), _integer_nth_root(m, d)
            if rn ** d == n and rm ** d == m:
                return Fraction(d * rn * sq - (d + 2) * rm * sn,
                                (d + 2) * rm * sq)
            try:
                return ratio * (n / m) ** e - shiftf
            except OverflowError:
                return ratio * _big_root(n, m, d) - shiftf
        return side

    _register(BoundSpec(
        "sd.avg.twosided", "two-sided bounds for eigenvalue averages on S^d",
        "average", sd_query,
        (SideRule("lower", lambda d: avg_side(d, _zd(d))),
         SideRule("upper", lambda d: avg_side(d, 0))),
        (Param("d", lo=2),), equality=lambda p, n: [1] if p["d"] == 2 else [],
        equality_side="lower", matrix=_each("d", range(2, 6))))

    _register(BoundSpec(
        "fail.liyau.d≥6",
        "hemisphere Li-Yau average bound fails for d >= 6",
        "average", lambda p: SpectrumQuery(hemisphere_dirichlet(p["d"])),
        (SideRule("lower", lambda d: Power(
            d / (d + 2) * math.factorial(d) ** (2 / d), 2 / d)),),
        (Param("d", lo=6),), expected_valid=False, matrix=_each("d", (6,))),
        "fail.liyau.d>=6")

    # --- domains of S^d ----------------------------------------------------
    sd_area = lambda p: sphere_volume(p["d"])

    _register(BoundSpec(
        "dom.sd.bly.shift", "shifted Berezin-Li-Yau for domains of S^d",
        "R1", sd_query,
        (SideRule("upper", lambda d, area: Power(
            lclass(1, d) * area, d / 2 + 1, float(_zd(d)))),),
        (Param("d", lo=2), _area(sd_area)), matrix=_each("d", (2, 3, 4))))

    _register(BoundSpec(
        "dom.sd.kroger.imp", "improved Kroger bound for domains of S^d",
        "R1", sd_query, (SideRule("lower", lambda d, area: shifted_lower(
            lclass(1, d) * area, d)),),
        (Param("d", lo=2), _area(sd_area)), matrix=_each("d", (2, 3, 4))))

    # --- S^1 ----------------------------------------------------------------
    s1_query = lambda p: SpectrumQuery(sphere(1))
    s1_upper = Power(Fraction(4, 3), 1.5, Fraction(1, 12))
    s1_weyl = Power(Fraction(4, 3), 1.5)

    _register(BoundSpec(
        "s1.r1.upper.shift", "R1 on the circle <= 4/3 (z+1/12)^(3/2)",
        "R1", s1_query, (SideRule("upper", lambda: s1_upper),),
        equality=lambda p, n: [Fraction(3 * (2 * l + 1) ** 2 - 1, 12)
                               for l in range(n)]))

    def s1_witnesses(p, zmax):
        out = []
        l = 0
        while True:
            base = l + 0.5
            z_plus = (base + math.sqrt(3) / 6) ** 2
            z_minus = (base - math.sqrt(3) / 6) ** 2
            if z_minus > zmax:
                break
            out.extend(t for t in (z_minus, z_plus) if t <= zmax)
            l += 1
        return out

    _register(BoundSpec(
        "fail.s1.weyl", "Weyl term is neither bound for R1 on the circle",
        "R1", s1_query,
        (SideRule("lower", lambda: s1_weyl),
         SideRule("upper", lambda: s1_weyl)),
        expected_valid=False, witnesses=s1_witnesses))

    # --- hemisphere S^d_+ --------------------------------------------------
    hd_query = lambda p: SpectrumQuery(hemisphere_dirichlet(p["d"]))

    _register(BoundSpec(
        "hemi.d.bly345", "Berezin-Li-Yau on S^d_+ for d = 3, 4, 5",
        "R1", hd_query,
        (SideRule("upper", lambda d: Power(float(lclass_volume(
            hemisphere_dirichlet(d), 1)), d / 2 + 1)),),
        (Param("d", lo=3, hi=5),), matrix=_each("d", (3, 4, 5))))

    def polya_hemi(d):
        h, fact = d / 2, math.factorial(d)
        return lambda z: float(z) ** h / fact

    _register(BoundSpec(
        "fail.hemi.polya.d≥3", "Polya fails on S^d_+ for d >= 3",
        "N", hd_query, (SideRule("upper", polya_hemi),),
        (Param("d", lo=3),), expected_valid=False,
        matrix=_each("d", (3, 4, 5))), "fail.hemi.polya.d>=3")

    # --- polyharmonic ------------------------------------------------------
    def sdp_query(p):
        return SpectrumQuery(sphere(p["d"]), power=p["p"])

    def r1p_side(upper):
        def bind(d, p):
            lp = float(_ld(d, p))
            if d == 2:  # lp z^(1+1/p) -+ a z -+ p/8 z^(1-1/p), signs in a, c
                e_hi, e_lo = 1 + 1 / p, 1 - 1 / p
                a, c = (p / 2, p / 8) if upper else (-(p - 1) / 2, -p / 8)
                def side(z):
                    zf = float(z)
                    return lp * zf ** e_hi + a * zf + c * zf ** e_lo
                return side
            zd, k = float(_zd(d)), 2 * (p - 1) / (d + 2) * lp
            e_root, e_main, e_u = 1 / p, 1 + d / (2 * p), d / 2 + p
            def side(z):
                zf = float(z)
                u, main = zf ** e_root + zd, zf ** e_main
                corr = k * (u ** e_u - main)
                return lp * u ** e_u + corr if upper else lp * main - corr
            return side
        return bind

    _register(BoundSpec(
        "sd.r1p.twosided", "two-sided shifted Weyl bounds for (-Delta)^p",
        "R1", sdp_query,
        (SideRule("lower", r1p_side(False)),
         SideRule("upper", r1p_side(True))),
        # The corollary allows p = 1 at d = 2 only; the theorem needs p >= 2.
        (Param("d", lo=2),
         Param("p", lo=lambda prm: 1 if prm["d"] == 2 else 2)),
        matrix=tuple((("d", d), ("p", p)) for d, p in (
            (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)))))

    r1p_weyl = lambda d, p: Power(float(_ld(d, p)), 1 + d / (2 * p))

    def r1p_witnesses(prm, zmax):
        out = []
        l = 1
        while True:
            a = (l * (l + 1)) ** 2
            b = (l + 1) ** 2 * ((l + 1) ** 2 + 1)
            if a > zmax and b > zmax:
                break
            out.extend(t for t in (a, b) if t <= zmax)
            l += 1
        return out

    # The documented counterexample is d = 2, p = 2 and nothing else.
    _register(BoundSpec(
        "fail.r1p.weyl", "Weyl term is neither bound for R1 of Delta^2 on S^2",
        "R1", sdp_query,
        (SideRule("lower", r1p_weyl), SideRule("upper", r1p_weyl)),
        (Param("d", lo=2, hi=2, default=2),
         Param("p", lo=2, hi=2, default=2)),
        expected_valid=False, witnesses=r1p_witnesses))

    _register(BoundSpec(
        "sd.r12.lower", "Weyl lower bound for the biharmonic R1 on S^d, d>=3",
        "R1", lambda p: SpectrumQuery(sphere(p["d"]), power=2),
        (SideRule("lower", lambda d: Power(float(_ld(d, 2)), 1 + d / 4)),),
        (Param("d", lo=3),), matrix=_each("d", (3, 4, 5))))

    _register(BoundSpec(
        "hemi2.poly.bly", "polyharmonic Berezin-Li-Yau on S^2_+",
        "R1", lambda p: SpectrumQuery(hemisphere_dirichlet(2), power=p["p"]),
        (SideRule("upper", lambda p: Power(p / (2 * (p + 1)), 1 + 1 / p)),),
        (Param("p", lo=1),), matrix=_each("p", range(1, 5))))

    def poly23_upper(p, area):  # area z^1.5 / 6 pi, 3 area z^(4/3) / 16 pi
        c, e, den = ((area, 1.5, 6 * math.pi) if p == 2
                     else (3 * area, 4 / 3, 16 * math.pi))
        return lambda z: c * float(z) ** e / den

    _register(BoundSpec(
        "dom.s2p.poly23",
        "biharmonic/triharmonic Berezin-Li-Yau for domains of S^2_+",
        "R1", lambda p: SpectrumQuery(hemisphere_dirichlet(2), power=p["p"]),
        (SideRule("upper", poly23_upper),),
        (Param("p", lo=2, hi=3), area2p), matrix=_each("p", (2, 3))))

    _register(BoundSpec(
        "dom.sd.neubih.lower",
        "Kroger bound for the Neumann biharmonic on domains of S^d, d>=3",
        "R1", lambda p: SpectrumQuery(sphere(p["d"]), power=2),
        (SideRule("lower", lambda d, area: Power(
            lclass(1, d, 2) * area, 1 + d / 4)),),
        (Param("d", lo=3), _area(sd_area)), matrix=_each("d", (3, 4))))

    # --- R2 on rank-one spaces ---------------------------------------------
    _register(BoundSpec(
        "sd.r2.twosided", "two-sided Weyl bounds for R2 on rank-one spaces",
        "R2", lambda p: SpectrumQuery(p["space"]),
        (SideRule("lower", lambda space: Power(
            lclass_volume(space, 2), space.dim / 2 + 2)),
         SideRule("upper", lambda space: Power(
             lclass_volume(space, 2), space.dim / 2 + 2,
             natural_shift(space)))),
        (Param("space", _closed_space, default=sphere(2)),),
        matrix=_each("space", (sphere(2), sphere(3),
                               Space(Family.REAL_PROJECTIVE, 3),
                               Space(Family.COMPLEX_PROJECTIVE, 4)))))


_build_catalog()


# ---------------------------------------------------------------------------
# Evaluation and verification


def _resolve_side(bound_id: str, params: Optional[dict],
                  side: Optional[str]) -> Tuple[BoundSpec, Callable]:
    """(spec, the side bound to the validated parameters); `side` is
    required for two-sided entries."""
    spec = get(bound_id)
    prm = spec.validate(dict(params or {}))
    rules = {s.side: s for s in spec.sides}
    if side is None:
        if len(rules) > 1:
            raise ValueError(f"{spec.id} is two-sided; pass side="
                             f"{sorted(rules)}")
        side = next(iter(rules))
    if side not in rules:
        raise ValueError(f"{spec.id} has no side {side!r}")
    return spec, rules[side].bind(**prm)


def bound_value(bound_id: str, params: Optional[dict] = None, z: Real = None,
                side: Optional[str] = None):
    """Evaluate the bound's closed form; exact rational when it is rational.

    `side` is required for two-sided entries; z is the spectral parameter
    (`require_real`), or the int k >= 1 for average entries
    (`require_int`).  A z too large for a side's float arithmetic (an
    overflow, a root past float range, or an infinite or NaN float value)
    is one ValueError, which names the side.
    """
    spec, bound = _resolve_side(bound_id, params, side)
    if z is None:
        raise ValueError("z (or k) is required")
    if spec.quantity == "average":
        require_int("k", z, 1)
    else:
        require_real("z", z)
    try:
        value = bound(_normalize_arg(z))
    except OverflowError:
        value = math.nan
    if type(value) is float and not math.isfinite(value):
        raise _beyond_float_range(z, side or spec.sides[0].side, spec)
    return value


def _beyond_float_range(z, side: str, spec: BoundSpec) -> ValueError:
    return ValueError(f"z={z!r} is beyond float range for the {side} side "
                      f"of {spec.id}")


class Violation(NamedTuple):
    z: float
    target: float
    bound: float
    slack: float
    side: str


class SideReport(NamedTuple):
    side: str
    n_points: int
    min_slack: float
    argmin_z: float
    n_violations: int
    first_witness: Optional[Violation]
    violations: Tuple[Violation, ...]          # capped
    gap_min_slack: Tuple[Tuple[int, float], ...]
    points: Tuple[Tuple[float, float, float, float], ...]  # (z, target, bound, slack)


class EqualityCheck(NamedTuple):
    z: float
    side: str
    slack: float


class ScanReport(NamedTuple):
    bound_id: str
    params: str
    expected_valid: bool
    level_cap: int
    sides: Tuple[SideReport, ...]
    equality_checks: Tuple[EqualityCheck, ...]

    @property
    def passed(self) -> bool:
        if self.expected_valid:
            return (all(s.n_violations == 0 for s in self.sides)
                    and all(abs(e.slack) <= 1e-9 for e in self.equality_checks))
        return all(s.n_violations >= 1 for s in self.sides)

    def to_dict(self) -> dict:
        """The report as plain dicts and tuples, with `passed`: the JSON
        that `verify` writes."""
        sides = tuple(dict(
            s._asdict(), violations=tuple(v._asdict() for v in s.violations),
            first_witness=None if s.first_witness is None
            else s.first_witness._asdict()) for s in self.sides)
        return dict(self._asdict(), sides=sides, equality_checks=tuple(
            e._asdict() for e in self.equality_checks), passed=self.passed)


def standard_grid(bound_id: str, params: Optional[dict] = None,
                  zmax: Optional[float] = None, points: int = 2000,
                  levels: int = 40) -> list:
    """Default verification grid.

    z entries: uniform points on [0, zmax] (zmax defaults to the query's
    40th level value), all level endpoints, recorded equality points and
    documented witness points.  average entries: k = 1..int(zmax)
    (default min(points, 500)), at most points + 1 of them, evenly spread.
    A given zmax is a float > 0 (`require_real`).
    """
    require_int("points", points, 1)
    require_int("levels", levels, 1)
    if zmax is not None:
        require_real("zmax", zmax, 0, FLOAT_MAX, strict=True)
    spec = get(bound_id)
    prm = spec.validate(dict(params or {}))
    q = spec.query(prm)
    if spec.quantity == "average":  # prefix_sums raises past the cap
        kmax = prefix_sums(q, min(points, 500) if zmax is None
                           else int(zmax)).k
        return sorted({1 + i * (kmax - 1) // points
                       for i in range(points + 1)})
    if zmax is None:
        zmax = float(q.level_value(q.min_level + levels - 1))
    pts = {i * zmax / points for i in range(points + 1)}
    pts.update(map(float, level_values_upto(q, zmax)))  # raises past the cap
    if spec.equality is not None:
        pts.update(float(e) for e in spec.equality(prm, levels + 2)
                   if 0 <= e <= zmax)
    if spec.witnesses is not None:
        pts.update(float(t) for t in spec.witnesses(prm, zmax))
    return sorted(pts)


def _scan_side(side: str, bound: Callable, grid: Sequence, zs: List[float],
               targets: List[float], gaps: Optional[List[int]], tol: float):
    """One side over the grid, column by column: bounds, slacks, then the
    minimum (NaN skipped, the first of equal minima kept), the per-gap
    minima and the violations, each in one pass; no violation pass when
    the minimum is not negative."""
    bnds = list(map(float, map(bound, grid)))
    if side == "upper":
        slacks = [b - t for b, t in zip(bnds, targets)]
    else:
        slacks = [t - b for t, b in zip(targets, bnds)]
    rows = tuple(zip(zs, targets, bnds, slacks))
    # min keeps its first item unless a later one is smaller: math.inf
    # first, so NaN never becomes the minimum and ties keep the first.
    min_slack = min([math.inf] + slacks)
    arg = zs[slacks.index(min_slack)] if min_slack < math.inf else 0.0
    gap_min: Dict[int, float] = {}
    if gaps is not None:
        gap_min = dict.fromkeys(gaps, math.inf)
        for g, s in zip(gaps, slacks):
            if s < gap_min[g]:
                gap_min[g] = s
    # -tol * max(1, |b|) < 0 for 0 < tol < inf, so s < 0 decides most rows,
    # and a minimum that is not negative leaves none (NaN is never it).
    # The violating rows are counted, and only the first 20 kept as records.
    hits = [] if min_slack >= 0 else [
        row for row, s, b in zip(rows, slacks, bnds)
        if s < 0 and s < -tol * max(1.0, abs(b))]
    violations = tuple(Violation(*row, side) for row in hits[:20])
    return SideReport(
        side, len(rows), min_slack, arg, len(hits),
        violations[0] if violations else None, violations,
        tuple(sorted(gap_min.items())), rows)


def verify(bound_id: str, params: Optional[dict] = None,
           grid: Optional[Sequence] = None, *,
           zmax: Optional[float] = None, points: int = 2000,
           levels: int = 40, tol: float = 1e-9) -> ScanReport:
    """Scan a bound over a grid and report slacks, violations, equalities.

    Violations are slacks below -tol * max(1, |bound|); the documented
    counterexamples (expected_valid=False) must produce at least one and
    report the first witness.  Failures are report content, never raises;
    a side past float range on the grid is `bound_value`'s ValueError.
    The parameters, the query, the target column and the per-point gap
    level are resolved once and shared by every side, which is bound
    once for the grid and the equality points.  Targets, gap levels and
    equality-point targets each come from one prefix-table sweep, so
    grids may be unsorted: riesz.evaluate_grid for N, R1 and R2, and for
    averages riesz.eigenvalue_sums, whose integer sum over the first k
    eigenvalues is divided by k in one correctly rounded int division
    (the float of the exact average).  Each side is then scanned in
    columns (_scan_side): its bound values and slacks as two lists, then
    one pass each for the minimum, the per-gap minima and, when the
    minimum is negative, the violations.
    """
    require_real("tol", tol, 0, strict=True)
    require_int("levels", levels, 1)
    spec = get(bound_id)
    prm = spec.validate(dict(params or {}))
    q = spec.query(prm)
    if grid is None:
        grid = standard_grid(bound_id, prm, zmax=zmax, points=points,
                             levels=levels)
    zs = list(map(float, grid))
    if not zs:
        raise ValueError("grid must not be empty")
    if spec.quantity == "average":  # int / int is float(Fraction(sum1, k))
        targets, gaps = map(truediv, eigenvalue_sums(q, grid), grid), None
    else:
        targets, gaps = evaluate_grid(q, spec.quantity, grid)
    targets = list(map(float, targets))
    bound = [(rule.side, rule.bind(**prm)) for rule in spec.sides]
    try:
        sides = tuple(_scan_side(side, fn, grid, zs, targets, gaps, tol)
                      for side, fn in bound)
    except OverflowError:  # bound_value's error, at the first such point
        for (side, fn), z in product(bound, grid):
            try:
                float(fn(z))
            except OverflowError:
                raise _beyond_float_range(z, side, spec) from None
        raise

    eq_checks = []
    if spec.equality is not None and spec.expected_valid:
        # Informational values (e.g. b(l) shifts) are not exact z's.
        eq_pts = [e for e in spec.equality(prm, min(levels, 12))
                  if isinstance(e, (int, Fraction))]
        eq_targets, _ = evaluate_grid(q, spec.quantity, eq_pts)
        for side, fn in bound:
            if spec.equality_side not in (None, side):
                continue
            for e, tgt in zip(eq_pts, eq_targets):
                bnd = fn(_normalize_arg(e))
                slack = (bnd - tgt) if side == "upper" else (tgt - bnd)
                eq_checks.append(EqualityCheck(float(e), side, float(slack)))
    prm_repr = ", ".join(
        f"{k}={prm[k].describe() if isinstance(prm[k], Space) else prm[k]}"
        for k in sorted(prm) if prm[k] is not None)
    return ScanReport(spec.id, prm_repr, spec.expected_valid,
                      DEFAULT_LEVEL_CAP, sides, tuple(eq_checks))


# ---------------------------------------------------------------------------
# Legendre transform: Riesz-mean bounds -> average bounds


def legendre_average_bound(bound_id: str, params: Optional[dict] = None,
                           k: int = 1, side: Optional[str] = None) -> float:
    """max_z (k z - B(z)) / k: converts an R1 bound into an average bound.

    An upper bound B for R1 yields a lower bound for the eigenvalue
    average; a lower bound yields an upper bound.  The transform is the
    closed form of a side c (z + b)^q (`Power.legendre`); a side of any
    other form, and a k whose transform leaves float range, is one
    ValueError.
    """
    spec, bound = _resolve_side(bound_id, params, side)
    if spec.quantity != "R1":
        raise ValueError(f"{spec.id} does not bound R1")
    if not isinstance(bound, Power):
        raise ValueError(f"no closed-form Legendre transform for {spec.id}: "
                         f"the side is not c (z + b)^q")
    require_real("k", k, 1)
    try:
        value = bound.legendre(k)
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"k={k!r} is too large for the Legendre transform "
                         f"of {spec.id}")
    return value
