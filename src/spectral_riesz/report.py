"""The acceptance suite: every criterion as a runnable check.

Each criterion returns a CriterionResult with a pass flag and a compact
detail string; run_acceptance() bundles them into a report that the CLI
renders as markdown or JSON and the test suite asserts one by one.
Criterion 2 verifies the expected_valid pairs of bounds.entry_matrix(),
the parameter sets each catalog entry declares.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Callable, List, NamedTuple

from . import bounds, scan, sumrules
from .riesz import (SpectrumQuery, closed_form, counting, eigenvalue_average,
                    evaluate_grid, lemma_sum, poly_transform_check,
                    riesz_mean)
from .spaces import (Family, Space, hemisphere_dirichlet,
                     hemisphere_neumann, invert_w, sphere)
from .weyl import BoundExpansion

_SEED = 20250809


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self, tag: str) -> str:
        """The report line, with PASS or FAIL put into `tag`'s braces."""
        return (tag.format("PASS" if self.passed else "FAIL")
                + f" criterion {self.number}: {self.name} "
                f"({self.seconds:.2f}s) {self.detail}")


class AcceptanceReport(NamedTuple):
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> List[str]:
        return [r.line("[{}]") for r in self.results]

    def to_markdown(self) -> str:
        head = ["# Acceptance report", ""]
        body = [r.line("- **{}**") for r in self.results]
        tail = ["", f"Overall: {'PASS' if self.passed else 'FAIL'}"]
        return "\n".join(head + body + tail) + "\n"

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "criteria": [
                {"number": r.number, "name": r.name, "passed": r.passed,
                 "detail": r.detail, "seconds": round(r.seconds, 3)}
                for r in self.results
            ],
        }


def _run(number: int, name: str, fn: Callable[[], str],
         budget: float = None) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except AssertionError as exc:
        detail = f"FAILED: {exc}"
        passed = False
    dt = time.perf_counter() - t0
    if passed and budget is not None and dt > budget:
        passed = False
        detail += f" [over budget: {dt:.1f}s > {budget:.0f}s]"
    return CriterionResult(number, name, passed, detail, dt)


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalence of the closed forms


def _random_rational_z(rng: random.Random, zmax: int) -> Fraction:
    den = rng.choice((1, 2, 3, 4, 6, 8, 16, 32, 64))
    return Fraction(rng.randrange(0, zmax * den + 1), den)


def criterion_1() -> str:
    rng = random.Random(_SEED)
    worst_rel = 0.0
    n_checks = 0
    for d in range(1, 9):
        zmax = 50 * (50 + d - 1)
        qs = SpectrumQuery(sphere(d))
        for _ in range(500):
            z = _random_rational_z(rng, zmax)
            exact = riesz_mean(qs, 1, z)
            closed = closed_form(qs.space, "R1", z)
            assert closed == exact, f"sphere closed form mismatch d={d} z={z}"
            approx = closed_form(qs.space, "R1", float(z))
            if exact:
                worst_rel = max(worst_rel, abs(approx / float(exact) - 1.0))
            n_checks += 1
        if d < 2:
            continue
        qd = SpectrumQuery(hemisphere_dirichlet(d))
        qn = SpectrumQuery(hemisphere_neumann(d))
        for _ in range(500):
            z = _random_rational_z(rng, zmax)
            assert counting(qd, z) == closed_form(qd.space, "N", z)
            assert counting(qn, z) == closed_form(qn.space, "N", z)
            n_checks += 2
    assert worst_rel <= 1e-12, f"float path off by {worst_rel:.2e}"
    return f"{n_checks} closed-form checks exact; float path <= {worst_rel:.1e}"


# ---------------------------------------------------------------------------
# Criterion 2: every expected_valid catalog entry verifies


def criterion_2() -> str:
    worst_eq = 0.0
    n_entries = 0
    for bound_id, params in bounds.entry_matrix():
        if not bounds.get(bound_id).expected_valid:
            continue
        rep = bounds.verify(bound_id, params, points=2000, levels=40)
        assert rep.passed, (f"{bound_id} {params}: "
                            + "; ".join(f"{s.side} min slack {s.min_slack:.3e}"
                                        f" at z={s.argmin_z:.6g}"
                                        for s in rep.sides))
        for e in rep.equality_checks:
            worst_eq = max(worst_eq, abs(e.slack))
        n_entries += 1
    assert worst_eq <= 1e-9, f"equality slack {worst_eq:.2e}"
    return (f"{n_entries} entry/parameter combinations clean; "
            f"max |equality slack| = {worst_eq:.1e}")


# ---------------------------------------------------------------------------
# Criterion 3: documented failures reproduced


def criterion_3() -> str:
    notes = []
    for d in (3, 4, 5):
        rep = bounds.verify("fail.hemi.polya.d≥3", {"d": d}, levels=30)
        w = rep.sides[0].first_witness
        assert rep.passed and w is not None, f"no Polya witness at d={d}"
        assert w.z == float(d) and w.target == 1.0, \
            f"expected witness z={d}, N^D=1; got z={w.z}, N={w.target}"
        assert w.target > w.bound, "witness does not violate"
    notes.append("polya witnesses at z=d for d=3,4,5")

    rep = bounds.verify("fail.liyau.d≥6", {"d": 6}, zmax=200)
    w = rep.sides[0].first_witness
    assert rep.passed and w is not None and w.z == 1.0, "no Li-Yau witness at k=1"
    lhs, rhs = 8 ** 6, math.factorial(6) ** 2
    assert lhs < rhs, "integer comparison must fail for d=6"
    notes.append(f"li-yau k=1: {lhs} < {rhs}")

    rep = bounds.verify("fail.r1p.weyl", {}, levels=30)
    assert rep.passed, "missing two-sided violations for p=2, d=2"
    sides = {s.side: s for s in rep.sides}
    low_w = {v.z for v in sides["lower"].violations}
    up_w = {v.z for v in sides["upper"].violations}
    assert any(float((l * (l + 1)) ** 2) in low_w for l in range(1, 6)), \
        "no violation on the level-power family"
    assert any(float((l + 1) ** 2 * ((l + 1) ** 2 + 1)) in up_w
               for l in range(1, 6)), "no violation on the second family"
    notes.append("r1p weyl violated on both sides at the documented z")

    rep = bounds.verify("fail.s1.weyl", {}, levels=30)
    assert rep.passed, "missing two-sided violations on the circle"
    notes.append("circle weyl violated on both sides")
    return "; ".join(notes)


# ---------------------------------------------------------------------------
# Criterion 4: shifted-bound sharpness


def criterion_4() -> str:
    msgs = []
    for d in range(2, 7):
        _, upper = bounds._resolve_side("sd.r1.upper.shift", {"d": d}, None)
        zd = upper.bf  # the shift z_d = d(2d-1)/12
        ex10, ex50 = scan.gap_extrema(sphere(d), [10, 50],
                                      (upper.cf, upper.q, zd))
        defect10 = 1.0 - ex10.ratio_star
        defect50 = 1.0 - ex50.ratio_star
        assert defect50 < 1e-3, f"d={d}: defect {defect50:.2e} at l=50"
        assert defect50 > -1e-12, f"d={d}: ratio exceeds 1 ({defect50:.2e})"
        if d >= 3:
            assert defect50 <= defect10, f"d={d}: defect not shrinking"
        assert ex50.is_unique and ex10.is_unique, f"d={d}: non-unique maximum"
        b50 = bounds.optimal_shift(d, 50)
        assert abs(b50 - zd) < 0.05, f"d={d}: |b(50)-z_d| = {abs(b50 - zd):.3f}"
        msgs.append(f"d={d}: defect(50)={max(defect50, 0):.1e}, "
                    f"|b(50)-z_d|={abs(b50 - zd):.1e}")
    return "; ".join(msgs)


# ---------------------------------------------------------------------------
# Criterion 5: expansion remainder certification


def _certification_grid(d: int):
    # Fixed fluctuation phases at geometrically spaced levels, z in [1e2, 1e6].
    ws = []
    lo_l = max(2, int(invert_w(d, 100.0)))
    hi_l = int(invert_w(d, 1e6))
    l = lo_l
    while l <= hi_l:
        for phase in (0.0, 0.25, 0.5, 0.75):
            ws.append(l + phase)
        l = max(l + 1, int(l * 1.12))
    return [w * (w + d - 1) for w in ws]


def _scaled_residuals(space: Space, quantity: str, terms: int):
    """Max over the certification grid of |raw / Weyl - bracket| z^r, for
    z <= 1e3 and everywhere, where z^-r is the theorem's remainder."""
    q = SpectrumQuery(space)
    ex = BoundExpansion(space, quantity, terms)
    power = -ex.remainder
    first, everywhere = 0.0, 0.0
    zs = [z for z in _certification_grid(space.dim) if 100.0 <= z <= 1e6]
    for z, raw in zip(zs, evaluate_grid(q, quantity, zs)[0]):
        bracket = ex.at(z).ratio
        resid = abs(raw / (ex.lead * z ** ex.exponent) - bracket) * z ** power
        everywhere = max(everywhere, resid)
        if z <= 1e3:
            first = max(first, resid)
    return first, everywhere


def criterion_5() -> str:
    cases = [
        (hemisphere_dirichlet(3), "N", 3, "ND"),
        (hemisphere_neumann(3), "N", 3, "NN"),
        (hemisphere_dirichlet(3), "R1", 3, "R1-hemi-D"),
        (hemisphere_neumann(3), "R1", 3, "R1-hemi-N"),
        (sphere(3), "N", 3, "N-sphere"),
        (sphere(3), "R1", 2, "R1-sphere"),
    ]
    msgs = []
    for space, quantity, terms, label in cases:
        first, everywhere = _scaled_residuals(space, quantity, terms)
        assert first > 0, f"{label}: degenerate first-decade residual"
        assert everywhere <= 2.0 * first, \
            (f"{label}: scaled residual grows {everywhere:.3g} "
             f"> 2 x first decade {first:.3g}")
        msgs.append(f"{label}: sup {everywhere:.3g} <= 2 x {first:.3g}")
    return "; ".join(msgs)


# ---------------------------------------------------------------------------
# Criterion 6: P/Q sum-rule identity


def criterion_6() -> str:
    spaces = [sphere(1), sphere(2), sphere(3),
              Space(Family.REAL_PROJECTIVE, 3),
              Space(Family.COMPLEX_PROJECTIVE, 4),
              Space(Family.QUATERNION_PROJECTIVE, 8),
              Space(Family.CAYLEY_PLANE, 16)]
    checked = 0
    for space in spaces:
        rep = sumrules.check_pq_identity(space, 50)
        assert rep.passed, f"P=Q mismatch on {space.describe()}"
        checked += len(rep.gap_indices)
    return f"{checked} gap indices across {len(spaces)} spaces, exact equality"


# ---------------------------------------------------------------------------
# Criterion 7: trace identity


def criterion_7() -> str:
    rep = sumrules.trace_identity_partial(sphere(2), 1000)
    err = abs(rep.partial_sum - 1.0)
    assert err < 1e-5, f"S^2 series off by {err:.2e} at l=1000"
    msgs = [f"S^2 l=1000 err {err:.1e}"]
    for d in (1, 2, 3):
        for l_max in (100, 400, 1000):
            r = sumrules.trace_identity_partial(sphere(d), l_max)
            assert r.within_tail, \
                (f"d={d}, l_max={l_max}: error "
                 f"{abs(r.partial_sum - r.target):.2e} exceeds tail "
                 f"{r.tail_estimate:.2e}")
        msgs.append(f"d={d} within tail")
    return "; ".join(msgs)


# ---------------------------------------------------------------------------
# Criterion 8: transform identities


def criterion_8() -> str:
    rng = random.Random(_SEED + 8)
    n = 0
    for d in (2, 3):
        zmax = 25 * (25 + d - 1)
        for p in (2, 3, 4):
            for _ in range(100):
                z = _random_rational_z(rng, zmax)
                resid = poly_transform_check(d, p, z)
                assert resid == 0, \
                    f"residual {float(resid):.2e} at d={d}, p={p}, z={z}"
                n += 1
    assert lemma_sum(4, 81) == 195, "l>=1 sum at z=81, p=4 must be 195"
    assert riesz_mean(SpectrumQuery(sphere(2), power=4), 1, 81) == 276
    return f"{n} random transform identities exact; lemma_sum(4, 81) = 195"


# ---------------------------------------------------------------------------
# Criterion 9: hemisphere Berezin-Li-Yau in d = 3, 4, 5 and failure at 6


def criterion_9() -> str:
    for d in (3, 4, 5):
        rep = bounds.verify("hemi.d.bly345", {"d": d}, points=2000, levels=40)
        assert rep.passed, f"violations at d={d}"
    diag = bounds.bly345_gap_diagnostics(6, 1)
    assert diag.ratio_at_crit > 1.0, "d=6 first gap should violate"
    assert abs(diag.ratio_at_crit - 1.40625) < 1e-12, \
        f"f_1(x_1) = {diag.ratio_at_crit}"
    q6 = SpectrumQuery(hemisphere_dirichlet(6))
    target = float(riesz_mean(q6, 1, diag.z_crit))
    weyl = BoundExpansion(q6.space, "R1", 1)(diag.z_crit)
    assert target > weyl, "direct d=6 violation missing"
    return (f"d=3,4,5 clean to lambda_(40); d=6 gap 1: f_1(x_1) = "
            f"{diag.ratio_at_crit} > 1 (R1 = {target:.4g} > {weyl:.4g})")


# ---------------------------------------------------------------------------
# Criterion 10: averages and the Legendre route


def criterion_10() -> str:
    for d in range(2, 6):
        rep = bounds.verify("sd.avg.twosided", {"d": d},
                            grid=list(range(1, 501)))
        assert rep.passed, f"average bounds fail at d={d}"
    # equality at k=1, d=2 with value 0
    avg = eigenvalue_average(SpectrumQuery(sphere(2)), 1)
    low = bounds.bound_value("sd.avg.twosided", {"d": 2}, 1, side="lower")
    assert avg == 0 and low == 0, "k=1, d=2 equality at value 0"
    worst = 0.0
    for d in range(2, 6):
        for k in (1, 2, 10, 100, 500):
            via_legendre = bounds.legendre_average_bound(
                "sd.r1.upper.shift", {"d": d}, k)
            closed = bounds.bound_value("sd.avg.twosided", {"d": d}, k,
                                        side="lower")
            worst = max(worst, abs(via_legendre - closed)
                        / max(1.0, abs(closed)))
    assert worst <= 1e-10, f"Legendre route off by {worst:.2e}"
    return (f"k = 1..500 clean for d = 2..5; equality at (d=2, k=1); "
            f"Legendre matches closed form to {worst:.1e}")


# ---------------------------------------------------------------------------


#: The acceptance criteria: (number, name, check, time budget in seconds).
CRITERIA = (
    (1, "oracle equivalence of closed forms", criterion_1, 10.0),
    (2, "bound catalog verification", criterion_2, None),
    (3, "documented failures reproduced", criterion_3, None),
    (4, "shifted-bound sharpness", criterion_4, None),
    (5, "expansion remainder certification", criterion_5, None),
    (6, "P/Q sum-rule exact identity", criterion_6, 30.0),
    (7, "trace identity partial sums", criterion_7, None),
    (8, "polyharmonic transform identities", criterion_8, None),
    (9, "hemisphere Berezin-Li-Yau d=3,4,5 (+ d=6 failure)",
     criterion_9, None),
    (10, "average bounds and Legendre duality", criterion_10, None),
)


def run_acceptance() -> AcceptanceReport:
    return AcceptanceReport(tuple(_run(num, name, fn, budget)
                                  for num, name, fn, budget in CRITERIA))
