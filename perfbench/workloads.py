"""The three seeded workloads: inputs, calls, work counted, checks, digests.

A workload turns a seed into a fixed list of calls (one pass).  The timed
loop repeats that pass; every repetition makes the same calls, so counts
repeat exactly.  Inputs vary with the seed only inside narrow bands, so the
cost of a pass barely depends on the seed.

The engine is reached only through its public functions, looked up on the
module at call time so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from fractions import Fraction

from spectral_riesz import bounds, output, riesz, scan, spaces, sumrules, weyl

#: Relative agreement declared between the float and the rational path.
FLOAT_REL = 1e-12


class Op:
    """One public call of a pass.

    An edge op feeds a bad input; the only accepted outcome is ValueError.
    """

    __slots__ = ("label", "call", "edge", "oracle")

    def __init__(self, label, call, edge=False, oracle=None):
        self.label = label
        self.call = call
        self.edge = edge
        self.oracle = oracle


def _hex(x) -> str:
    return float(x).hex()


def _exact_text(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _brute(query, gamma, z):
    """N (gamma 0), R1 or R2 at z by a plain level sum.

    Uses only eigenvalue and multiplicity, never the engine's prefix tables
    or level inversion.
    """
    space, power = query.space, query.power
    total = Fraction(0)
    l = query.min_level
    while True:
        lam = spaces.eigenvalue(space, l) ** power
        if lam > z:
            return total
        m = spaces.multiplicity(space, l)
        total += m if gamma == 0 else m * (z - lam) ** gamma
        l += 1


def _brute_average(query, k):
    """(1/k) sum of the first k eigenvalues by a plain level walk."""
    space, power = query.space, query.power
    count = s1 = 0
    l = query.min_level
    while count < k:
        lam = spaces.eigenvalue(space, l) ** power
        take = min(spaces.multiplicity(space, l), k - count)
        count += take
        s1 += take * lam
        l += 1
    return Fraction(s1, k)


def _exact_quantity(query, quantity, z):
    if quantity == "N":
        return riesz.counting(query, z)
    if quantity == "average":
        return riesz.eigenvalue_average(query, z)
    return riesz.riesz_mean(query, 1 if quantity == "R1" else 2, z)


def _brute_quantity(query, quantity, z):
    if quantity == "average":
        return _brute_average(query, z)
    return _brute(query, {"N": 0, "R1": 1, "R2": 2}[quantity], z)


class Workload:
    """Shared bookkeeping: mismatch list, digest, sampled oracle checks."""

    name = ""

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.smoke = smoke
        self.out_dir = out_dir
        self.mismatches = []      # wrong outputs
        self.errors = []          # calls that raised on good input
        self.edge_outcomes = {}   # edge-op label -> outcome of its first call
        self._digest = hashlib.sha256()
        self._oracle = []         # (label, check thunk) run after timing

    def mismatch(self, text: str):
        self.mismatches.append(text)

    def digest(self) -> str:
        return self._digest.hexdigest()

    def _feed(self, *parts):
        self._digest.update("|".join(parts).encode())
        self._digest.update(b"\n")

    def observe(self, op, result, first: bool):
        """Check one result; on the first pass also digest it."""

    def points(self, op, result) -> int:
        return 1

    def warm_up(self):
        """Fill caches and lazy state, so every timed pass does equal work."""

    def run_oracle_checks(self):
        for label, check in self._oracle:
            problem = check()
            if problem:
                self.mismatch(f"{label}: {problem}")

    def _float_vs_exact(self, query, quantity, zf, label, brute=True):
        """Queue a check: the float path at zf within FLOAT_REL of the exact
        path at the same value and, with brute, the exact path equal to the
        brute-force level sum."""
        def check():
            zq = Fraction(zf)
            exact = _exact_quantity(query, quantity, zq)
            if brute and exact != _brute_quantity(query, quantity, zq):
                return f"exact {exact} != brute force"
            approx = float(_exact_quantity(query, quantity, zf))
            if abs(approx - float(exact)) > FLOAT_REL * abs(float(exact)):
                return f"float {approx!r} vs exact {float(exact)!r}"
            return None
        self._oracle.append((label, check))


# ---------------------------------------------------------------------------
# catalog-sweep


VALID_ENTRIES = [
    ("s2.r1.lower", {}), ("s2.r1.upper", {}),
    ("s2.r1.lower.imp", {}), ("s2.r1.upper.imp", {}),
    ("hemi2.nd.polya", {}), ("hemi2.nd.twosided", {}),
    ("hemi2.r1d.lower", {}), ("hemi2.r1d.upper", {}),
    ("hemi2.r1n.lower", {}), ("hemi2.r1n.upper", {}),
    ("lem.blys1", {}), ("lem.blys2", {}),
    ("dom.s2p.bly", {}), ("dom.s2p.bly.imp", {}),
    ("dom.s2.buckling", {}), ("s1.r1.upper.shift", {}),
    *[("hemi2.poly.bly", {"p": p}) for p in (1, 2, 3, 4)],
    *[("dom.s2p.poly23", {"p": p}) for p in (2, 3)],
    *[(bid, {"d": d}) for d in range(2, 7)
      for bid in ("sd.r1.lower", "sd.r1.lower.shift", "sd.r1.upper.shift")],
    *[("sd.avg.twosided", {"d": d}) for d in range(2, 6)],
    *[(bid, {"d": d}) for d in (2, 3, 4)
      for bid in ("dom.sd.bly.shift", "dom.sd.kroger.imp")],
    *[(bid, {"d": d}) for d in (3, 4, 5)
      for bid in ("hemi.d.bly345", "sd.r12.lower")],
    *[("sd.r1p.twosided", {"d": 2, "p": p}) for p in (1, 2, 3, 4)],
    *[("sd.r1p.twosided", {"d": 3, "p": p}) for p in (2, 3)],
    ("sd.r1p.twosided", {"d": 4, "p": 2}),
    *[("dom.sd.neubih.lower", {"d": d}) for d in (3, 4)],
    *[("sd.r2.twosided", {"space": s})
      for s in ("sphere:2", "sphere:3", "rp:3", "cp:4")],
]

FAIL_ENTRIES = [
    *[("fail.hemi.polya.d≥3", {"d": d}) for d in (3, 4, 5)],
    ("fail.liyau.d≥6", {"d": 6}),
    ("fail.r1p.weyl", {}),
    ("fail.s1.weyl", {}),
    ("fail.sd.r1.lower.bdshift", {"d": 3}),
]


def _sweep(bound_id, params, extras, points, levels):
    grid = set(bounds.standard_grid(bound_id, params, points=points,
                                    levels=levels))
    grid.update(extras)
    return bounds.verify(bound_id, params, sorted(grid), levels=levels)


class CatalogSweep(Workload):
    """bounds.verify over every entry/parameter pair of the catalog matrix."""

    name = "catalog-sweep"

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        # A grid of 400 points keeps a pass near 2 s, so that every verify
        # call repeats often enough in a run for its steady latency.
        points, levels, n_extra = (60, 8, 5) if smoke else (400, 40, 20)
        pairs = [(b, p, True) for b, p in VALID_ENTRIES] + \
                [(b, p, False) for b, p in FAIL_ENTRIES]
        if smoke:
            pairs = pairs[:2] + pairs[-1:]
        self._ops = []
        self._expect = {}
        self._pairs = []
        for bound_id, raw, valid in pairs:
            params = {k: spaces.parse_space(v) if k == "space" else v
                      for k, v in raw.items()}
            self._pairs.append((bound_id, params))
            spec = bounds.get(bound_id)
            grid = bounds.standard_grid(bound_id, params, points=points,
                                        levels=levels)
            top = max(grid)
            if spec.quantity == "average":
                extras = self.rng.sample(range(top + 1, 2 * top + 1), n_extra)
            else:
                extras = [self.rng.uniform(0.0, top) for _ in range(n_extra)]
            label = f"{bound_id} {sorted(raw.items())}"
            call = (lambda b=bound_id, p=params, e=extras:
                    _sweep(b, p, e, points, levels))
            self._ops.append(Op(label, call))
            self._expect[label] = (valid, spec.query(spec.validate(
                dict(params))), spec.quantity)
        self._levels = levels

    def ops(self):
        return self._ops

    def warm_up(self):
        for bound_id, params in self._pairs:
            grid = bounds.standard_grid(bound_id, params, points=4,
                                        levels=self._levels)
            bounds.verify(bound_id, params, grid, levels=self._levels)

    def points(self, op, report):
        return sum(side.n_points for side in report.sides)

    def observe(self, op, report, first):
        valid, query, quantity = self._expect[op.label]
        if report.expected_valid != valid:
            self.mismatch(f"{op.label}: expected_valid is "
                          f"{report.expected_valid}, the copy says {valid}")
        if not report.passed:
            self.mismatch(f"{op.label}: verdict does not match expected_valid")
        if not valid and any(s.first_witness is None for s in report.sides):
            self.mismatch(f"{op.label}: fail entry without a witness")
        if not first:
            return
        self._feed(op.label, str(report.passed), report.params)
        for side in report.sides:
            self._feed(side.side, str(side.n_points), str(side.n_violations),
                       ",".join(_hex(v) for row in side.points for v in row))
            for z, target, _, _ in self.rng.sample(side.points, 3):
                self._queue_row_check(op.label, query, quantity, z, target)
        for e in report.equality_checks:
            self._feed("eq", _hex(e.z), e.side, _hex(e.slack))

    def _queue_row_check(self, label, query, quantity, z, target):
        arg = int(z) if quantity == "average" else Fraction(z)

        def check():
            exact = _exact_quantity(query, quantity, arg)
            brute = _brute_quantity(query, quantity, arg)
            if exact != brute:
                return f"exact {exact} != brute force {brute} at {z!r}"
            if abs(target - float(exact)) > FLOAT_REL * abs(float(exact)):
                return f"row target {target!r} vs exact {float(exact)!r}"
            return None
        self._oracle.append((f"{label} z={z!r}", check))


# ---------------------------------------------------------------------------
# exact-deep


DEEP_SPACES = ("sphere:1", "sphere:2", "sphere:8", "hemisphere-d:5",
               "hemisphere-n:4", "rp:3", "cp:6", "hp:12", "cayley:16")
PQ_SPACES = ("sphere:2", "cp:6", "cayley:16")
POLY_CASES = ((2, 2), (3, 2), (4, 3), (8, 2), (5, 2), (2, 3))
EDGE_KINDS = ("nan", "+inf", "-inf", "negative")


class ExactDeep(Workload):
    """Exact rational queries at deep levels, averages, transforms, P=Q."""

    name = "exact-deep"

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        rng = self.rng
        if smoke:
            spaces_used, per_query, top_level = DEEP_SPACES[:2], 2, 150
            avg_band, poly_band, pq_band, edge_reps = (100, 140), (20, 30), \
                (10, 12), 1
            poly_cases, pq_spaces = POLY_CASES[:1], PQ_SPACES[:1]
        else:
            spaces_used, per_query, top_level = DEEP_SPACES, 280, 9900
            avg_band, poly_band, pq_band, edge_reps = (9000, 9800), \
                (300, 400), (295, 305), 20
            poly_cases, pq_spaces = POLY_CASES, PQ_SPACES
        self.queries = [riesz.SpectrumQuery(spaces.parse_space(s), power=p)
                        for s in spaces_used for p in (1, 2)]
        # Cold prefix tables, built once to the deepest level any call
        # reaches; the deep k below are read off them.
        for q in self.queries:
            riesz.counting(q, q.level_value(top_level + 1))
        ops = []
        for q in self.queries:
            tag = f"{q.space.describe()}^{q.power}"
            for _ in range(per_query):
                l = rng.randrange(q.min_level, top_level)
                lo, hi = q.level_value(l), q.level_value(l + 1)
                z = lo + Fraction(rng.randrange(0, 997), 997) * (hi - lo)
                ops.append(Op(f"N {tag} {z}",
                              lambda q=q, z=z: riesz.counting(q, z),
                              oracle=(q, "N", z)))
                ops.append(Op(f"R1 {tag} {z}",
                              lambda q=q, z=z: riesz.riesz_mean(q, 1, z),
                              oracle=(q, "R1", z)))
                ops.append(Op(f"R2 {tag} {z}",
                              lambda q=q, z=z: riesz.riesz_mean(q, 2, z),
                              oracle=(q, "R2", z)))
            l = rng.randrange(*avg_band)
            k = riesz.counting(q, q.level_value(l)) - rng.randrange(0, 3)
            ops.append(Op(f"avg {tag} {k}",
                          lambda q=q, k=k: riesz.eigenvalue_average(q, k),
                          oracle=(q, "average", k)))
        for d, p in poly_cases:
            l = rng.randrange(*poly_band)
            z = Fraction(l * (l + d - 1)) + Fraction(rng.randrange(1, 97), 97)
            ops.append(Op(f"poly d={d} p={p} {z}",
                          lambda d=d, p=p, z=z:
                          riesz.poly_transform_check(d, p, z)))
        for desc in pq_spaces:
            L = rng.randrange(*pq_band)
            space = spaces.parse_space(desc)
            ops.append(Op(f"pq {desc} {L}", lambda s=space, L=L:
                          sumrules.check_pq_identity(s, L)))
        for _ in range(edge_reps):
            for fn in ("counting", "riesz_mean"):
                for kind in EDGE_KINDS:
                    q = rng.choice(self.queries)
                    z = {"nan": math.nan, "+inf": math.inf,
                         "-inf": -math.inf,
                         "negative": -Fraction(rng.randrange(1, 10 ** 6),
                                               rng.randrange(1, 97))}[kind]
                    if fn == "counting":
                        call = (lambda q=q, z=z: riesz.counting(q, z))
                    else:
                        call = (lambda q=q, z=z, g=rng.choice((1, 2)):
                                riesz.riesz_mean(q, g, z))
                    ops.append(Op(f"edge {fn} {kind}", call, edge=True))
        rng.shuffle(ops)
        # Brute-force oracle checks on every average and a seeded sample of
        # the single-value queries.
        value_ops = [op for op in ops
                     if op.oracle is not None and op.oracle[1] != "average"]
        for op in set(value_ops) - set(rng.sample(value_ops,
                                                  4 if smoke else 12)):
            op.oracle = None
        self._ops = ops

    def ops(self):
        return self._ops

    def warm_up(self):
        for op in self._ops:
            if op.label.startswith("poly"):
                op.call()

    def points(self, op, result):
        if op.label.startswith("pq"):
            return len(result.gap_indices)
        return 1

    def observe(self, op, result, first):
        kind = op.label.split(" ", 1)[0]
        if kind == "pq" and not result.passed:
            self.mismatch(f"{op.label}: P=Q mismatches {result.mismatches}")
        elif kind == "poly" and result != 0:
            self.mismatch(f"{op.label}: residual {result}")
        if first:
            if kind == "pq":
                self._feed(op.label, ",".join(map(str, result.gap_indices)),
                           ",".join(map(str, result.mismatches)))
            else:
                self._feed(op.label, _exact_text(result))
            if op.oracle is not None:
                self._queue_oracle(op, result)

    def _queue_oracle(self, op, result):
        q, quantity, z = op.oracle

        def check():
            brute = _brute_quantity(q, quantity, z)
            if result != brute:
                return f"{result} != brute force {brute}"
            return None
        self._oracle.append((op.label, check))
        if quantity != "average":
            self._float_vs_exact(q, quantity, float(z), op.label + " float",
                                 brute=False)


# ---------------------------------------------------------------------------
# series


FIGURES = ("f1", "f2", "f34", "f4", "f5", "f6", "f7", "f8", "f9", "f10")
# Space whose float R1 path each figure samples, for the oracle checks.
FIGURE_R1_SPACE = {"f1": "sphere:2", "f4": "sphere:3", "f5": "sphere:3",
                   "f34": "hemisphere-d:2", "f7": "hemisphere-d:3",
                   "f8": "hemisphere-n:3"}
TRACE_SPACES = ("sphere:2", "sphere:3", "rp:3", "cp:4")


def _figure(fig_id, resolution, l_max, out_dir):
    series = scan.figure(fig_id, resolution=resolution, l_max=l_max)
    base = os.path.join(out_dir, fig_id)
    output.write_series_csv(base + ".csv", series)
    output.write_series_svg(base + ".svg", series)
    return series


class Series(Workload):
    """Figure series with their CSV/SVG writes, gap scans, trace identity."""

    name = "series"

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        rng = self.rng
        os.makedirs(out_dir, exist_ok=True)
        if smoke:
            figures, res_band, lmax_band = FIGURES[:2], (3, 4), (8, 9)
            gap_dims, per_dim, gap_band, trace_band = (2, 3), 1, (5, 8), \
                (100, 110)
        else:
            figures, res_band, lmax_band = FIGURES, (39, 42), (59, 62)
            gap_dims, per_dim, gap_band, trace_band = range(2, 7), 4, \
                (30, 41), (8900, 9101)
        ops = []
        self._figs = {}
        for fig in figures:
            res, l_max = rng.randrange(*res_band), rng.randrange(*lmax_band)
            self._figs[fig] = (res, l_max)
            ops.append(Op(f"figure {fig} {res} {l_max}",
                          lambda f=fig, r=res, m=l_max:
                          _figure(f, r, m, out_dir)))
        # One call per sphere over a few levels: a single-level scan is so
        # short that host preemption spikes would set the median call.
        for d in gap_dims:
            levels = sorted(rng.sample(range(*gap_band), per_dim))
            ref = (float(weyl.lclass_volume(spaces.sphere(d), 1)), d / 2 + 1,
                   d * (2 * d - 1) / 12.0)
            ops.append(Op(f"gap d={d} l={','.join(map(str, levels))}",
                          lambda d=d, levels=levels, ref=ref:
                          scan.gap_extrema(spaces.sphere(d), levels, ref)))
        trace_space = spaces.parse_space(rng.choice(TRACE_SPACES))
        l_trace = rng.randrange(*trace_band)
        ops.append(Op(f"trace {trace_space.describe()} {l_trace}",
                      lambda: sumrules.trace_identity_partial(trace_space,
                                                              l_trace)))
        self._trace = (trace_space, l_trace)
        self._ops = ops

    def ops(self):
        return self._ops

    def warm_up(self):
        for fig, (_, l_max) in self._figs.items():
            scan.figure(fig, resolution=1, l_max=l_max)
        space, l_trace = self._trace
        q = riesz.SpectrumQuery(space)
        riesz.counting(q, q.level_value(l_trace + 1))
        for op in self._ops:
            if op.label.startswith("gap"):
                op.call()

    def points(self, op, result):
        if op.label.startswith("figure"):
            return sum(len(s.points) for s in result)
        if op.label.startswith("gap"):
            return len(result)
        return 1

    def observe(self, op, result, first):
        kind = op.label.split(" ", 1)[0]
        if kind == "trace" and not result.within_tail:
            self.mismatch(f"{op.label}: partial sum outside its tail bound")
        elif kind == "gap":
            for ex in result:
                if not ex.is_unique or ex.ratio_star > 1.0 + 1e-12:
                    self.mismatch(f"{op.label}: extremum {ex}")
        if not first:
            return
        if kind == "figure":
            fig = op.label.split(" ")[1]
            self._observe_figure(op.label, fig, result)
        elif kind == "gap":
            for ex in result:
                self._feed(op.label, str(ex.level), _hex(ex.z_star),
                           _hex(ex.ratio_star), str(ex.is_unique))
        else:
            self._feed(op.label, _hex(result.partial_sum), _hex(result.target))

    def _observe_figure(self, label, fig, series):
        for s in series:
            self._feed(label, s.label,
                       ",".join(_hex(v) for pt in s.points for v in pt))
        base = os.path.join(self.out_dir, fig)
        for ext in (".csv", ".svg"):
            with open(base + ext, "rb") as fh:
                data = fh.read()
            self._digest.update(data)
            if ext == ".csv":
                rows = data.count(b"\n") - 1
                want = sum(len(s.points) for s in series)
                if rows != want:
                    self.mismatch(f"{label}: {rows} CSV rows, {want} points")
        desc = FIGURE_R1_SPACE.get(fig)
        if desc is not None:
            q = riesz.SpectrumQuery(spaces.parse_space(desc))
            zs = [z for s in series for z, _ in s.points]
            for z in self.rng.sample(zs, 4):
                self._float_vs_exact(q, "R1", z, f"{label} R1 z={z!r}")


WORKLOADS = {w.name: w for w in (CatalogSweep, ExactDeep, Series)}
