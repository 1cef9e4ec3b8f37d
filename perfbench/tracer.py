"""Timing wrappers around the engine's layer functions, for the traced run.

Each wrapper is installed in every ``spectral_riesz`` module namespace that
binds the wrapped function (``bounds.riesz_mean``, ``scan.riesz_mean``,
``sumrules._table`` and so on), so calls made inside the engine are seen as
well as the benchmark's own.  A span records name, start, end, parent span
and pass id; spans stay in compact in-memory arrays and are written once,
when the run ends.  A call into a layer that is already open (for example
``max_level_index`` inside ``max_level_index_pow``) is part of the open span
and does not start a new one.

A function that a later version of the engine no longer has is skipped: the
metrics it feeds are reported as absent and the run still completes.
"""

from __future__ import annotations

import array
import gzip
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "spectral_riesz"

# (layer, home module, attribute, result hook).  Two functions may feed one
# layer; riesz_mean splits into an exact and a float layer by the type of z.
SPANS = (
    ("spaces.level_inversion", "spaces", "max_level_index", None),
    ("spaces.level_inversion", "riesz", "max_level_index_pow", None),
    ("riesz.table", "riesz", "_table", None),
    ("riesz.counting", "riesz", "counting", None),
    ("riesz.riesz_mean", "riesz", "riesz_mean", None),
    ("riesz.prefix_sums", "riesz", "prefix_sums", None),
    ("riesz.poly_transform_check", "riesz", "poly_transform_check", None),
    ("weyl.lclass_volume", "weyl", "lclass_volume", None),
    ("weyl.expansion", "weyl", "expansion", None),
    ("bounds.bound_value", "bounds", "bound_value", None),
    ("bounds.verify", "bounds", "verify", "verify"),
    ("bounds.standard_grid", "bounds", "standard_grid", None),
    ("sumrules.check_pq_identity", "sumrules", "check_pq_identity", "pq"),
    ("sumrules.trace_identity_partial", "sumrules", "trace_identity_partial",
     None),
    ("scan.figure", "scan", "figure", "figure"),
    ("scan.gap_extrema", "scan", "gap_extrema", None),
    ("output.write", "output", "write_series_csv", "write"),
    ("output.write", "output", "write_series_svg", "write"),
)

# Plain call counters: too frequent and too cheap for a span each.
COUNTERS = (
    ("spaces.multiplicity.calls", "spaces", "multiplicity"),
)

# Metrics fed by each hook, and by the table cache, for absence reporting.
HOOK_METRICS = {
    "verify": ("bounds.verify.points", "bounds.verify.tolerance_decided",
               "bounds.verify.clear_decided"),
    "pq": ("sumrules.pq.gaps",),
    "figure": ("scan.figure.points",),
    "write": ("output.write.bytes",),
}
TABLE_METRICS = ("riesz.table.rows_built", "riesz.table.rows_held")
SPACE_INIT_METRIC = "spaces.space_inits"

#: Slack band inside which a verify verdict rests on the float tolerance.
VERIFY_TOL = 1e-9


def _modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _metrics_of_layer(layer):
    if layer == "riesz.riesz_mean":
        return tuple(f"riesz.riesz_mean.{path}.{m}"
                     for path in ("exact", "float") for m in ("calls", "s"))
    return tuple(f"{layer}.{m}" for m in ("calls", "s", "self_s"))


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.pass_id = 0
        self.names = []
        self._name_ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_pass = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.counts = Counter()          # (metric, pass id) -> count
        self.pass_metrics = {}           # pass id -> span sums of the pass
        self.rows_built = None
        self._pass_start = 0             # first span of the open pass
        self.absent = set()
        self._stack = []                 # indices of open spans
        self._open = []                  # open-span depth per name id
        self._patches = []               # (namespace, attribute, original)

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def _span_call(self, nid, fn, args, kwargs):
        if self._open[nid]:
            return fn(*args, **kwargs)
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_pass.append(self.pass_id)
        self.span_end.append(0.0)
        stack.append(idx)
        self._open[nid] += 1
        self.span_start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter()
            self._open[nid] -= 1
            stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, fn, hook):
        if layer == "riesz.riesz_mean":
            exact_id = self._name_id("riesz.riesz_mean.exact")
            float_id = self._name_id("riesz.riesz_mean.float")

            def riesz_mean(*args, **kwargs):
                z = args[2] if len(args) > 2 else kwargs.get("z")
                nid = float_id if isinstance(z, float) else exact_id
                return self._span_call(nid, fn, args, kwargs)
            return riesz_mean

        nid = self._name_id(layer)
        on_result = getattr(self, f"_on_{hook}") if hook else None

        def wrapper(*args, **kwargs):
            result = self._span_call(nid, fn, args, kwargs)
            if on_result is not None:
                try:
                    on_result(args, kwargs, result)
                except AttributeError:
                    # The result no longer has the field the hook counts.
                    self.absent.update(HOOK_METRICS[hook])
            return result
        return wrapper

    def _on_verify(self, args, kwargs, report):
        tol_n = clear_n = 0
        for side in report.sides:
            for _, _, bound, slack in side.points:
                if abs(slack) <= VERIFY_TOL * max(1.0, abs(bound)):
                    tol_n += 1
                else:
                    clear_n += 1
        p = self.pass_id
        self.counts[("bounds.verify.points", p)] += sum(
            s.n_points for s in report.sides)
        self.counts[("bounds.verify.tolerance_decided", p)] += tol_n
        self.counts[("bounds.verify.clear_decided", p)] += clear_n

    def _on_pq(self, args, kwargs, report):
        self.counts[("sumrules.pq.gaps", self.pass_id)] += len(
            report.gap_indices)

    def _on_figure(self, args, kwargs, series_list):
        self.counts[("scan.figure.points", self.pass_id)] += sum(
            len(s.points) for s in series_list)

    def _on_write(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts[("output.write.bytes", self.pass_id)] += \
            os.path.getsize(path)

    def _counter(self, metric, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(metric, self.pass_id)] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch_everywhere(self, original, replacement):
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self):
        """Wrap every traced function that the engine still has."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        found, missing = set(), set()
        for layer, home, attr, hook in SPANS:
            fn = getattr(sys.modules.get(f"{PACKAGE}.{home}"), attr, None)
            if fn is None:
                missing.add((layer, hook))
                continue
            found.add(layer)
            self._patch_everywhere(fn, self._wrap(layer, fn, hook))
        for layer, hook in missing:
            if layer not in found:
                self.absent.update(_metrics_of_layer(layer))
                self.absent.update(HOOK_METRICS.get(hook, ()))
        for metric, home, attr in COUNTERS:
            fn = getattr(sys.modules.get(f"{PACKAGE}.{home}"), attr, None)
            if fn is None:
                self.absent.add(metric)
                continue
            self._patch_everywhere(fn, self._counter(metric, fn))
        space = getattr(sys.modules.get(f"{PACKAGE}.spaces"), "Space", None)
        post_init = vars(space).get("__post_init__") if space else None
        if post_init is None:
            self.absent.add(SPACE_INIT_METRIC)
        else:
            space.__post_init__ = self._counter(SPACE_INIT_METRIC, post_init)
            self._patches.append((space, "__post_init__", post_init))
        if self.table_rows() is None:
            self.absent.update(TABLE_METRICS)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def table_rows():
        """Rows in the engine's prefix-table cache; None without a cache."""
        tables = getattr(sys.modules.get(f"{PACKAGE}.riesz"), "_tables", None)
        if not isinstance(tables, dict):
            return None
        return sum(len(tab[0]) for tab in tables.values())

    # -- aggregation ------------------------------------------------------

    def close_pass(self):
        """Sum the spans of the pass that just ended into per-pass metrics.

        Only the first pass keeps its spans for writing, which bounds the
        memory a long traced run needs.  Tables start empty in a fresh
        process, so the rows held after the first pass are the rows built
        by set-up and that pass.
        """
        lo, hi = self._pass_start, len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            if self.span_parent[i] >= lo:
                child[self.span_parent[i] - lo] += dur[i - lo]
        agg = self.pass_metrics.setdefault(self.pass_id, Counter())
        for i in range(lo, hi):
            name = self.names[self.span_name[i]]
            agg[name + ".calls"] += 1
            agg[name + ".s"] += dur[i - lo]
            agg[name + ".self_s"] += dur[i - lo] - child[i - lo]
        if self.pass_id == 0:
            self._pass_start = hi
            self.rows_built = self.table_rows()
        else:
            for column in (self.span_name, self.span_parent, self.span_pass,
                           self.span_start, self.span_end):
                del column[lo:]
        self.pass_id += 1

    def write_spans(self, path):
        """Kept spans as gzip CSV: name, start, end, parent index, pass id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,pass\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{names[self.span_name[i]]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                         f"{self.span_parent[i]},{self.span_pass[i]}\n")


def layer_metrics(tracer, pass_cpu, pass_wall):
    """Per-layer metric values of one traced run.

    Counts come from the first traced pass, so they repeat exactly for a
    seed; times are medians over the traced passes.
    """
    traced_passes = range(tracer.pass_id)
    by_pass = {p: Counter(tracer.pass_metrics.get(p, ()))
               for p in traced_passes}
    for (metric, pid), value in tracer.counts.items():
        if pid in by_pass:
            by_pass[pid][metric] += value
    first = by_pass[traced_passes[0]]
    metrics = {}

    def median_of(metric):
        return statistics.median(by_pass[p][metric] for p in traced_passes)

    for name in tracer.names:
        metrics[name + ".calls"] = first[name + ".calls"]
        metrics[name + ".s"] = median_of(name + ".s")
        metrics[name + ".self_s"] = median_of(name + ".self_s")
    for layer, *_ in SPANS:
        for metric in _metrics_of_layer(layer):
            metrics.setdefault(metric, 0)
    for metrics_of_hook in HOOK_METRICS.values():
        for metric in metrics_of_hook:
            metrics[metric] = first[metric]
    for metric, *_ in COUNTERS:
        metrics[metric] = first[metric]
    metrics[SPACE_INIT_METRIC] = first[SPACE_INIT_METRIC]
    if tracer.rows_built is not None:
        metrics["riesz.table.rows_built"] = tracer.rows_built
        metrics["riesz.table.rows_held"] = tracer.table_rows()
    metrics["process.cpu_s"] = statistics.median(pass_cpu)
    metrics["process.wait_s"] = statistics.median(
        max(0.0, w - c) for w, c in zip(pass_wall, pass_cpu))
    for metric in tracer.absent:
        metrics.pop(metric, None)
    return metrics
