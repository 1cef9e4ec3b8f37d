"""One workload process: set-up, timed passes, checks; JSON on the last line.

Started by run.py, never by hand.  The engine is imported from the
checkout's own ``src`` tree.  With --setup-only the process stops after
set-up and reports only its set-up time.
"""

import time

_T0 = time.perf_counter()   # set-up time starts before any engine import

import argparse
import array
import json
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _import_engine():
    sys.path.insert(0, SRC)
    import spectral_riesz
    where = os.path.dirname(os.path.abspath(spectral_riesz.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"spectral_riesz imported from {where}, not {SRC}")


def steady(samples):
    """One call's steady latency: the 90th percentile of its repetitions.

    A shared host runs a call at one of two speeds, about a factor of two
    apart, and the share of time at the fast speed drifts from minute to
    minute; the slow speed is steadier, so a high quantile of the
    repetitions is steadier than their mean or median.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class Phase:
    """Timed passes of one kind (traced or not) and what they measured."""

    def __init__(self, n_ops):
        self.passes = []      # per pass: wall, cpu, busy, points, ops, failed
        # Seconds per call, by the call's place in the pass, over all passes.
        self.latencies = [array.array("d") for _ in range(n_ops)]
        self.op_points = [0] * n_ops       # points of one call
        self.peak_rss_mb = None            # after the first pass

    def costs(self):
        """Steady seconds of each call of a pass."""
        return [steady(lat) for lat in self.latencies]

    def rate(self):
        """Points of one pass over the steady time of its calls."""
        return sum(self.op_points) / sum(self.costs())


def run_passes(workload, phase, until, first_pass, tracer=None):
    """Repeat the workload's pass until the deadline, at least once.

    A closed loop: one caller issues the calls back to back.  Only the call
    itself is timed; checking a result happens between calls.
    """
    ops = workload.ops()
    while True:
        first = first_pass and not phase.passes
        points = failed = 0
        busy = 0.0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result = op.call()
                ok = not op.edge
            except ValueError as exc:
                result, ok = exc, op.edge
            except Exception as exc:  # counted as a failed operation
                result, ok = exc, False
            dt = time.perf_counter() - t0
            phase.latencies[i].append(dt)
            busy += dt
            if op.edge:
                workload.edge_outcomes.setdefault(
                    op.label, type(result).__name__
                    if isinstance(result, BaseException)
                    else f"returned {result!r}")
            if not ok:
                failed += 1
                if not op.edge:
                    workload.errors.append(f"{op.label}: raised {result!r}")
                continue
            if not op.edge:
                phase.op_points[i] = workload.points(op, result)
                points += phase.op_points[i]
                workload.observe(op, result, first)
        phase.passes.append({
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "busy_s": busy, "points": points, "ops": len(ops),
            "failed": failed})
        if phase.peak_rss_mb is None:
            # Later passes repeat the same calls on warm caches; only the
            # latency samples would still grow the process.
            phase.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.close_pass()
        # Start another pass only if it should end by half a pass past the
        # deadline, so a run measures close to its stated seconds.
        mean_wall = sum(p["wall_s"] for p in phase.passes) / len(phase.passes)
        if workload.smoke or time.perf_counter() + mean_wall / 2 >= until:
            return


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    _import_engine()
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    out_dir = os.path.join(OUT_DIR, args.workload)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, out_dir)
    workload.warm_up()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    result = {"setup_s": setup_s}
    if args.trace:
        # An untraced third of the run, then the traced rest: the rate
        # difference is the tracing overhead.
        n_ops = len(workload.ops())
        plain, traced, tracer = Phase(n_ops), Phase(n_ops), Tracer()
        run_passes(workload, plain, start + args.seconds / 3, first_pass=True)
        tracer.install()
        try:
            run_passes(workload, traced, start + args.seconds,
                       first_pass=False, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = (plain, traced)
        metrics = layer_metrics(tracer, [p["cpu_s"] for p in traced.passes],
                                [p["wall_s"] for p in traced.passes])
        metrics["trace.overhead"] = plain.rate() / traced.rate() - 1
        tracer.write_spans(os.path.join(OUT_DIR,
                                        f"spans-{args.workload}.csv.gz"))
        result["layer_metrics"] = metrics
        result["absent_metrics"] = sorted(tracer.absent)
    else:
        timed = Phase(len(workload.ops()))
        run_passes(workload, timed, start + args.seconds, first_pass=True)
        phases = (timed,)
        cost_ms = sorted(1e3 * x for x in timed.costs())
        q = statistics.quantiles(cost_ms, n=20, method="inclusive")
        result.update({
            "points_per_s": timed.rate(),
            "op_ms.p50": statistics.median(cost_ms),
            "op_ms.p95": q[18],
            "op_samples": sum(len(lat) for lat in timed.latencies),
            "mean_points_per_s": sum(p["points"] for p in timed.passes)
            / sum(p["busy_s"] for p in timed.passes),
        })
    workload.run_oracle_checks()
    passes = [p for ph in phases for p in ph.passes]
    result.update({
        "peak_rss_mb": phases[0].peak_rss_mb,
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "busy_s", "points")}
                   for p in passes],
        "digest": workload.digest(),
        "edge_outcomes": workload.edge_outcomes,
        "mismatches": workload.mismatches,
        "errors": workload.errors,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
