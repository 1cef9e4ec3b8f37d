#!/usr/bin/env python3
"""Benchmark of the spectral-riesz engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog-sweep --seed 0 \\
        --seconds 20 --trace 0

Workloads: catalog-sweep, exact-deep, series (see BENCHMARK.json and
perfbench/README.md).  Each runs in its own single-threaded worker process
as a closed loop.  With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of a
traced run.  The line before it is the run record.  The exit code is 0 only
when every output check passed; it is 2 when the checkout has no engine
source to measure.  --smoke runs one tiny pass, for the benchmark's own
test.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

#: Set-up-only processes run before and after the worker; the median of
#: their set-up times and the worker's own is setup_s.  Spreading them over
#: the run keeps one slow moment of a shared host from setting the figure.
SETUP_BEFORE = 3
SETUP_AFTER = 3
#: Whole-run limit, kept under the 180 s a benchmark run may take.
RUN_LIMIT_S = 170.0
#: The engine's thread-count switch; stripped so its default single worker
#: is what gets measured.
THREADS_ENV = "SPECTRAL_RIESZ_THREADS"
#: Bytecode cache of the workers, inside the checkout.  A priming process
#: fills it before anything is timed, so every timed set-up imports from
#: bytecode whether or not the caller's environment lets Python write it.
PYCACHE = os.path.join(ROOT, ".bench_out", "pycache")


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _worker(argv, env, deadline):
    """Run one worker to completion and return its JSON result."""
    out = subprocess.run([sys.executable, WORKER] + argv, env=env, cwd=ROOT,
                         capture_output=True, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if out.returncode != 0:
        raise RuntimeError(f"worker {argv} exited {out.returncode}:\n"
                           f"{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    engine = os.path.join(ROOT, "src", "spectral_riesz", "__init__.py")
    if not os.path.isfile(engine):
        print(f"no engine source at {engine}; nothing to measure",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    threads_env = env.pop(THREADS_ENV, None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    before, after = (1, 0) if args.smoke else (SETUP_BEFORE, SETUP_AFTER)
    if args.trace:
        before = after = 0
    try:
        _worker(["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--setup-only", "--smoke"], env, deadline)
        setups = [_worker(argv + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(before)]
        res = _worker(argv, env, deadline)
        setups.append(res["setup_s"])
        setups += [_worker(argv + ["--setup-only"], env, deadline)["setup_s"]
                   for _ in range(after)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    expected = recorded["digests"].get(args.workload)
    compare = args.seed == recorded["seed"] and not args.smoke
    mismatches = res["mismatches"]
    if compare and res["digest"] != expected:
        mismatches.append(f"output digest {res['digest']} differs from the "
                          f"recorded {expected}")

    attempted = res["attempted"]
    failed = res["failed"] + len(mismatches)
    if args.trace:
        specs = bench["per_layer"]
        values = res["layer_metrics"]
    else:
        specs = bench["end_to_end"]
        values = dict(res, setup_s=statistics.median(setups),
                      ok_ratio=1.0 - failed / attempted)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs if s["name"] in values}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "platform": platform.platform(),
        "cpu_count": os.cpu_count(), "commit": _commit(),
        "env": {THREADS_ENV: "stripped" if threads_env is not None
                else "not set",
                "PYTHONPYCACHEPREFIX": os.path.relpath(PYCACHE, ROOT)},
        "setup_s_samples": setups,
        "passes": res["passes"],
        "op_samples": res.get("op_samples"),
        "mean_points_per_s": res.get("mean_points_per_s"),
        "fail_ratio": failed / attempted,
        "edge_outcomes": res["edge_outcomes"],
        "digest": res["digest"],
        "digest_checked": compare,
        "absent_metrics": res.get("absent_metrics", []),
        "mismatches": mismatches[:20],
        "mismatch_count": len(mismatches),
        "errors": res["errors"][:20],
    }
    correct = not mismatches and not res["errors"]
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
