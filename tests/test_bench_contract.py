"""The traced benchmark's contract with the engine.

`perfbench/tracer.py` wraps engine functions by module and name, and its
result hooks read `ScanReport.sides`, `SideReport.points`,
`PQReport.gap_indices` and `Series.points`.  A name or a field the engine
no longer has is not an error there: the tracer drops the metrics it feeds
from the run's result.  This test runs one small traced pass and asserts
that nothing was dropped, and that every per-layer metric BENCHMARK.json
declares is reported with a finite value.
"""

import importlib.util
import json
import math
import os
import time

from spectral_riesz import bounds, output, scan, sumrules
from spectral_riesz.spaces import sphere

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Computed by the benchmark worker from an untraced and a traced phase,
#: not by the tracer.
WORKER_METRICS = {"trace.overhead"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_reports_every_declared_layer_metric(tmp_path):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        cpu, wall = time.process_time(), time.perf_counter()
        bounds.verify("s2.r1.upper", points=50, levels=5)
        series = scan.figure("f1", resolution=2, l_max=4)
        output.write_series_csv(str(tmp_path / "f1.csv"), series)
        sumrules.check_pq_identity(sphere(2), 5)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        tracer.close_pass()
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    metrics = tracer_module.layer_metrics(tracer, [cpu], [wall])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    missing = sorted(declared - WORKER_METRICS - set(metrics))
    assert missing == []
    assert all(math.isfinite(metrics[name])
               for name in declared - WORKER_METRICS)
    # Each result hook read its field.
    for name in ("bounds.verify.points", "scan.figure.points",
                 "sumrules.pq.gaps", "output.write.bytes"):
        assert metrics[name] > 0, name
