"""Smoke test of the benchmark: one tiny pass per workload, both modes.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in _bench()["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["run_record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    specs = _bench()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    assert record["absent_metrics"] == []
    if workload == "exact-deep":
        # The known +inf / -inf / negative-z defects stay visible.
        assert result["failed"] == 4 * (trace + 1)
    else:
        assert result["failed"] == 0


def test_traced_counts_repeat_for_a_seed():
    runs = [_run("--workload", "catalog-sweep", "--seed", "5", "--seconds",
                 "1", "--trace", "1", "--smoke") for _ in range(2)]
    counts = []
    for out in runs:
        assert out.returncode == 0, out.stderr
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]


def _copy_benchmark(dest):
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def test_without_engine_source_exits_nonzero_without_result(tmp_path):
    _copy_benchmark(tmp_path)
    out = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "series", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_missing_layer_is_reported_absent(tmp_path):
    # An engine whose prefix-table function is no longer called _table.
    _copy_benchmark(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("riesz.py", "sumrules.py"):
        path = tmp_path / "src" / "spectral_riesz" / name
        path.write_text(re.sub(r"\b_table\b", "_prefix_table",
                               path.read_text()))
    out = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "exact-deep", "--seed", "1", "--seconds", "1",
         "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    absent = json.loads(lines[-2])["run_record"]["absent_metrics"]
    assert "riesz.table.calls" in absent and "riesz.table.s" in absent
    assert "riesz.table.calls" not in metrics
    assert "riesz.counting.calls" in metrics
