"""The A/B harness's loader (scripts/ab.py): engine copies side by side."""

import importlib.util
import os
import sys

import spectral_riesz

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENGINE = ("bounds", "output", "riesz", "scan", "spaces", "sumrules", "weyl")


def _harness():
    spec = importlib.util.spec_from_file_location(
        "ab_harness", os.path.join(ROOT, "scripts", "ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loader_imports_independent_engines_and_restores_sys_modules():
    ab = _harness()
    before = dict(sys.modules)
    first, second = ab.load(ab.SRC), ab.load(ab.SRC)
    assert dict(sys.modules) == before
    for name in ENGINE:
        a, b = getattr(first, name), getattr(second, name)
        assert a is not b
        assert a is not sys.modules.get(f"spectral_riesz.{name}")
        assert os.path.dirname(a.__file__) == os.path.join(ab.SRC,
                                                           "spectral_riesz")
    assert first.riesz.SpectrumQuery is not second.riesz.SpectrumQuery
    counts = [w.riesz.counting(w.riesz.SpectrumQuery(w.spaces.sphere(2)), z)
              for w in (first, second) for z in (0, 2, 100, 10 ** 6)]
    assert counts[:4] == counts[4:] == [1, 4, 100, 1000000]
    assert spectral_riesz.riesz.counting is not first.riesz.counting
