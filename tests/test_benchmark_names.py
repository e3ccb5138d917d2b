"""Every library name the benchmark under perfbench/ wraps or imports must still resolve.

The traced benchmark run wraps each (module, attribute) pair of
``trace_replay.SPANS`` and exits non-zero when one is missing; this test
fails first, in the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load("trace_replay").SPANS


@pytest.mark.parametrize("span", sorted(SPANS))
def test_span_targets_resolve(span):
    for module_name, attr in SPANS[span]:
        assert callable(getattr(importlib.import_module(module_name), attr))


def test_workloads_module_imports():
    workloads = _load("workloads")
    for name in ("check", "sweep-numeric"):
        assert workloads.build(name, 1).cycles  # the draws call the closed forms it imports
