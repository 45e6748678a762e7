"""The benchmark's layer tracing still sees every layer it reports.

``bench/tracing.py`` wraps functions by the names one module imports from
another, and leaves a metric out of its report when none of that metric's
names resolves.  A run whose report lacks a declared metric is malformed,
so these tests pin the names the program must keep.  The tracer is loaded
from its file and only read: nothing is installed.
"""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: Measured around the traced run, not by the tracer.
OUTSIDE_TRACER = {"trace.overhead_s"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_report_has_every_declared_layer_metric(tracing):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    reported = set(tracing.Tracer().metrics(1))
    assert declared - OUTSIDE_TRACER <= reported, sorted(declared - OUTSIDE_TRACER - reported)


@pytest.mark.parametrize("name", ["random_pure_state", "random_observable", "derive_seed"])
def test_campaign_generators_keep_their_traced_names(tracing, name):
    """Instance generation is traced as ``harness`` calls these names."""
    assert ("uncrel.harness", name) in {(module, attr) for module, attr, _ in tracing.WRAPPED}
    assert tracing._resolve("uncrel.harness", name)[2] is not None
