"""Smoke test of the benchmark: seeded inputs, metric names, span binding.

Fast enough for the tier-1 suite; it runs no timed workload.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent

_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
spans, treegen, sx = run.spans, run.treegen, run.sx


def _flat(spec: dict) -> str:
    return json.dumps(treegen.scenario_doc(spec, "x", [], {}), sort_keys=True)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    shape = run.WORKLOADS[name].shape
    a = treegen.generate(shape, 7)
    b = treegen.generate(shape, 7)
    c = treegen.generate(shape, 8)
    assert _flat(a) == _flat(b)
    assert _flat(a) != _flat(c)
    s1 = run.PayoffStream(7, 2, shape.n_atoms, 0.25)
    s2 = run.PayoffStream(7, 2, shape.n_atoms, 0.25)
    for _ in range(20):
        assert np.array_equal(next(s1), next(s2))


def test_metric_names_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    layer = list(spans.Tracer().layer_metrics()) + list(run.EXTRA_LAYER)
    assert [m["name"] for m in doc["per_layer"]] == layer


def test_small_system_validates_and_traces_deterministically():
    shape = treegen.Shape(2, 2, "linear")
    spec, system, rejected = treegen.accepted_system(sx, shape, 3)
    assert rejected == 0

    def counts():
        tracer = spans.Tracer()
        original = sx.extension.solve_lp
        tracer.install()
        try:
            assert sx.extension.solve_lp is not original
            assert sx.operators.solve_lp is sx.extension.solve_lp
            with tracer.op("setup"):
                ext = sx.extend_system(treegen.build_system(sx, spec))
            stream = run.PayoffStream(3, 2, shape.n_atoms)
            for _ in range(3):
                X = ext.space.rv(next(stream), shape.T)
                with tracer.op("evaluate"):
                    ext.evaluate(0, shape.T, X)
                with tracer.op("price"):
                    sx.price(ext, 0, shape.T, X)
        finally:
            tracer.uninstall()
        assert sx.extension.solve_lp is original
        m = tracer.layer_metrics()
        return {k: v for k, (v, unit) in m.items() if unit in ("count", "ratio")}

    first = counts()
    assert first["lp.pivots.price"] > 0
    assert first["extension.attain.lp_per_block"] > 0
    assert first == counts()
