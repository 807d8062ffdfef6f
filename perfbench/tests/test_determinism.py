"""Same seed, same inputs, counts and verdicts; another seed, other inputs."""

import json

import numpy as np
import pytest

import harness
import spans
import workloads
from conftest import BENCH

COMPUTED = [name for name, unit, _ in spans.PER_LAYER
            if unit in ("count", "B") or name in ("giep.delta_per_index", "oracle.generate.accept_ratio")]


def traced_prefix(tp, name, seed, count, tmp_path):
    workload = workloads.build(tp, name, seed, tmp_path)
    workload.ops = workload.ops[:count]
    tracer = spans.Tracer(tp, tp.MathPreconditionError)
    tracer.install()
    try:
        samples = harness.measure(workload, rotations=1, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, 0.0)
    return [(s.label, s.reason) for s in samples], {k: metrics[k] for k in COMPUTED}


@pytest.mark.parametrize("name,count", [("direct", 5), ("sweep", 128), ("roundtrip", 40)])
def test_same_seed_same_counts_and_verdicts(tp, tmp_path, name, count):
    first = traced_prefix(tp, name, 5, count, tmp_path)
    second = traced_prefix(tp, name, 5, count, tmp_path)
    assert first == second
    assert sum(first[1][k] for k in COMPUTED if k.endswith(".calls")) > 0


def test_different_seed_different_inputs():
    a, b = workloads.direct_inputs(1), workloads.direct_inputs(2)
    assert all(not np.array_equal(x.coeffs.a, y.coeffs.a) for x, y in zip(a, b))
    assert workloads.direct_inputs(1)[0].points == a[0].points
    assert workloads.roundtrip_inputs(1) != workloads.roundtrip_inputs(2)
    assert workloads.roundtrip_inputs(1) == workloads.roundtrip_inputs(1)
    s1, s2 = workloads.sweep_inputs(1), workloads.sweep_inputs(2)
    assert [pt.z for pt in s1[0][1]] != [pt.z for pt in s2[0][1]]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
