"""Smoke tests for the scripts under scripts/."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_roundtrip_sweep_runs(capsys):
    assert load_script("roundtrip_sweep").main(["--count", "5"]) == 0
    assert "5 instances, 0 failures" in capsys.readouterr().out


def _result_line(ops_per_s, setup_s):
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "good_ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"}}})


def test_bench_pairs_merges_result_lines():
    bench = load_script("bench_pairs")
    lines = {"parent": {"roundtrip": [_result_line(80.0, 0.15), _result_line(84.0, 0.14),
                                      _result_line(82.0, 0.16)]},
             "change": {"roundtrip": [_result_line(300.0, 0.15), _result_line(83.0, 0.13),
                                      _result_line(310.0, 0.17)]}}
    doc = bench.merge("demo", "what it does", "python3 perfbench/run.py", "a host", lines)
    assert list(doc)[:5] == ["label", "what", "command", "host", "note"]
    assert doc["label"] == "demo"
    assert doc["change"]["roundtrip"][1]["metrics"]["good_ops_per_s"]["value"] == 83.0
    better = {"good_ops_per_s": "higher", "setup_s": "lower"}
    rows = {row["metric"]: row for row in bench.summary(doc, better)}
    assert rows["good_ops_per_s"]["parent"] == 82.0 and rows["good_ops_per_s"]["change"] == 300.0
    assert rows["good_ops_per_s"]["parent_iqr"] == 2.0
    assert rows["good_ops_per_s"]["wins"] == 2
    assert rows["setup_s"]["wins"] == 1  # lower is better; an equal value is no win
    lines["change"]["roundtrip"].pop()
    with pytest.raises(ValueError):
        bench.merge("demo", "", "", "", lines)


def test_bench_pairs_reads_a_seed_per_workload():
    bench = load_script("bench_pairs")
    assert bench.workload_seed("direct", 1) == ("direct", 1)
    assert bench.workload_seed("direct:7", 1) == ("direct", 7)
