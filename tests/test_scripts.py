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


def test_roundtrip_sweep_records_library_errors_and_exits_1(monkeypatch, capsys, tmp_path):
    sweep = load_script("roundtrip_sweep")
    generate, solve = sweep.tp.generate_instance, sweep.tp.solve

    def failing_generate(config):
        if config.seed == 4:
            raise sweep.tp.GenerationFailedError(4, {"head spectrum": 100})
        return generate(config)

    def failing_solve(inst):
        if inst.n == 3:  # seeds 1 and 10 of --max-n 10
            raise sweep.tp.VanishingComponentError(2)
        return solve(inst)

    monkeypatch.setattr(sweep.tp, "generate_instance", failing_generate)
    monkeypatch.setattr(sweep.tp, "solve", failing_solve)
    rows = tmp_path / "rows.csv"
    assert sweep.main(["--count", "12", "--csv", str(rows)]) == 1
    out = capsys.readouterr().out
    assert "12 instances, 3 failures" in out
    assert "  GenerationFailedError: 1 (seeds 4)" in out
    assert "  VanishingComponentError: 2 (seeds 1, 10)" in out
    tags = [line.rsplit(",", 1)[1] for line in rows.read_text().splitlines()[1:]]
    assert [(seed, tag) for seed, tag in enumerate(tags) if tag] == [
        (1, "VanishingComponentError"), (4, "GenerationFailedError"), (10, "VanishingComponentError")]


def _result_line(ops_per_s, setup_s, attempted=10, failed=0):
    return json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": {
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
    metrics = [{"name": "good_ops_per_s", "better": "higher", "bound": 0.2},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]
    rows = {row["metric"]: row for row in bench.summary(doc, metrics)}
    assert rows["good_ops_per_s"]["parent"] == (81.0, 82.0, 83.0)
    assert rows["good_ops_per_s"]["change"] == (191.5, 300.0, 305.0)
    assert rows["good_ops_per_s"]["wins"] == 2
    assert rows["setup_s"]["wins"] == 1  # lower is better; an equal value is no win
    lines["change"]["roundtrip"].pop()
    with pytest.raises(ValueError):
        bench.merge("demo", "", "", "", lines)


def test_bench_pairs_counts_failed_operations_per_side():
    """failed/attempted summed over each side's runs; a workload is flagged where the change's share is larger."""
    bench = load_script("bench_pairs")
    lines = {"parent": {"direct": [_result_line(1.0, 0.1, 100, 1), _result_line(1.0, 0.1, 100, 1)],
                        "sweep": [_result_line(1.0, 0.1, 100, 0), _result_line(1.0, 0.1, 300, 0)]},
             "change": {"direct": [_result_line(1.0, 0.1, 200, 1), _result_line(1.0, 0.1, 200, 2)],
                        "sweep": [_result_line(1.0, 0.1, 50, 0), _result_line(1.0, 0.1, 50, 1)]}}
    rows = {row["workload"]: row for row in bench.failures(bench.merge("demo", "", "", "", lines))}
    # 3/400 against 2/200: a smaller share fails, though more operations do
    assert (rows["direct"]["parent"], rows["direct"]["change"], rows["direct"]["fails_more"]) == (
        (2, 200), (3, 400), False)
    # 1/100 against 0/400: any failure where the parent has none is a larger share
    assert (rows["sweep"]["parent"], rows["sweep"]["change"], rows["sweep"]["fails_more"]) == (
        (0, 400), (1, 100), True)


def test_bench_pairs_reads_a_seed_per_workload():
    bench = load_script("bench_pairs")
    assert bench.workload_seed("direct", 1) == ("direct", 1)
    assert bench.workload_seed("direct:7", 1) == ("direct", 7)


@pytest.mark.parametrize("old, new, better, expected", [
    # 9 of 10 pairs won (one tie), medians 100 -> 120 apart by more than the parent IQR
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120, 121, 119, 120, 122, 118, 120, 121, 119, 100],
     "higher", "gain"),
    # a tie in two pairs leaves 8 of 10 wins: not a gain, and within the 20% bound
    ([100] * 10, [120] * 8 + [100] * 2, "higher", "within bound"),
    # all ten won, but the gap 1 does not clear the parent IQR 10
    ([90, 110] * 5, [91, 111] * 5, "higher", "within bound"),
    # lower is better: a median 30% higher is worse than the 25% bound
    ([1.0] * 10, [1.3] * 10, "lower", "worse"),
    # the same rise within the bound
    ([1.0] * 10, [1.2] * 10, "lower", "within bound"),
    # parent IQR 40 wider than 20% of its median 100, runs overlapping: unresolved
    ([60, 140] * 5, [70, 130] * 5, "higher", "unresolved"),
    # the same spread, every change run beats every parent run, the gap 41.5 short of the IQR 80
    ([60, 140] * 5, [141, 142] * 5, "higher", "within bound"),
])
def test_bench_pairs_verdicts(old, new, better, expected):
    bound = 0.2 if better == "higher" else 0.25
    assert load_script("bench_pairs").verdict(old, new, better, bound) == expected


def test_src_loc_counts_lines_and_code_lines(capsys, tmp_path):
    """Each module's wc -l count and its code lines, docstrings, comments and blank lines left out, and totals."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text('"""Module.\n\nMore."""\n\nimport os  # why\n\n\ndef f(x):\n'
                                  '    """One line."""\n    # a comment\n    return (x +\n            1)\n')
    (package / "b.py").write_text('class C:\n    """Doc."""\n\n    y = """not a\ndocstring"""\n')
    assert load_script("src_loc").main(["--src", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["pkg/a.py", "12", "4"], ["pkg/b.py", "5", "3"],
                    ["total", "17", "7"]]

