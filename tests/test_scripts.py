"""Smoke tests for the scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_roundtrip_sweep_runs(capsys):
    assert load_script("roundtrip_sweep").main(["--count", "5"]) == 0
    assert "5 instances, 0 failures" in capsys.readouterr().out
