"""CLI subcommands, exit codes, and serialization round-trips."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tripencil as tp
from tripencil import serialize
from tripencil.cli import main
from support import build_pencil, dense_spectrum, extreme_pair, seeded_pencil

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_pencil(path, pencil):
    serialize.save_json(path, serialize.encode_pencil(pencil))


def test_generate_solve_verify_chain(workdir, capsys):
    assert main(["generate", "--n", "4", "--k", "2", "--seed", "7",
                 "--out", str(workdir)]) == 0
    assert main(["solve", str(workdir / "instance.json"),
                 "--out", str(workdir / "result.json")]) == 0
    capsys.readouterr()
    assert main(["verify", "--truth", str(workdir / "truth.json"),
                 "--result", str(workdir / "result.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    result = json.loads((workdir / "result.json").read_text())
    assert "residual_lambda" in result


def test_solve_real_pole_ratio_exits_2(workdir, capsys, rng):
    truth = build_pencil(rng, 3, real_b_at=(1,))
    lam, mu = extreme_pair(truth)
    inst = tp.instance_from_truth(truth, 1, lam, mu)
    serialize.save_json(workdir / "bad.json", serialize.encode_instance(inst))
    code = main(["solve", str(workdir / "bad.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Delta" in err
    assert "1" in err


def test_direct_scalar_convergent(workdir, capsys):
    pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0,), ()),
                       tp.HermitianTridiagonal((0.0,), ()))
    write_pencil(workdir / "p.json", pencil)
    assert main(["direct", str(workdir / "p.json"), "--at", "2.0", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["S"] == [0.5, 0.0]


@pytest.mark.parametrize("c, a, d, b, point, extra", [
    ((1.0,), (2.0,), (), (), "2.0", []),                        # P_1(2) = 0, order 0
    ((1.0, 1.0), (0.5, 0.0), (1.0,), (1j,), "0.5", ["--all"]),  # P_1(0.5) = 0 inside
])
def test_direct_at_sub_pencil_root_exits_2(workdir, capsys, c, a, d, b, point, extra):
    pencil = tp.Pencil(tp.SymmetricTridiagonal(c, d), tp.HermitianTridiagonal(a, b))
    write_pencil(workdir / "p.json", pencil)
    assert main(["direct", str(workdir / "p.json"), "--at", point, *extra]) == 2
    assert "spectrum" in capsys.readouterr().err


def test_direct_at_overflowing_point_exits_1_without_nan(workdir, capsys):
    # the unscaled P/Q recurrence overflows at n = 640 above the spectrum
    pencil = seeded_pencil(3, 640)
    write_pencil(workdir / "p.json", pencil)
    point = repr(float(dense_spectrum(pencil)[-1]) + 1.5)
    assert main(["direct", str(workdir / "p.json"), "--at", point, "--json"]) == 1
    captured = capsys.readouterr()
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    assert "P[" in captured.err and "not finite" in captured.err


def test_consecutive_calls_share_no_state(workdir, capsys, rng):
    """Calls in one process give the exit codes and output of the same calls each in a fresh process."""
    write_pencil(workdir / "p.json", build_pencil(rng, 3))
    write_pencil(workdir / "root.json", tp.Pencil(tp.SymmetricTridiagonal((1.0,), ()),
                                                  tp.HermitianTridiagonal((2.0,), ())))
    calls = [["direct", str(workdir / "p.json"), "--at", "0.5,0.25", "--all", "--json"],
             ["direct", str(workdir / "p.json"), "--spectrum"],
             ["direct", str(workdir / "root.json"), "--at", "2.0"],
             ["mfun", str(workdir / "p.json"), "--omega", "0.5,0.25", "--k", "1"]]
    together = []
    for argv in calls:
        together.append((main(argv), capsys.readouterr().out))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    alone = [subprocess.run([sys.executable, "-m", "tripencil", *argv], capture_output=True, text=True, env=env)
             for argv in calls]
    assert [code for code, _ in together] == [0, 0, 2, 0]
    assert together == [(run.returncode, run.stdout) for run in alone]


def test_direct_spectrum(workdir, capsys, rng):
    pencil = build_pencil(rng, 3)
    write_pencil(workdir / "p.json", pencil)
    assert main(["direct", str(workdir / "p.json"), "--spectrum", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["eigenvalues"]) == 4


def test_mfun_reconstruct(workdir, capsys, rng):
    pencil = build_pencil(rng, 4)
    lam, _ = extreme_pair(pencil)
    write_pencil(workdir / "p.json", pencil)
    assert main(["mfun", str(workdir / "p.json"), "--omega", f"{lam + 2.0},0",
                 "--k", "1", "--reconstruct", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    for got, want in zip(out["reconstructed_a"], out["truth_a"]):
        assert abs(got - want) < 1e-7


def test_mfun_diag_holds_m_differences(workdir, capsys, rng):
    pencil = build_pencil(rng, 5)
    lam, _ = extreme_pair(pencil)
    write_pencil(workdir / "p.json", pencil)
    assert main(["mfun", str(workdir / "p.json"), "--omega", f"{lam + 1.0},0.3",
                 "--k", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    m = [complex(*v) for v in out["m"]]
    diag = [complex(*v) for v in out["diag"]]
    assert len(diag) == len(m) - 1
    for t, g in enumerate(diag):
        assert abs(g - (m[t + 1] - m[t])) <= 1e-12 * (1 + abs(m[t + 1]))


def test_missing_file_exits_1(capsys):
    assert main(["solve", "/nonexistent/instance.json"]) == 1


def test_schema_error_exits_1(workdir, capsys):
    (workdir / "broken.json").write_text('{"n": 2, "c": [1, 2, 3]}')
    assert main(["solve", str(workdir / "broken.json")]) == 1


def test_tampered_result_exits_3(workdir, capsys):
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "11",
                 "--out", str(workdir)]) == 0
    assert main(["solve", str(workdir / "instance.json"),
                 "--out", str(workdir / "result.json")]) == 0
    doc = json.loads((workdir / "result.json").read_text())
    doc["a"][-1] += 0.01
    (workdir / "result.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--truth", str(workdir / "truth.json"),
                 "--result", str(workdir / "result.json")]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False


class TestSerializationRoundTrip:
    def test_pencil_bitwise(self, rng):
        pencil = build_pencil(rng, 5)
        doc = json.loads(json.dumps(serialize.encode_pencil(pencil)))
        assert serialize.decode_pencil(doc) == pencil

    def test_instance_bitwise(self, rng):
        truth = build_pencil(rng, 4)
        lam, mu = extreme_pair(truth)
        inst = tp.instance_from_truth(truth, 2, lam, mu)
        doc = json.loads(json.dumps(serialize.encode_instance(inst)))
        assert serialize.decode_instance(doc) == inst

    def test_instance_document_holds_only_the_problem_data(self, rng):
        truth = build_pencil(rng, 4)
        lam, mu = extreme_pair(truth)
        inst = tp.instance_from_truth(truth, 2, lam, mu)
        doc = json.loads(json.dumps(serialize.encode_instance(inst)))
        assert list(doc) == ["n", "k", "c", "d", "a", "b", "lambda", "mu", "tail_p", "tail_s"]
        # files that still carry the diagnostic b_j/d_j of the truth decode to the same instance
        doc["poles"] = [[b.real / d, b.imag / d] for b, d in zip(truth.H.b[2:], truth.J.d[2:])]
        assert serialize.decode_instance(doc) == inst

    def test_result_bitwise(self):
        truth, inst = tp.generate_instance(tp.GeneratorConfig(n=4, k=1, seed=2))
        result = tp.solve(inst)
        doc = json.loads(json.dumps(serialize.encode_result(result)))
        assert serialize.decode_result(doc) == result

    def test_files_round_trip(self, workdir, rng):
        pencil = build_pencil(rng, 3)
        serialize.save_json(workdir / "p.json", serialize.encode_pencil(pencil))
        again = serialize.decode_pencil(serialize.load_json(workdir / "p.json"))
        assert again == pencil


CODECS = {"pencil": (serialize.encode_pencil, serialize.decode_pencil),
          "instance": (serialize.encode_instance, serialize.decode_instance),
          "result": (serialize.encode_result, serialize.decode_result)}


def _documents():
    """A valid pencil of order 1, instance and result, as JSON documents; the CLI command that reads each."""
    truth, inst = tp.generate_instance(tp.GeneratorConfig(n=4, k=1, seed=2))
    order_one = tp.Pencil(tp.SymmetricTridiagonal((2.0, 1.5), (0.5,)), tp.HermitianTridiagonal((0.1, -0.3), (0.2j,)))
    return {"pencil": serialize.encode_pencil(order_one), "instance": serialize.encode_instance(inst),
            "result": serialize.encode_result(tp.solve(inst)), "truth": serialize.encode_pencil(truth)}


@pytest.mark.parametrize("kind,path,value", [
    ("pencil", ("n",), True), ("pencil", ("n",), 1.0), ("instance", ("n",), 4.0),
    ("result", ("imaginary_flags", 0, "wall_ratio_ok"), "no"),
    ("result", ("imaginary_flags", 0, "index"), "seven"),
    ("result", ("residual_lambda",), "0.5"), ("result", ("residual_lambda",), True),
    ("result", ("imaginary_flags", 1, "x"), "0.5"), ("result", ("imaginary_flags", 1, "x"), True),
    ("result", ("imaginary_flags", 2, "y"), "-0.25"), ("result", ("imaginary_flags", 2, "y"), False),
])
def test_a_field_of_the_wrong_json_type_is_a_schema_error(workdir, capsys, kind, path, value):
    """A boolean, string or float where the schema has a number, integer or boolean raises SchemaError naming
    the field, and the CLI command that reads the document exits 1; the valid documents round-trip bitwise."""
    docs = _documents()
    for name in CODECS:  # encode(decode(doc)) is the document, byte for byte
        encode, decode = CODECS[name]
        assert json.dumps(encode(decode(json.loads(json.dumps(docs[name]))))) == json.dumps(docs[name])
    doc = docs[kind]
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    field = f"imaginary_flags[{parents[1]}].{key}" if parents else key
    with pytest.raises(tp.SchemaError, match=rf"^{re.escape(field)} must be "):
        CODECS[kind][1](json.loads(json.dumps(doc)))
    for name, written in docs.items():
        serialize.save_json(workdir / f"{name}.json", written)
    command = {"pencil": ["direct", str(workdir / "pencil.json"), "--at", "0.5"],
               "instance": ["solve", str(workdir / "instance.json")],
               "result": ["verify", "--truth", str(workdir / "truth.json"), "--result", str(workdir / "result.json")]}
    capsys.readouterr()
    assert main(command[kind]) == 1
    assert field in capsys.readouterr().err


def test_result_with_no_entry_to_check_exits_1(workdir, capsys):
    # head_p of n entries puts the split at k = n, where no entry of H is left to compare
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "11", "--out", str(workdir)]) == 0
    assert main(["solve", str(workdir / "instance.json"), "--out", str(workdir / "result.json")]) == 0
    doc = json.loads((workdir / "result.json").read_text())
    doc["head_p"] += [[1.0, 0.0]] * 2
    (workdir / "result.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--truth", str(workdir / "truth.json"), "--result", str(workdir / "result.json")]) == 1
    assert "split index 3 out of range 1..2" in capsys.readouterr().err
