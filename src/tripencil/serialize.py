"""JSON serialization of the core value types.

Complex numbers are two-element arrays [re, im].  Plain ``json`` emits the
shortest float representation that parses back exactly, so save/load
round-trips are bitwise.  save_json writes one line and refuses NaN and
the infinities, which JSON does not hold.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import SchemaError
from .giep import GiepInstance, ImaginaryClassification, ReconstructionResult
from .oracle import VerificationReport
from .pencil import HermitianTridiagonal, Pencil, SymmetricTridiagonal

_KINDS = {int: "an integer", float: "a real number", bool: "true or false"}
_FLAG_FIELDS = (("index", int), ("x", float), ("y", float), ("wall_ratio_ok", bool))  # ImaginaryClassification's


def _cplx(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _cplx_list(xs) -> list[list[float]]:
    return [_cplx(z) for z in xs]


def _is_real(v: Any) -> bool:
    """A JSON number: int or float, and not a boolean, which Python counts as an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_cplx(doc: Any, name: str) -> complex:
    if not (isinstance(doc, (list, tuple)) and len(doc) == 2 and all(_is_real(v) for v in doc)):
        raise SchemaError(f"{name} must be a two-element [re, im] array")
    return complex(float(doc[0]), float(doc[1]))


def _parse_cplx_list(doc: Any, name: str) -> tuple[complex, ...]:
    if not isinstance(doc, list):
        raise SchemaError(f"{name} must be an array")
    return tuple(_parse_cplx(v, f"{name}[{i}]") for i, v in enumerate(doc))


def _parse_real_list(doc: Any, name: str) -> tuple[float, ...]:
    if not isinstance(doc, list) or not all(_is_real(v) for v in doc):
        raise SchemaError(f"{name} must be an array of numbers")
    return tuple(float(v) for v in doc)


def _field(doc: dict, key: str, kind: type, where: str = "") -> Any:
    """doc[key], of kind int, float or bool as JSON reads them: a boolean is no number, a float no integer.

    The SchemaError names the field as where + key.
    """
    value = _require(doc, key)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise SchemaError(f"{where}{key} must be {_KINDS[kind]}")
    return kind(value)


def _require(doc: dict, key: str) -> Any:
    if key not in doc:
        raise SchemaError(f"missing required field {key!r}")
    return doc[key]


def encode_pencil(pencil: Pencil) -> dict:
    return {
        "n": pencil.n,
        "c": list(pencil.J.c),
        "d": list(pencil.J.d),
        "a": list(pencil.H.a),
        "b": _cplx_list(pencil.H.b),
    }


def decode_pencil(doc: Any) -> Pencil:
    if not isinstance(doc, dict):
        raise SchemaError("pencil document must be a JSON object")
    n = _field(doc, "n", int)
    c = _parse_real_list(_require(doc, "c"), "c")
    d = _parse_real_list(_require(doc, "d"), "d")
    a = _parse_real_list(_require(doc, "a"), "a")
    b = _parse_cplx_list(_require(doc, "b"), "b")
    try:
        pencil = Pencil(SymmetricTridiagonal(c, d), HermitianTridiagonal(a, b))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if pencil.n != n:
        raise SchemaError(f"declared order n={n} does not match coefficient lengths")
    return pencil


def encode_instance(inst: GiepInstance) -> dict:
    return {
        "n": inst.n,
        "k": inst.k,
        "c": list(inst.J.c),
        "d": list(inst.J.d),
        "a": list(inst.head_a),
        "b": _cplx_list(inst.head_b),
        "lambda": inst.lam,
        "mu": inst.mu,
        "tail_p": _cplx_list(inst.tail_p),
        "tail_s": _cplx_list(inst.tail_s),
    }


def decode_instance(doc: Any) -> GiepInstance:
    """The instance a document holds; other keys, such as the diagnostic poles of older files, are not read."""
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    n = _field(doc, "n", int)
    k = _field(doc, "k", int)
    c = _parse_real_list(_require(doc, "c"), "c")
    d = _parse_real_list(_require(doc, "d"), "d")
    try:
        inst = GiepInstance(
            J=SymmetricTridiagonal(c, d),
            head_a=_parse_real_list(_require(doc, "a"), "a"),
            head_b=_parse_cplx_list(_require(doc, "b"), "b"),
            lam=_field(doc, "lambda", float),
            mu=_field(doc, "mu", float),
            tail_p=_parse_cplx_list(_require(doc, "tail_p"), "tail_p"),
            tail_s=_parse_cplx_list(_require(doc, "tail_s"), "tail_s"),
            k=k,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if inst.n != n:
        raise SchemaError(f"declared order n={n} does not match coefficient lengths")
    return inst


def encode_result(result: ReconstructionResult) -> dict:
    return {
        "k": result.k,
        "a": list(result.H.a),
        "b": _cplx_list(result.H.b),
        "head_p": _cplx_list(result.head_p),
        "head_s": _cplx_list(result.head_s),
        "deltas": _cplx_list(result.deltas),
        "residual_lambda": result.residual_lambda,
        "residual_mu": result.residual_mu,
        "imaginary_flags": [
            {"index": f.index, "x": f.x, "y": f.y, "wall_ratio_ok": f.wall_ratio_ok}
            for f in result.imaginary_flags
        ],
    }


def decode_result(doc: Any) -> ReconstructionResult:
    if not isinstance(doc, dict):
        raise SchemaError("result document must be a JSON object")
    flags = _require(doc, "imaginary_flags")
    if not (isinstance(flags, list) and all(isinstance(f, dict) for f in flags)):
        raise SchemaError("imaginary_flags must be an array of objects")
    try:
        return ReconstructionResult(
            H=HermitianTridiagonal(
                _parse_real_list(_require(doc, "a"), "a"),
                _parse_cplx_list(_require(doc, "b"), "b"),
            ),
            head_p=_parse_cplx_list(_require(doc, "head_p"), "head_p"),
            head_s=_parse_cplx_list(_require(doc, "head_s"), "head_s"),
            deltas=_parse_cplx_list(_require(doc, "deltas"), "deltas"),
            residual_lambda=_field(doc, "residual_lambda", float),
            residual_mu=_field(doc, "residual_mu", float),
            imaginary_flags=tuple(ImaginaryClassification(*(_field(f, key, kind, f"imaginary_flags[{i}].")
                                                            for key, kind in _FLAG_FIELDS))
                                  for i, f in enumerate(flags)),
        )
    except ValueError as exc:
        raise SchemaError(f"malformed result document: {exc}") from exc


def encode_report(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "entry_errors": dict(report.entry_errors),
        "residual_lambda": report.residual_lambda,
        "residual_mu": report.residual_mu,
        "delta_magnitudes": list(report.delta_magnitudes),
        "pipeline": report.pipeline,
    }


def save_json(path: str | Path, doc: dict) -> None:
    """Write doc as one line of JSON; ValueError, and no file written, where it holds NaN or an infinity.

    Without indent, json.dumps takes its C encoder, about twice as fast.
    """
    Path(path).write_text(json.dumps(doc, allow_nan=False) + "\n", encoding="utf-8")


def load_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
