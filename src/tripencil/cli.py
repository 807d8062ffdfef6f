"""Command-line front end.

Subcommands: direct (recurrence values at a point), solve (reconstruction
from an instance file), mfun (m-function table, factorization, trailing
inverse, optional reconstruction), generate (seeded truth/instance pair),
verify (reconstruction against truth).

Exit codes: 0 success, 1 I/O or schema error, or a value that double
precision cannot hold, 2 mathematical precondition failure, 3 verification
failed.  No subcommand writes NaN or Infinity.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path


from . import giep, mfunctions, oracle, serialize
from .errors import MathPreconditionError, PencilError, SchemaError
from .recurrence import left_components, pq_sweep, right_components

EXIT_OK = 0
EXIT_IO = 1
EXIT_MATH = 2
EXIT_VERIFY = 3


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse point {text!r}; expected RE or RE,IM")


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, allow_nan=False))
        return
    for key, val in doc.items():
        print(f"{key}: {val}")


def _cmd_direct(args) -> int:
    pencil = serialize.decode_pencil(serialize.load_json(args.pencil))
    n = pencil.n
    out: dict = {"n": n}
    if args.spectrum:
        eigs = oracle.pencil_eigenvalues(pencil)
        out["eigenvalues"] = [[z.real, z.imag] for z in eigs]
    if args.at is not None:
        z = _parse_point(args.at)
        table = mfunctions.m_table(pencil, z)  # a spectrum point exits 2 before an overflow exits 1
        P, Q = pq_sweep(pencil, n + 1, z)
        pr = right_components(pencil, z)
        pl = left_components(pencil, z)
        out["z"] = [z.real, z.imag]
        if args.all:
            out["P"] = [[v.real, v.imag] for v in P]
            out["Q"] = [[v.real, v.imag] for v in Q]
            out["m"] = [[v.real, v.imag] for v in table.values]
        else:
            out["P"] = [P[n + 1].real, P[n + 1].imag]
            out["Q"] = [Q[n + 1].real, Q[n + 1].imag]
        out["S"] = [table.top.real, table.top.imag]
        out["right_components"] = [[v.real, v.imag] for v in pr]
        out["left_components"] = [[v.real, v.imag] for v in pl]
    _emit(out, args.json)
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = serialize.decode_instance(serialize.load_json(args.instance))
    result = giep.solve(inst)
    doc = serialize.encode_result(result)
    if args.out:
        serialize.save_json(args.out, doc)
    summary = {
        "k": result.k,
        "residual_lambda": result.residual_lambda,
        "residual_mu": result.residual_mu,
        "min_abs_delta": min(abs(x) for x in result.deltas),
    }
    _emit(doc if args.json else summary, args.json)
    return EXIT_OK


def _cmd_mfun(args) -> int:
    pencil = serialize.decode_pencil(serialize.load_json(args.pencil))
    omega = _parse_point(args.omega)
    k = args.k
    table = mfunctions.m_table(pencil, omega)
    trailing = mfunctions.trailing_inverse(pencil, k, omega)
    out: dict = {
        "omega": [omega.real, omega.imag],
        "k": k,
        "m": [[v.real, v.imag] for v in table.values],
        "diag": [[v.real, v.imag] for v in table.diffs],
        "trailing_inverse": [[[v.real, v.imag] for v in row] for row in trailing],
    }
    if args.reconstruct:
        pr = right_components(pencil, omega)
        pl = left_components(pencil, omega)
        entries = mfunctions.reconstruct_from_m(
            pencil.J, k, omega, table, pr, pl, pencil.H.b[k])
        out["reconstructed_b"] = [[v.real, v.imag] for v in entries.b]
        out["reconstructed_a"] = list(entries.a)
        out["truth_b"] = [[v.real, v.imag] for v in pencil.H.b[k + 1:pencil.n]]
        out["truth_a"] = list(pencil.H.a[k + 1:])
    _emit(out, args.json)
    return EXIT_OK


def _cmd_generate(args) -> int:
    config = oracle.GeneratorConfig(
        n=args.n, k=args.k, seed=args.seed, min_im_ratio=args.min_im_ratio)
    truth, inst = oracle.generate_instance(config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    serialize.save_json(outdir / "truth.json", serialize.encode_pencil(truth))
    serialize.save_json(outdir / "instance.json", serialize.encode_instance(inst))
    _emit({"truth": str(outdir / "truth.json"),
           "instance": str(outdir / "instance.json")}, args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    truth = serialize.decode_pencil(serialize.load_json(args.truth))
    result = serialize.decode_result(serialize.load_json(args.result))
    report = oracle.verify(truth, result)
    print(json.dumps(serialize.encode_report(report), indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripencil",
        description="Tridiagonal pencil recurrences, m-functions and inverse reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_direct = sub.add_parser("direct", help="recurrence values at a point")
    p_direct.add_argument("pencil")
    p_direct.add_argument("--at", help="evaluation point RE or RE,IM")
    p_direct.add_argument("--all", action="store_true", help="print every recurrence index")
    p_direct.add_argument("--spectrum", action="store_true", help="print pencil eigenvalues")
    p_direct.add_argument("--json", action="store_true")
    p_direct.set_defaults(func=_cmd_direct)

    p_solve = sub.add_parser("solve", help="reconstruct H from an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--out", help="write the reconstruction result JSON here")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_mfun = sub.add_parser("mfun", help="m-function table, factorization, trailing inverse")
    p_mfun.add_argument("pencil")
    p_mfun.add_argument("--omega", required=True, help="resolvent point RE,IM")
    p_mfun.add_argument("--k", type=int, required=True, help="trailing split index")
    p_mfun.add_argument("--reconstruct", action="store_true",
                        help="also reconstruct the trailing entries from the table")
    p_mfun.add_argument("--json", action="store_true")
    p_mfun.set_defaults(func=_cmd_mfun)

    p_gen = sub.add_parser("generate", help="write a seeded truth/instance pair")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--min-im-ratio", type=float, default=0.1)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(func=_cmd_generate)

    p_verify = sub.add_parser("verify", help="compare a result against its truth")
    p_verify.add_argument("--truth", required=True)
    p_verify.add_argument("--result", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads: built once, as each parse starts from a new namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MathPreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_MATH
    except PencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
