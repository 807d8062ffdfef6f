"""The three workloads: seeded inputs, one rotation of operations, and their checks.

A workload is built in two steps.  ``*_inputs`` draws and admits inputs and
computes every dense reference without touching ``tripencil``; ``build``
then wraps each admitted input as an ``Op`` whose ``call`` goes through the
library's public API and whose ``check`` compares the output with the
reference.  A run repeats the rotation; the inputs never change within a
run, and the library receives nothing but them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

# pencils per order: the n=40 majority puts the median on one order, so it
# does not jump between orders from seed to seed
DIRECT_PENCILS = {40: 4, 160: 1, 640: 1}
DIRECT_OPS = ("m_table", "resolvent_matrix", "ldu_factors", "trailing_inverse")
# A direct call that runs longer than this is failed as "timeout".  In
# tripencil 0.1.0 an n=640 call spends 3-15 s in the O(n^3) spectrum guard
# before it fails; the limit keeps one rotation inside a run.  It sits between the
# n=160 calls (about 1 s) and the n=640 ones.
DIRECT_LIMIT_S = 2.0

SWEEP_ORDERS = (160, 640)
SWEEP_OPS = ("pq_sweep", "right_components", "left_components", "right_components_with_derivative")

# 40 draws at each order n = 2..10.  Every fifth also runs the CLI: with that
# share the p90 falls inside the CLI draws instead of on the edge between them
# and the in-process ones.
ROUNDTRIP_DRAWS = 360
ROUNDTRIP_CLI_EVERY = 5
# One fixed n=40 draw per rotation keeps the generator's large-order failure
# in view.  It is not seeded by the run: its cost in 0.1.0 (up to ~4 s,
# bimodal between success and the 100-attempt budget) would otherwise swamp
# the run-to-run spread of the small draws.
ROUNDTRIP_CANARY = (40, 20, 0)


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    cleanup: Callable[[], None] = field(default=lambda: None)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    limit_s: float | None = None


# ---------------------------------------------------------------- direct

@dataclass(frozen=True)
class DirectCase:
    coeffs: ref.Coeffs
    points: tuple[tuple[str, complex], ...]
    refs: tuple[ref.DirectRef, ...]


def direct_inputs(seed: int) -> list[DirectCase]:
    cases = []
    for n, count in DIRECT_PENCILS.items():
        for i in range(count):
            cases.append(_direct_case(seed, n, i))
    return cases


def _direct_case(seed: int, n: int, index: int) -> DirectCase:
    """Real points 1.5 outside each end of the spectrum, a complex one mid-band."""
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, 1, n, index, attempt])
        attempt += 1
        p = ref.draw_pencil(rng, n)
        if not ref.admissible_pencil(p):
            continue
        eigs = p.eigenvalues()
        points = (("above", complex(eigs[-1] + 1.5)),
                  ("below", complex(eigs[0] - 1.5)),
                  ("band", complex(0.5 * (eigs[0] + eigs[-1]), 0.5)))
        if min(ref.pole_margin(p, z) for _, z in points) < 1e-6:
            continue
        refs = tuple(ref.direct_reference(p, z, n // 2) for _, z in points)
        if all(r.resolves() for r in refs):
            return DirectCase(p, points, refs)


def _direct_check(kind: str, r: ref.DirectRef) -> Callable[[Any], "str | None"]:
    if kind == "m_table":
        def check(out):
            if not ref.finite(np.asarray(out.values, dtype=complex)):
                return "non_finite"
            return ref.check_scalar(out.top, r.X[0, 0], r.floor_X)
    elif kind == "resolvent_matrix":
        def check(out):
            return ref.check_entries(out, r.X, r.floor_X)
    elif kind == "ldu_factors":
        def check(out):
            return ref.check_entries(out.product(), r.X, r.floor_X)
    else:
        def check(out):
            return ref.check_entries(out, r.T, r.floor_T)
    return check


def build_direct(tp, seed: int) -> Workload:
    """One rotation: the 12 calls of each pencil, taken round-robin over the pencils.

    Interleaving spreads the cheap n=40 calls, which carry the median, over
    the whole rotation instead of one short stretch of it.
    """
    per_pencil = []
    for case in direct_inputs(seed):
        pencil = to_pencil(tp, case.coeffs)
        n = case.coeffs.n
        ops = []
        for (where, z), r in zip(case.points, case.refs):
            for kind in DIRECT_OPS:
                args = (pencil, n // 2, z) if kind == "trailing_inverse" else (pencil, z)
                ops.append(Op(f"{kind}/n{n}/{where}", _call(tp, kind, *args), _direct_check(kind, r)))
        per_pencil.append(ops)
    return Workload("direct", [op for group in zip(*per_pencil) for op in group], DIRECT_LIMIT_S)


# ---------------------------------------------------------------- sweep

SWEEP_POINTS = (("eig", 6), ("gap", 3), ("outside", 2), ("complex", 5))


@dataclass(frozen=True)
class SweepPoint:
    kind: str
    z: complex
    upto: int                  # pq_sweep order: n+1, or less where P/Q would overflow
    minors: tuple[dict, dict]


def _candidate(kind: str, eigs: np.ndarray, rng: np.random.Generator, first: bool) -> complex:
    if kind == "eig":
        return complex(eigs[rng.choice((0, len(eigs) - 1)) if first else rng.integers(len(eigs))])
    if kind == "gap":
        i = rng.integers(len(eigs) - 1)
        return complex(0.5 * (eigs[i] + eigs[i + 1]))
    if kind == "outside":
        off = rng.uniform(0.1, 1.5)
        return complex(eigs[-1] + off if rng.random() < 0.5 else eigs[0] - off)
    return complex(rng.uniform(eigs[0], eigs[-1]), rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0))


def components_admitted(p: ref.Coeffs, z: complex) -> bool:
    """Whether the exact component sequences at z (and the derivatives) are representable."""
    return (ref.pole_margin(p, z) >= 1e-6
            and ref.representable(ref.log10_components(p, z), slack=ref.DERIVATIVE_SLACK)
            and ref.representable(ref.log10_components(p, z, conjugate_b=True)))


def pq_order(p: ref.Coeffs, z: complex) -> int:
    """The largest order m <= n+1 with every P_j and Q_j, j <= m, representable."""
    logs_p = ref.log10_minors(p, z)
    logs_q = np.concatenate([[0.0], ref.log10_minors(p, z, shift=1)])
    ok = (np.abs(logs_p) < ref.LOG10_RANGE) & (np.abs(logs_q) < ref.LOG10_RANGE)
    return int(np.argmin(ok)) - 1 if not ok.all() else p.n + 1


def sweep_inputs(seed: int) -> list[tuple[ref.Coeffs, list[SweepPoint]]]:
    """16 points per pencil, each redrawn within its kind until its outputs are representable."""
    cases = []
    for n in SWEEP_ORDERS:
        attempt = 0
        while True:
            rng = np.random.default_rng([seed, 2, n, attempt])
            attempt += 1
            p = ref.draw_pencil(rng, n)
            if ref.admissible_pencil(p):
                break
        eigs = p.eigenvalues()
        points = []
        for kind, count in SWEEP_POINTS:
            for i in range(count):
                z = _candidate(kind, eigs, rng, first=i < 2)
                while not components_admitted(p, z):
                    z = _candidate(kind, eigs, rng, first=False)
                upto = pq_order(p, z)
                points.append(SweepPoint(kind, z, upto, ref.minors_reference(p, z, upto)))
        cases.append((p, points))
    return cases


def build_sweep(tp, seed: int) -> Workload:
    ops = []
    for p, points in sweep_inputs(seed):
        pencil = to_pencil(tp, p)
        n = p.n
        for kind in SWEEP_OPS:
            for pt in points:
                label, z = f"{kind}/n{n}/{pt.kind}", pt.z
                if kind == "pq_sweep":
                    call = _call(tp.recurrence, kind, pencil, pt.upto, z)
                    check = (lambda out, pt=pt: ref.check_minors(out[0], out[1], pt.minors, pt.upto))
                elif kind == "right_components_with_derivative":
                    call = _call(tp, kind, pencil, z)
                    check = (lambda out, p=p, z=z: ref.check_derivative(p, z, out[0], out[1]))
                else:
                    call = _call(tp, kind, pencil, z)
                    left = kind == "left_components"
                    check = (lambda out, p=p, z=z, left=left: ref.check_components(p, z, out, left))
                ops.append(Op(label, call, check))
    return Workload("sweep", ops)


# ---------------------------------------------------------------- roundtrip

def roundtrip_inputs(seed: int) -> list[tuple[int, int, int, bool]]:
    """(n, k, generator seed, through the CLI) per draw, in the acceptance-corpus shape."""
    draws = []
    for i in range(ROUNDTRIP_DRAWS):
        s = int(np.random.default_rng([seed, 3, i]).integers(0, 2**31))
        n = 2 + i % 9
        draws.append((n, 1 + (7 * s) % (n - 1), s, i % ROUNDTRIP_CLI_EVERY == 0))
    draws.insert(ROUNDTRIP_DRAWS // 2, (*ROUNDTRIP_CANARY, False))
    return draws


def _coeffs_of(pencil) -> ref.Coeffs:
    return ref.Coeffs(np.asarray(pencil.J.c), np.asarray(pencil.J.d),
                      np.asarray(pencil.H.a), np.asarray(pencil.H.b, dtype=complex))


def roundtrip_check(tp, n: int, k: int, out) -> str | None:
    """Entry errors and residuals against the generated truth, acceptance-suite bounds."""
    truth, inst, result, entries, report, cli = out
    p = _coeffs_of(truth)
    if p.n != n or inst.k != k:
        return "wrong_shape"
    eigs = p.eigenvalues()
    if abs(inst.lam - eigs[-1]) > ref.EIGENVALUE_RTOL * (1.0 + abs(eigs[-1])) \
            or abs(inst.mu - eigs[0]) > ref.EIGENVALUE_RTOL * (1.0 + abs(eigs[0])):
        return "out_of_tolerance"
    errs = [ref.rel_err(result.H.b[j], p.b[j]) for j in range(k, n)]
    errs += [ref.rel_err(result.H.a[j], p.a[j]) for j in range(k + 1, n + 1)]
    errs += [ref.rel_err(entries.b_at(j), p.b[j]) for j in range(k + 1, n)]
    errs += [ref.rel_err(entries.a_at(j), p.a[j]) for j in range(k + 1, n + 1)]
    p_full = np.concatenate([np.asarray(result.head_p, dtype=complex), np.asarray(inst.tail_p, dtype=complex)])
    s_full = np.concatenate([np.asarray(result.head_s, dtype=complex), np.asarray(inst.tail_s, dtype=complex)])
    res = max(ref.relative_residual(p.dense_at(inst.lam), p_full),
              ref.relative_residual(p.dense_at(inst.mu), s_full))
    if not (np.all(np.isfinite(errs)) and np.isfinite(res)):
        return "non_finite"
    if max(errs) > ref.ACCEPT_ENTRY_TOL or res > ref.ACCEPT_RESIDUAL_TOL:
        return "out_of_tolerance"
    if not report.passed:
        return "verify_rejected"
    if cli is not None:
        codes, where = cli
        if any(codes):
            return "cli_exit_nonzero"
        written = json.loads((where / "result.json").read_text())
        if written != json.loads(json.dumps(tp.serialize.encode_result(result))):
            return "cli_mismatch"
    return None


def _run_cli(tp, n: int, k: int, s: int, where: Path) -> tuple[tuple[int, ...], Path]:
    """generate, solve and verify through cli.main in-process; the exit codes and the directory."""
    where.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = (tp.cli.main(["generate", "--n", str(n), "--k", str(k), "--seed", str(s), "--out", str(where)]),
                 tp.cli.main(["solve", str(where / "instance.json"), "--out", str(where / "result.json")]),
                 tp.cli.main(["verify", "--truth", str(where / "truth.json"),
                              "--result", str(where / "result.json")]))
    return codes, where


def _roundtrip(tp, n: int, k: int, s: int, where: Path | None):
    truth, inst = tp.generate_instance(tp.GeneratorConfig(n=n, k=k, seed=s))
    result = tp.solve(inst)
    omega = float(np.max(tp.pencil_eigenvalues(truth).real)) + 1.5
    table = tp.m_table(truth, omega)
    pr = tp.right_components(truth, omega)
    pl = tp.left_components(truth, omega)
    entries = tp.reconstruct_from_m(truth.J, k, omega, table, pr, pl, truth.H.b[k])
    report = tp.verify(truth, result)
    cli = _run_cli(tp, n, k, s, where) if where is not None else None
    return truth, inst, result, entries, report, cli


def build_roundtrip(tp, seed: int, workdir: Path) -> Workload:
    ops = []
    for i, (n, k, s, via_cli) in enumerate(roundtrip_inputs(seed)):
        where = workdir / f"cli-{i}" if via_cli else None
        ops.append(Op(f"roundtrip/n{n}" + ("/cli" if via_cli else ""),
                      lambda n=n, k=k, s=s, where=where: _roundtrip(tp, n, k, s, where),
                      lambda out, n=n, k=k: roundtrip_check(tp, n, k, out),
                      (lambda where=where: shutil.rmtree(where, ignore_errors=True)) if via_cli else (lambda: None)))
    return Workload("roundtrip", ops)


# ---------------------------------------------------------------- common

def _call(module, name: str, *args) -> Callable[[], Any]:
    """A call resolved by name when it runs, so a traced run sees rebound functions."""
    return lambda: getattr(module, name)(*args)


def to_pencil(tp, p: ref.Coeffs):
    return tp.Pencil(tp.SymmetricTridiagonal(tuple(p.c), tuple(p.d)),
                     tp.HermitianTridiagonal(tuple(p.a), tuple(p.b)))


WORKLOADS = ("direct", "sweep", "roundtrip")


def build(tp, name: str, seed: int, workdir: Path) -> Workload:
    if name == "direct":
        return build_direct(tp, seed)
    if name == "sweep":
        return build_sweep(tp, seed)
    if name == "roundtrip":
        return build_roundtrip(tp, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
