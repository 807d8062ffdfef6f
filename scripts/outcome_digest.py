#!/usr/bin/env python3
"""One sha256 over what the public operations give on a fixed set of inputs: equal digests, equal outcomes.

    python scripts/outcome_digest.py --count 200

An outcome is the exact bytes of what an operation returns, or the class,
arguments and attributes of the library error or ValueError it raises.
The inputs:

- the acceptance corpus, seeds 0..count-1 (order 2 + seed % 9, split
  1 + 7 seed % (n - 1)): generate_instance, solve, verify of the result,
  the m-route (m_table, the components and reconstruct_from_m at 1.5 above
  the spectrum) with verify, the positivity witness and the trace
  identities, and at lam, mu, the m-route's point, a complex point and an
  eigenvalue of head(n // 2) the six one-point operations (m_table,
  resolvent_matrix, ldu_factors, trailing_inverse at n // 2,
  eigenvalue_margin, eigenvector_components) in order on one pencil and in
  reverse on another, and m_function at every index;
- the pencils and points of perfbench's direct workload at seed 1, the six
  one-point operations each way;
- pencil_eigenvalues on count pencils with an indefinite J, some of whose
  leading minors vanish, and on each scaled by 2^s, s in {-1000, -520, 520, 1000}.

Run it on two checkouts to compare them: each reads the src/ and perfbench/
next to the script.  It prints the digest and the number of outcomes.
"""

import argparse
import hashlib
import struct
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCALES = (-1000, -520, 520, 1000)


def encode(value) -> bytes:
    """Bytes that are equal only where the values are, bit for bit, in type, shape and every float."""
    if isinstance(value, np.ndarray):
        return b"A" + str(value.dtype).encode() + repr(value.shape).encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (bool, int, str, type(None))):
        return b"V" + repr(value).encode()
    if isinstance(value, (float, np.floating)):
        return b"F" + struct.pack("d", float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return b"C" + struct.pack("2d", value.real, value.imag)
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(encode(x) for x in value) + b")"
    if isinstance(value, dict):
        return b"{" + b",".join(encode(k) + b":" + encode(v) for k, v in sorted(value.items())) + b"}"
    if is_dataclass(value):
        return type(value).__name__.encode() + encode(tuple(getattr(value, f.name) for f in fields(value)))
    if hasattr(value, "items"):  # a read-only mapping
        return encode(dict(value.items()))
    raise TypeError(f"no encoding for {type(value).__name__}")


def outcome(tp, call) -> bytes:
    """The encoded outcome of call(): what it returns, or the class, arguments and attributes of what it raises."""
    try:
        value = call()
    except (tp.PencilError, ValueError) as exc:
        return b"E" + type(exc).__name__.encode() + encode((exc.args, dict(vars(exc))))
    return encode(value)


def one_point_operations(tp, pencil, z):
    n = pencil.n
    return [lambda: tp.m_table(pencil, z), lambda: tp.resolvent_matrix(pencil, z),
            lambda: tp.ldu_factors(pencil, z), lambda: tp.trailing_inverse(pencil, n // 2, z),
            lambda: tp.eigenvalue_margin(pencil, z), lambda: tp.eigenvector_components(pencil, z)]


def at_point(tp, pencil, z):
    """The six one-point operations in order on one fresh pencil, then in reverse on another."""
    calls = one_point_operations(tp, tp.Pencil(pencil.J, pencil.H), z)
    calls += one_point_operations(tp, tp.Pencil(pencil.J, pencil.H), z)[::-1]
    return calls


def corpus_calls(tp, seed):
    """The calls on corpus seed, in order; each later one may read what an earlier one gave."""
    n = 2 + seed % 9
    k = 1 + (seed * 7) % (n - 1)
    truth, inst = tp.generate_instance(tp.GeneratorConfig(n=n, k=k, seed=seed))
    result = tp.solve(inst)
    omega = float(np.max(tp.pencil_eigenvalues(truth).real)) + 1.5
    table = tp.m_table(truth, omega)
    pr, pl = tp.right_components(truth, omega), tp.left_components(truth, omega)
    sub = tp.pencil_eigenvalues(truth.head(n // 2))
    calls = [lambda: (truth, inst), lambda: result, lambda: tp.verify(truth, result),
             lambda: (table, pr, pl), lambda: tp.verify(truth, tp.reconstruct_from_m(truth.J, k, omega, table, pr,
                                                                                       pl, truth.H.b[k])),
             lambda: tp.positivity_witness(truth, k, inst.mu),
             lambda: tp.trace_identity_residuals(truth, k, inst.lam, inst.mu)]
    middle = complex(0.5 * (inst.lam + inst.mu), 0.5)
    for z in (inst.lam, inst.mu, omega, middle, float(sub[len(sub) // 2].real)):
        calls += at_point(tp, truth, z)
        calls += [lambda j=j, z=z: tp.m_function(truth, j, z) for j in range(n + 2)]
    return calls


def indefinite_pencils(tp, count):
    """count pencils whose J has entries of either sign, every fourth with its J rounded to integers."""
    pencils = []
    for seed in range(count):
        rng = np.random.default_rng([seed, 35])
        n = 2 + seed % 9
        c, d = rng.uniform(-2.0, 2.0, n + 1), rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        if seed % 4 == 3:  # exact cancellations: some leading minors are exactly zero
            c, d = np.round(c), np.sign(d)
        a, b = rng.uniform(-1.0, 1.0, n + 1), rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(0.2, 1.0, n)
        pencils.append((c, d, a, b))
    return [tp.Pencil(tp.SymmetricTridiagonal(tuple(c * 2.0 ** s), tuple(d * 2.0 ** s)),
                      tp.HermitianTridiagonal(tuple(a * 2.0 ** s), tuple(b * 2.0 ** s)))
            for c, d, a, b in pencils for s in (0, *SCALES)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="corpus seeds and indefinite pencils (default 200)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import tripencil as tp
    import workloads

    digest, outcomes = hashlib.sha256(), 0

    def add(call):
        nonlocal outcomes
        digest.update(outcome(tp, call))
        outcomes += 1

    for seed in range(args.count):
        calls = []
        add(lambda: calls.extend(corpus_calls(tp, seed)))  # the error of a draw that fails, else nothing
        for call in calls:
            add(call)
    for case in workloads.direct_inputs(1):
        pencil = workloads.to_pencil(tp, case.coeffs)
        for _, z in case.points:
            for call in at_point(tp, pencil, z):
                add(call)
    with np.errstate(over="ignore"):
        for pencil in indefinite_pencils(tp, args.count):
            add(lambda pencil=pencil: tp.pencil_eigenvalues(pencil))
    print(f"sha256 {digest.hexdigest()}  outcomes {outcomes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
