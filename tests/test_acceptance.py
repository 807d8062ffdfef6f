"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the corpus of seeded instances is generated once per session.
"""

import json
import time

import numpy as np
import pytest

import tripencil as tp
from tripencil import serialize
from tripencil.cli import main as cli_main
from support import build_pencil, corpus_shape, extreme_pair, rel_err


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def corpus():
    items = []
    start = time.perf_counter()
    for seed in range(200):
        n, k = corpus_shape(seed)
        cfg = tp.GeneratorConfig(n=n, k=k, seed=seed, min_im_ratio=0.1)
        items.append(tp.generate_instance(cfg))
    elapsed = time.perf_counter() - start
    return items, elapsed


@pytest.fixture(scope="module")
def solved(corpus):
    items, _ = corpus
    return [tp.solve(inst) for _, inst in items]


def test_criterion_1_round_trip(corpus, solved):
    items, gen_time = corpus
    start = time.perf_counter()
    for _, inst in items:
        tp.solve(inst)
    solve_time = time.perf_counter() - start
    worst_entry = 0.0
    worst_residual = 0.0
    for (truth, inst), result in zip(items, solved):
        k, n = inst.k, inst.n
        for j in range(k, n):
            worst_entry = max(worst_entry, rel_err(result.H.b[j], truth.H.b[j]))
        for j in range(k + 1, n + 1):
            worst_entry = max(worst_entry, rel_err(result.H.a[j], truth.H.a[j]))
        worst_residual = max(worst_residual, result.residual_lambda, result.residual_mu)
    ok = worst_entry <= 1e-8 and worst_residual <= 1e-7 and (gen_time + solve_time) <= 10.0
    report(1, "eigenpair round-trip over 200 seeded instances", ok,
           f"max entry err {worst_entry:.2e}, max residual {worst_residual:.2e}, "
           f"generate {gen_time:.2f}s + solve {solve_time:.2f}s")


def test_criterion_2_closed_form_agreement(corpus, solved):
    items, _ = corpus
    worst_b = 0.0
    worst_conj = 0.0
    for (truth, inst), result in zip(items, solved):
        for system in tp.pair_systems(inst, inst.tail_p, inst.tail_s):
            u, v = system.solve()
            closed, closed_conj = system.closed_form()
            worst_b = max(worst_b, abs(closed - u) / (1 + abs(u)))
            worst_conj = max(worst_conj, abs(closed_conj - v) / (1 + abs(v)))
    ok = worst_b <= 1e-9 and worst_conj <= 1e-9
    report(2, "2x2 solve agrees with closed forms for b and conjugate", ok,
           f"max b err {worst_b:.2e}, max conj err {worst_conj:.2e}")


def test_criterion_3_m_function_route(corpus, solved):
    items, _ = corpus
    worst_truth = 0.0
    worst_cross = 0.0
    for idx in range(100):
        truth, inst = items[idx]
        result = solved[idx]
        k, n = inst.k, inst.n
        eigs = tp.pencil_eigenvalues(truth)
        omega = float(np.max(eigs.real) + 1.5 + 0.01 * (idx % 37))
        table = tp.m_table(truth, omega)
        pr = tp.right_components(truth, omega)
        pl = tp.left_components(truth, omega)
        entries = tp.reconstruct_from_m(truth.J, k, omega, table, pr, pl, truth.H.b[k])
        for j in range(k + 1, n):
            worst_truth = max(worst_truth, rel_err(entries.b_at(j), truth.H.b[j]))
            worst_cross = max(worst_cross, abs(entries.b_at(j) - result.H.b[j]) / (1 + abs(result.H.b[j])))
        for j in range(k + 1, n + 1):
            worst_truth = max(worst_truth, rel_err(entries.a_at(j), truth.H.a[j]))
            worst_cross = max(worst_cross, abs(entries.a_at(j) - result.H.a[j]) / (1 + abs(result.H.a[j])))
    ok = worst_truth <= 1e-8 and worst_cross <= 1e-7
    report(3, "m-function route matches truth and the eigenpair route", ok,
           f"max truth err {worst_truth:.2e}, max cross err {worst_cross:.2e}")


def test_criterion_4_resolvent_identities():
    rng = np.random.default_rng(424242)
    worst_inverse = 0.0
    worst_factor = 0.0
    worst_trailing = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 8))
        pencil = build_pencil(rng, n)
        if trial % 2 == 0:
            lam, _ = extreme_pair(pencil)
            omega = complex(lam + 1.0 + rng.uniform(0.2, 1.5), 0.0)
        else:
            omega = complex(rng.uniform(-1, 1), (0.5 + rng.uniform(0, 1)) * rng.choice([-1, 1]))
        R = tp.resolvent_matrix(pencil, omega)
        eye = np.eye(n + 1)
        worst_inverse = max(worst_inverse, float(np.abs(pencil.dense_at(omega) @ R - eye).max()))
        factors = tp.ldu_factors(pencil, omega)
        worst_factor = max(worst_factor, float(np.abs(factors.product() - R).max()))
        for k in range(1, n):
            T = tp.trailing_inverse(pencil, k, omega)
            block = R[k + 1:, k + 1:]
            worst_trailing = max(worst_trailing,
                                 float(np.abs(T @ block - np.eye(n - k)).max()))
    ok = worst_inverse <= 1e-8 and worst_factor <= 1e-9 and worst_trailing <= 1e-8
    report(4, "resolvent inverse, staircase factorization, trailing inverse", ok,
           f"inverse {worst_inverse:.2e}, factorization {worst_factor:.2e}, "
           f"trailing {worst_trailing:.2e}")


def test_criterion_5_structural_identities():
    rng = np.random.default_rng(515151)
    worst_lo = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 7))
        pencil = build_pencil(rng, n)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for m in range(n + 1):
                worst_lo = max(worst_lo, tp.liouville_ostrogradsky_residual(pencil, m, z))
    worst_trace = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 8))
        pencil = build_pencil(rng, n)
        lam, mu = extreme_pair(pencil)
        for k in range(1, n):
            r1, r2 = tp.trace_identity_residuals(pencil, k, lam, mu)
            worst_trace = max(worst_trace, r1, r2)
    worst_det = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 8))
        pencil = build_pencil(rng, n)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dense = np.linalg.det(pencil.dense_at(z))
        worst_det = max(worst_det, abs(tp.eval_p(pencil, n + 1, z) - dense) / (1 + abs(dense)))
    ok = worst_lo <= 1e-9 and worst_trace <= 1e-9 and worst_det <= 1e-9
    report(5, "Wronskian identity, trace identities, determinant agreement", ok,
           f"wronskian {worst_lo:.2e}, trace {worst_trace:.2e}, det {worst_det:.2e}")


def test_criterion_6_negative_controls():
    rng = np.random.default_rng(616161)
    failures = []
    for case in range(20):
        n = 3 + case % 6
        k = 1 + case % (n - 1)
        j0 = k + case % (n - k)
        truth = build_pencil(rng, n, real_b_at=(j0,))
        lam, mu = extreme_pair(truth)
        inst = tp.instance_from_truth(truth, k, lam, mu)
        t = j0 - k
        system = tp.PairSystem(j0, truth.J.d[j0], lam, mu,
                               inst.tail_p[t].conjugate() * inst.tail_p[t + 1],
                               inst.tail_s[t].conjugate() * inst.tail_s[t + 1])
        det, scale = system.det, system.scale
        if abs(det) > 1e-10 * (scale + 1.0):
            failures.append(f"case {case}: |Delta_{j0}| = {abs(det):.2e} not vanishing")
            continue
        try:
            tp.solve(inst)
            failures.append(f"case {case}: solve did not raise")
        except tp.SingularDeltaError as exc:
            if exc.index != j0:
                failures.append(f"case {case}: raised at {exc.index}, expected {j0}")
        except tp.PencilError as exc:
            failures.append(f"case {case}: unexpected {type(exc).__name__}: {exc}")
    report(6, "real pole ratios force vanishing Delta and SingularDelta", not failures,
           "; ".join(failures) if failures else "20/20 detected")


def test_criterion_7_imaginary_classification():
    rng = np.random.default_rng(717171)
    worst_x = 0.0
    worst_y = 0.0
    all_flagged = True
    for case in range(20):
        n = 2 + case % 7
        k = 1 + case % (n - 1)
        truth = build_pencil(rng, n, pure_imag=True)
        lam, mu = extreme_pair(truth)
        inst = tp.instance_from_truth(truth, k, lam, mu)
        for system in tp.pair_systems(inst, inst.tail_p, inst.tail_s):
            rec = system.classify()
            b_j = truth.H.b[rec.index]
            worst_x = max(worst_x, abs(rec.x) / abs(rec.y))
            worst_y = max(worst_y, abs(rec.y - b_j.imag) / (1 + abs(b_j.imag)))
            all_flagged = all_flagged and rec.wall_ratio_ok
    ok = worst_x <= 1e-8 and worst_y <= 1e-9 and all_flagged
    report(7, "purely imaginary entries classified with eigenvalue-ratio flag", ok,
           f"max |x|/|y| {worst_x:.2e}, max y err {worst_y:.2e}, all flagged {all_flagged}")


def test_criterion_8_positivity_witness():
    rng = np.random.default_rng(818181)
    worst_match = 0.0
    all_positive = True
    for case in range(20):
        n = 3 + case % 5
        truth = build_pencil(rng, n)
        k = 1 + case % (n - 1)
        eigs = tp.pencil_eigenvalues(truth)
        mu = float(eigs[case % (n + 1)].real)
        witness = tp.positivity_witness(truth, k, mu)
        s = tp.right_components(truth, mu)[:k + 1]
        dense = float(np.real(np.conj(s) @ truth.J.block(0, k) @ s))
        all_positive = all_positive and witness > 0
        worst_match = max(worst_match, abs(witness - dense) / abs(dense))
    ok = all_positive and worst_match <= 1e-8
    report(8, "positivity witness is positive, real and matches the dense form", ok,
           f"all positive {all_positive}, max mismatch {worst_match:.2e}")


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    rc_gen = cli_main(["generate", "--n", "5", "--k", "2", "--seed", "41",
                       "--out", str(out)])
    rc_solve = cli_main(["solve", str(out / "instance.json"),
                         "--out", str(out / "result.json")])
    rc_verify = cli_main(["verify", "--truth", str(out / "truth.json"),
                          "--result", str(out / "result.json")])
    chain_ok = rc_gen == 0 and rc_solve == 0 and rc_verify == 0

    rng = np.random.default_rng(919191)
    truth = build_pencil(rng, 4, real_b_at=(2,))
    lam, mu = extreme_pair(truth)
    bad = tp.instance_from_truth(truth, 1, lam, mu)
    serialize.save_json(tmp_path / "bad.json", serialize.encode_instance(bad))
    capsys.readouterr()
    rc_bad = cli_main(["solve", str(tmp_path / "bad.json")])
    stderr = capsys.readouterr().err
    corrupt_ok = rc_bad == 2 and "Delta" in stderr and "2" in stderr

    pencil = build_pencil(rng, 5)
    doc = json.loads(json.dumps(serialize.encode_pencil(pencil)))
    inst_doc = json.loads(json.dumps(serialize.encode_instance(bad)))
    round_trip_ok = (serialize.decode_pencil(doc) == pencil
                     and serialize.decode_instance(inst_doc) == bad)

    ok = chain_ok and corrupt_ok and round_trip_ok
    report(9, "CLI chain exits 0, corrupted instance exits 2, bitwise round-trip", ok,
           f"chain {chain_ok}, corrupt {corrupt_ok}, round-trip {round_trip_ok}")
