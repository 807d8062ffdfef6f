"""The correctness gate: wrong outputs and raised preconditions count as failed."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

import harness
import reference as ref
import workloads
from conftest import BENCH
from workloads import Op


def perturbed(x, index, rel=1e-6):
    y = np.array(x, dtype=complex, copy=True)
    y[index] *= 1.0 + rel
    return y


@pytest.fixture(scope="module")
def direct_case():
    rng = np.random.default_rng(7)
    p = ref.draw_pencil(rng, 40)
    eigs = p.eigenvalues()
    z = complex(rng.uniform(eigs[0], eigs[-1]), 0.5)
    return p, z, ref.direct_reference(p, z, 20)


def significant_entries(x, count=5, seed=0):
    """The largest entry and a few random entries within 1e-2 of it."""
    mags = np.abs(x)
    idx = np.argwhere(mags >= 1e-2 * mags.max())
    pick = np.random.default_rng(seed).choice(len(idx), size=min(count, len(idx)), replace=False)
    return [np.unravel_index(np.argmax(mags), x.shape)] + [tuple(idx[i]) for i in pick]


def test_dense_references_pass_and_perturbed_entries_fail(direct_case):
    _, _, r = direct_case
    assert r.resolves()
    assert ref.check_entries(r.X, r.X, r.floor_X) is None
    assert ref.check_entries(r.T, r.T, r.floor_T) is None
    for index in significant_entries(r.X):
        assert ref.check_entries(perturbed(r.X, index), r.X, r.floor_X) == "out_of_tolerance"
    for index in significant_entries(r.T):
        assert ref.check_entries(perturbed(r.T, index), r.T, r.floor_T) == "out_of_tolerance"


def test_library_resolvent_passes_and_its_perturbation_fails(tp, direct_case):
    p, z, r = direct_case
    pencil = workloads.to_pencil(tp, p)
    check_r = workloads._direct_check("resolvent_matrix", r)
    R = tp.resolvent_matrix(pencil, z)
    assert check_r(R) is None
    assert check_r(perturbed(R, significant_entries(r.X)[0])) == "out_of_tolerance"
    assert check_r(np.where(np.eye(len(R)) > 0, np.nan, R)) == "non_finite"

    check_m = workloads._direct_check("m_table", r)
    table = tp.m_table(pencil, z)
    assert check_m(table) is None
    bad = tp.MFunctionTable(table.omega, table.values[:-1] + (table.top * (1 + 1e-6),), table.diffs)
    assert check_m(bad) == "out_of_tolerance"


def test_sweep_checks_catch_one_perturbed_entry(tp):
    rng = np.random.default_rng(11)
    p = ref.draw_pencil(rng, 160)
    pencil = workloads.to_pencil(tp, p)
    z = complex(0.3, 0.2)
    m = p.n // 2
    right = tp.right_components(pencil, z)
    assert ref.check_components(p, z, right, False) is None
    assert ref.check_components(p, z, perturbed(right, m), False) == "out_of_tolerance"
    left = tp.left_components(pencil, z)
    assert ref.check_components(p, z, left, True) is None
    assert ref.check_components(p, z, perturbed(left, m), True) == "out_of_tolerance"
    v, dv = tp.right_components_with_derivative(pencil, z)
    assert ref.check_derivative(p, z, v, dv) is None
    assert ref.check_derivative(p, z, v, perturbed(dv, m)) == "out_of_tolerance"

    P, Q = tp.recurrence.pq_sweep(pencil, p.n + 1, z)
    minors = ref.minors_reference(p, z, p.n + 1)
    assert ref.check_minors(P, Q, minors, p.n + 1) is None
    for order in minors[0]:
        assert ref.check_minors(perturbed(P, order), Q, minors, p.n + 1) == "out_of_tolerance"
    for order in minors[1]:
        assert ref.check_minors(P, perturbed(Q, order), minors, p.n + 1) == "out_of_tolerance"


def test_roundtrip_check_catches_one_perturbed_entry(tp):
    n, k, s = 8, 3, 5
    truth, inst = tp.generate_instance(tp.GeneratorConfig(n=n, k=k, seed=s))
    result = tp.solve(inst)
    omega = float(np.max(tp.pencil_eigenvalues(truth).real)) + 1.5
    entries = tp.reconstruct_from_m(truth.J, k, omega, tp.m_table(truth, omega),
                                    tp.right_components(truth, omega), tp.left_components(truth, omega),
                                    truth.H.b[k])
    report = tp.verify(truth, result)
    out = (truth, inst, result, entries, report, None)
    assert workloads.roundtrip_check(tp, n, k, out) is None
    H = result.H
    bad_b = H.b[:k] + (H.b[k] * (1 + 1e-6),) + H.b[k + 1:]
    bad = tp.ReconstructionResult(tp.HermitianTridiagonal(H.a, bad_b), result.head_p, result.head_s,
                                  result.deltas, result.residual_lambda, result.residual_mu,
                                  result.imaginary_flags)
    assert workloads.roundtrip_check(tp, n, k, (truth, inst, bad, entries, report, None)) == "out_of_tolerance"
    bad_a = entries.a[:-1] + (entries.a[-1] * (1 + 1e-6),)
    bad_entries = tp.MRouteEntries(entries.k, entries.b, bad_a)
    assert workloads.roundtrip_check(tp, n, k, (truth, inst, result, bad_entries, report, None)) \
        == "out_of_tolerance"


def test_precondition_error_is_a_failed_operation(tp):
    rng = np.random.default_rng(3)
    p = ref.draw_pencil(rng, 5)
    pencil = workloads.to_pencil(tp, p)
    eig = float(p.eigenvalues()[-1])
    op = Op("m_table/at_eigenvalue", lambda: tp.m_table(pencil, eig), lambda out: None)
    sample = harness.run_op(op)
    assert sample.reason == "SpectrumCollisionError"
    assert harness.summarize([sample], 1)["good_frac"] == 0.0

    def raises():
        raise tp.SingularDeltaError(2)

    assert harness.run_op(Op("raises", raises, lambda out: None)).reason == "SingularDeltaError"


def test_timeout_is_a_failed_operation():
    def spin():
        while True:
            pass

    sample = harness.run_op(Op("spin", spin, lambda out: None), limit_s=0.05)
    assert sample.reason == "timeout"
    assert sample.seconds < 1.0


def test_admission_never_imports_the_library():
    code = textwrap.dedent(f"""
        import sys
        sys.modules["tripencil"] = None      # any import of the library now fails
        sys.path.insert(0, {str(BENCH)!r})
        import workloads
        assert workloads.direct_inputs(1)
        assert workloads.sweep_inputs(1)
        assert workloads.roundtrip_inputs(1)
        assert sys.modules["tripencil"] is None
        """)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
