"""Eigenvector component sequences and their derivatives."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripencil as tp
from tripencil import recurrence
from tripencil.tolerances import POLE_RTOL
from support import (bits, build_pencil, dense_eigenpairs, dense_eigenvectors, dense_spectrum, far_points,
                     max_normalized, mpmath_reference, reference_components, seeded_pencil, two_pole_pencil)


def test_normalization(rng):
    pencil = build_pencil(rng, 4)
    assert tp.right_components(pencil, 0.3)[0] == 1.0
    assert tp.left_components(pencil, 0.3)[0] == 1.0


def test_order1_eigenvalue_residual(rng):
    pencil = build_pencil(rng, 1)
    w, _ = dense_eigenpairs(pencil)
    lam = float(w[0].real)
    p = tp.right_components(pencil, lam)
    matrix = pencil.dense_at(lam)
    assert np.linalg.norm(matrix @ p) <= 1e-9 * np.linalg.norm(matrix) * np.linalg.norm(p)


def test_collinear_with_dense_eigenvector(rng):
    pencil = build_pencil(rng, 4)
    w, v = dense_eigenpairs(pencil)
    lam = float(w[-1].real)
    p = tp.right_components(pencil, lam)
    u = v[:, -1]
    cos = abs(np.vdot(u, p)) / (np.linalg.norm(u) * np.linalg.norm(p))
    assert cos >= 1 - 1e-9


def test_left_row_annihilates_pencil(rng):
    pencil = build_pencil(rng, 3)
    w, _ = dense_eigenpairs(pencil)
    lam = float(w[0].real)
    pl = tp.left_components(pencil, lam)
    matrix = pencil.dense_at(lam)
    assert np.linalg.norm(pl @ matrix) <= 1e-9 * np.linalg.norm(matrix) * np.linalg.norm(pl)


def test_left_row_annihilates_all_but_last_column_at_complex_z(rng):
    pencil = build_pencil(rng, 4)
    z = 0.7 - 0.9j
    pl = tp.left_components(pencil, z)
    matrix = pencil.dense_at(z)
    residual = pl @ matrix
    assert np.abs(residual[:-1]).max() <= 1e-12 * np.linalg.norm(matrix) * np.linalg.norm(pl)
    assert abs(residual[-1]) > 1e-3


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
def test_left_is_conjugate_of_right_at_real_z(seed, n):
    pencil = seeded_pencil(seed, n)
    z = float(np.random.default_rng(seed + 5).uniform(-3, 3))
    right = tp.right_components(pencil, z)
    left = tp.left_components(pencil, z)
    assert np.abs(left - np.conj(right)).max() <= 1e-12 * (1 + np.abs(right).max())


def test_pole_collision_reports_index(rng):
    pencil = build_pencil(rng, 3)
    z = pencil.H.b[1] / pencil.J.d[1]
    with pytest.raises(tp.PoleCollisionError) as exc:
        tp.right_components(pencil, z)
    assert exc.value.index == 1


def test_left_pole_collision_reports_index(rng):
    pencil = build_pencil(rng, 3)
    z = pencil.H.b[1].conjugate() / pencil.J.d[1]
    with pytest.raises(tp.PoleCollisionError) as exc:
        tp.left_components(pencil, z)
    assert exc.value.index == 1


def test_every_component_sweep_raises_at_the_first_pole_with_its_numbers():
    """Poles at indices 1 and 3: each sweep and the steps of the unit factors stop at 1, and the error says by how much."""
    z = 0.5
    pencil = two_pole_pencil(z)
    for op in (tp.right_components, tp.left_components, tp.right_components_with_derivative,
               lambda pencil, z: recurrence._at_point(pencil, z).unit):
        with pytest.raises(tp.PoleCollisionError) as exc:
            op(pencil, z)
        err = exc.value
        assert err.index == 1
        assert err.tol == POLE_RTOL and err.value <= err.tol * err.scale
        assert err.scale == abs(pencil.H.b[1]) + abs(z * pencil.J.d[1])
        for number in (f"{err.value:.3e}", f"{err.tol:.1e}", f"{err.scale:.3e}"):
            assert number in str(err)


@pytest.mark.parametrize("n", [1, 2, 10, 160, 640])
def test_component_sweeps_are_the_per_step_loop_bit_for_bit(n):
    """At the extreme eigenvalues, a far real point and a complex one, every bit is that of the per-step loop."""
    compared = 0
    for seed in range(3):
        pencil = seeded_pencil(seed, n)
        eigs, far = dense_spectrum(pencil), far_points(pencil)
        for z in (eigs[-1], eigs[0], far[0], far[2]):
            p, dp = reference_components(pencil, z)
            pl = np.conj(reference_components(pencil, np.conj(z))[0])
            pl[0] = 1.0
            if not all(np.isfinite(x).all() for x in (p, dp, pl)):
                continue
            got, got_dp = tp.right_components_with_derivative(pencil, z)
            for mine, reference in ((tp.right_components(pencil, z), p), (tp.left_components(pencil, z), pl),
                                    (got, p), (got_dp, dp)):
                assert np.array_equal(bits(mine), bits(reference))
            compared += 1
    assert compared >= 10


_NEAR = seeded_pencil(1, 10)


@pytest.mark.parametrize("pencil, z", [
    (two_pole_pencil(0.5), 0.5),
    (two_pole_pencil(-0.4 + 0.2j), -0.4 + 0.2j),
    (_NEAR, _NEAR.H.b[6] / _NEAR.J.d[6] * (1 + 1e-13)),
], ids=["exact-real", "exact-complex", "near"])
def test_component_sweeps_raise_the_pole_error_of_the_per_step_loop(pencil, z):
    """The pole test on every index at once stops at the loop's index, with the loop's value, scale and tol."""
    with pytest.raises(tp.PoleCollisionError) as reference:
        reference_components(pencil, z)
    for op in (tp.right_components, tp.right_components_with_derivative,
               lambda pencil, z: tp.left_components(pencil, np.conj(z))):
        with pytest.raises(tp.PoleCollisionError) as exc:
            op(pencil, z)
        got, want = exc.value, reference.value
        assert (got.index, got.value, got.scale, got.tol) == (want.index, want.value, want.scale, want.tol)
        assert str(got) == str(want)


def _worst_relative(values, reference):
    with mpmath.workdps(60):
        return max(float(abs(mpmath.mpc(complex(v)) - r) / abs(r)) for v, r in zip(values, reference) if r)


@pytest.mark.parametrize("n", [160, 640])
def test_component_sweeps_match_mpmath(n):
    """Outside the spectrum and at a complex point every entry, derivative too, is within 1e-12 relative."""
    pencil = seeded_pencil(3, n)
    outside, _, complex_point = far_points(pencil)
    for z in (complex(outside), complex_point):
        exact = mpmath_reference(pencil, z)
        p, dp, pl = exact.right, exact.right_derivative, exact.left
        v, dv = tp.right_components_with_derivative(pencil, z)
        assert dv[0] == 0
        assert _worst_relative(tp.right_components(pencil, z), p) <= 1e-12
        assert _worst_relative(tp.left_components(pencil, z), pl) <= 1e-12
        assert _worst_relative(v, p) <= 1e-12
        assert _worst_relative(dv, dp) <= 1e-12


def _row_terms(pencil, z, v, conjugate_b=False):
    """Rows 0..n-1 of (z*J - H) v as (sum, sum of magnitudes); H with b conjugated for the left sequence."""
    n = pencil.n
    c, d, a = (np.asarray(x) for x in (pencil.J.c, pencil.J.d, pencil.H.a))
    b = np.asarray(pencil.H.b, dtype=complex)
    if conjugate_b:
        b = b.conj()
    diag = (z * c[:n] - a[:n]) * v[:n]
    sup = (z * d - b) * v[1:]
    sub = np.concatenate([[0.0], (z * d[:n - 1] - b[:n - 1].conj()) * v[:n - 1]])
    return diag + sup + sub, np.abs(diag) + np.abs(sup) + np.abs(sub)


@pytest.mark.parametrize("n", [160, 640])
def test_component_sweeps_solve_their_rows(n):
    """At an eigenvalue and mid-gap, rows 0..n-1 of (z*J - H) p and of J p + (z*J - H) p' vanish to 1e-12."""
    pencil = seeded_pencil(3, n)
    eigs = dense_spectrum(pencil)
    for z in (complex(eigs[n // 2]), complex(0.5 * (eigs[n // 2] + eigs[n // 2 + 1]))):
        v, dv = tp.right_components_with_derivative(pencil, z)
        for p, conjugate_b in ((tp.right_components(pencil, z), False), (tp.left_components(pencil, z), True),
                               (v, False)):
            residual, terms = _row_terms(pencil, z, p, conjugate_b)
            assert np.all(np.abs(residual) <= 1e-12 * terms)
        residual, terms = _row_terms(pencil, z, dv)
        c, d = np.asarray(pencil.J.c[:n]), np.asarray(pencil.J.d)
        jv = [c * v[:n], d * v[1:], np.concatenate([[0.0], d[:n - 1] * v[:n - 1]])]
        assert np.all(np.abs(residual + sum(jv)) <= 1e-12 * (terms + sum(np.abs(x) for x in jv)))


def test_components_match_product_formula(rng):
    pencil = build_pencil(rng, 4)
    z = 0.9 - 0.6j
    p = tp.right_components(pencil, z)
    for m in range(pencil.n + 1):
        denom = np.prod([pencil.H.b[j] - z * pencil.J.d[j] for j in range(m)]) if m else 1.0
        expected = tp.eval_p(pencil, m, z) / denom
        assert abs(p[m] - expected) <= 1e-10 * (1 + abs(expected))


def test_derivative_against_finite_differences(rng):
    pencil = build_pencil(rng, 4)
    z = 0.8
    h = 1e-6
    _, dp = tp.right_components_with_derivative(pencil, z)
    fd = (tp.right_components(pencil, z + h) - tp.right_components(pencil, z - h)) / (2 * h)
    assert np.abs(dp - fd).max() <= 1e-5 * (1 + np.abs(dp).max())


@pytest.mark.parametrize("n", [20, 80, 160])
def test_eigenvector_components_match_dense_eigenvectors(n):
    """Twisted components at the extreme and a middle eigenvalue against numpy eigh, both max-normalized."""
    pencil = seeded_pencil(n, n)
    w, X = dense_eigenvectors(pencil)
    forward = 0.0
    for i in (0, n // 2, n):
        v = tp.eigenvector_components(pencil, w[i])
        assert v[0] == 1.0
        assert np.abs(max_normalized(v) - max_normalized(X[:, i])).max() <= 1e-12
        forward = max(forward, np.abs(max_normalized(tp.right_components(pencil, w[i]))
                                      - max_normalized(X[:, i])).max())
    # the forward recurrence amplifies the roundoff of the eigenvalue geometrically:
    # measured 1e-11 at n = 20, O(1) at n = 80 and 160
    if n < 80:
        assert forward <= 1e-8
    else:
        assert forward > 0.1


@pytest.mark.parametrize("b", [1e-16, 5e-17])
def test_eigenvector_components_raise_on_subnormal_first_entry(b):
    """At the top eigenvalue of diag(0..21) coupled by b, v_0/v_20 ~ b^20/20! is subnormal: raise, not inf."""
    n = 21
    pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0,) * (n + 1), (b,) * n),
                       tp.HermitianTridiagonal(tuple(float(i) for i in range(n + 1)), (b,) * n))
    with pytest.raises(tp.VanishingComponentError):
        tp.eigenvector_components(pencil, dense_spectrum(pencil)[-1])


def test_eigenvector_components_residual_is_on_the_twist_row(rng):
    """Away from the spectrum the residual of (z*J - H) v is one row, the one of smallest |gamma_r|."""
    pencil = build_pencil(rng, 6)
    z = 0.37
    v = tp.eigenvector_components(pencil, z)
    residual = pencil.dense_at(z) @ v
    row = int(np.argmax(np.abs(residual)))
    assert np.abs(np.delete(residual, row)).max() <= 1e-12 * np.abs(residual[row])
