"""Eigenvector component sequences and their derivatives."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripencil as tp
from tripencil import recurrence
from tripencil.tolerances import POLE_RTOL
from support import (bits, build_pencil, delocalised_pencil, dense_eigenpairs, dense_eigenvectors, dense_spectrum,
                     far_points, max_normalized, mpmath_reference, reference_components, scaled_pencil, seeded_pencil,
                     two_pole_pencil, worst_relative)


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


# bounds that the three-term recurrence stepped per index (support.reference_components) meets as well: worst
# relative error of an entry against the 60-digit reference at the far points of seeded_pencil(0..2, n),
# n = 1..640, 1.12e-14 for it and 9.4e-15 read off the pivots; worst row residual over the row's terms at the
# extreme eigenvalues 0.88 eps for it and 1.13 eps read off the pivots
_REFERENCE_RTOL = 2e-14
_ROW_RTOL = 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, 10, 160, 640])
def test_component_sweeps_match_the_60_digit_reference_and_solve_their_rows(n):
    """At a far real point and a complex one every entry, derivatives too, is within _REFERENCE_RTOL of the
    60-digit reference; at the extreme eigenvalues, where the forward recurrence is unstable in any form,
    each row of (z*J - H) p and of J p + (z*J - H) p' vanishes to _ROW_RTOL of its terms.  The three-term
    recurrence stepped per index meets both bounds too."""
    for seed in range(3):
        pencil = seeded_pencil(seed, n)
        eigs, far = dense_spectrum(pencil), far_points(pencil)
        for z in (far[0], far[2]):
            exact = mpmath_reference(pencil, z)
            v, dv = tp.right_components_with_derivative(pencil, z)
            stepped, stepped_dv = reference_components(pencil, z)
            for mine, reference in ((tp.right_components(pencil, z), exact.right), (v, exact.right),
                                    (tp.left_components(pencil, z), exact.left), (dv, exact.right_derivative),
                                    (stepped, exact.right), (stepped_dv, exact.right_derivative)):
                assert worst_relative(mine, reference) <= _REFERENCE_RTOL
        for z in (complex(eigs[-1]), complex(eigs[0])):
            v, dv = tp.right_components_with_derivative(pencil, z)
            stepped, stepped_dv = reference_components(pencil, z)
            for p, conjugate_b in ((tp.right_components(pencil, z), False), (tp.left_components(pencil, z), True),
                                   (v, False), (stepped, False)):
                residual, terms = _row_terms(pencil, z, p, conjugate_b)
                assert np.all(np.abs(residual) <= _ROW_RTOL * terms)
            for p, dp in ((v, dv), (stepped, stepped_dv)):
                residual, terms = _derivative_row_terms(pencil, z, p, dp)
                assert np.all(np.abs(residual) <= _ROW_RTOL * terms)


def _zero_pivot_pencil(a0):
    """Order 7 at z = 0.5 with D_1 = 1 - 1/1 exactly zero, or with a_0 = 1 also D_0 = 0: P_2 = 0 (P_1 = 0)."""
    n = 7
    return tp.Pencil(tp.SymmetricTridiagonal((2.0,) * (n + 1), (1.0,) * n),
                     tp.HermitianTridiagonal((a0, 0.0, 0.25, 0.3, 0.5, 0.1, -0.2, 0.4),
                                             (0.5 + 1j, 0.5 + 2j, 0.5 + 1j, 0.5 + 0.5j, 0.3 - 1j, 0.2 + 0.7j, -0.4 + 1j)))


@pytest.mark.parametrize("a0, t", [(0.0, 1), (1.0, 0)])
@pytest.mark.parametrize("z", [0.5, 0.5 + 0j, complex(0.5, -0.0)], ids=["float", "plus0j", "minus0j"])
def test_component_sweeps_through_an_exactly_zero_pivot(a0, t, z):
    """Past D_t = 0 the components take p_{t+1} = 0 and the three-term step to p_{t+2}, the pivots from there on;
    every entry, derivatives too, within 1e-14 of the 60-digit reference, in which p_{t+1} is 0 as well."""
    pencil = _zero_pivot_pencil(a0)
    assert recurrence.pivot_sweep(pencil, pencil.n + 1, z).margins[t] == 0
    exact = mpmath_reference(pencil, z)
    v, dv = tp.right_components_with_derivative(pencil, z)
    right, left = tp.right_components(pencil, z), tp.left_components(pencil, z)
    assert right[t + 1] == left[t + 1] == v[t + 1] == 0 and exact.right[t + 1] == 0
    for mine, reference in ((right, exact.right), (v, exact.right), (left, exact.left), (dv, exact.right_derivative)):
        assert worst_relative(mine, reference) <= 1e-14


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
        assert worst_relative(tp.right_components(pencil, z), p) <= 1e-12
        assert worst_relative(tp.left_components(pencil, z), pl) <= 1e-12
        assert worst_relative(v, p) <= 1e-12
        assert worst_relative(dv, dp) <= 1e-12


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
        residual, terms = _derivative_row_terms(pencil, z, v, dv)
        assert np.all(np.abs(residual) <= 1e-12 * terms)


def _derivative_row_terms(pencil, z, v, dv):
    """Rows 0..n-1 of J v + (z*J - H) v' as (sum, sum of magnitudes)."""
    n = pencil.n
    residual, terms = _row_terms(pencil, z, dv)
    c, d = np.asarray(pencil.J.c[:n]), np.asarray(pencil.J.d)
    jv = [c * v[:n], d * v[1:], np.concatenate([[0.0], d[:n - 1] * v[:n - 1]])]
    return residual + sum(jv), terms + sum(np.abs(x) for x in jv)


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
    with pytest.raises(tp.VanishingComponentError) as exc:
        tp.eigenvector_components(pencil, dense_spectrum(pencil)[-1])
    # |v_0| against the largest entry, at the ratio below which normalizing overflows
    err = exc.value
    assert err.index == 0 and err.tol == 1.0 / np.finfo(float).max
    assert err.value <= err.tol * err.scale and err.scale >= 1.0  # the twist row holds 1
    for number in (f"{err.value:.3e}", f"{err.tol:.1e}", f"{err.scale:.3e}"):
        assert number in str(err)


def test_eigenvector_components_residual_is_on_the_twist_row(rng):
    """Away from the spectrum the residual of (z*J - H) v is one row, the one of smallest |gamma_r|."""
    pencil = build_pencil(rng, 6)
    z = 0.37
    v = tp.eigenvector_components(pencil, z)
    residual = pencil.dense_at(z) @ v
    row = int(np.argmax(np.abs(residual)))
    assert np.abs(np.delete(residual, row)).max() <= 1e-12 * np.abs(residual[row])


def _assert_normal(pencil):
    c, d, a = pencil.J.c, pencil.J.d, pencil.H.a
    parts = [*c, *d, *a, *(x.real for x in pencil.H.b), *(x.imag for x in pencil.H.b)]
    assert all(abs(x) >= np.finfo(float).tiny and np.isfinite(x) for x in parts)


@pytest.mark.parametrize("s", [-1000, -600, -520, -40, 40, 520, 600, 1000])
@pytest.mark.parametrize("pencil", [seeded_pencil(0, 10), delocalised_pencil(0, 160)], ids=["seeded10", "delocalised160"])
def test_component_sweeps_and_the_pivot_loop_are_scale_free(pencil, s):
    """On 2^s (J, H), every entry normal, the component sweeps give the bits of (J, H) and the pivot loop's x
    is 2^s times its x, bit for bit, with no RuntimeWarning: where w = |z d - b|^2 leaves the normal range
    the loop steps on an exactly rescaled copy."""
    scaled = scaled_pencil(pencil, s)
    _assert_normal(scaled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in far_points(pencil):
            for op in (tp.right_components, tp.left_components):
                assert np.array_equal(bits(op(scaled, z)), bits(op(pencil, z)))
            for mine, theirs in zip(tp.right_components_with_derivative(scaled, z),
                                    tp.right_components_with_derivative(pencil, z)):
                assert np.array_equal(bits(mine), bits(theirs))
            x = recurrence.pivot_sweep(pencil, pencil.n + 1, z).x
            expected = np.ldexp(x.view(float), s).view(x.dtype)
            assert np.array_equal(bits(recurrence.pivot_sweep(scaled, pencil.n + 1, z).x), bits(expected))


def test_components_after_m_table_read_its_point(monkeypatch):
    """The roundtrip m-route's order: after m_table at w, both component sweeps at w run no pivot sweep of their
    own, and give the bits of a fresh pencil, on which the two run one sweep between them."""
    pencil = seeded_pencil(2, 40)
    omega = complex(far_points(pencil)[0])
    calls = []
    sweep = recurrence.pivot_sweep
    monkeypatch.setattr(recurrence, "pivot_sweep", lambda *args: calls.append(args) or sweep(*args))
    other = tp.Pencil(pencil.J, pencil.H)
    fresh = [op(other, omega) for op in (tp.right_components, tp.left_components)]
    assert len(calls) == 1
    tp.m_table(pencil, omega)
    calls.clear()
    got = [op(pencil, omega) for op in (tp.right_components, tp.left_components)]
    assert calls == []
    assert all(np.array_equal(bits(mine), bits(theirs)) for mine, theirs in zip(got, fresh))
