"""Resolvent, factorization, trailing inverse and m-function reconstruction."""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import tripencil as tp
from tripencil import recurrence
from tripencil.mfunctions import _trailing_diagonals
from tripencil.tolerances import DIFFERENCE_RTOL, FACTOR_RTOL, SPECTRUM_RTOL
from support import (bits, build_pencil, delocalised_pencil, dense_matrix, dense_spectrum, extreme_pair, far_points,
                     mpmath_reference, reference_left_steps, reference_m_route, reference_unit_upper, rel_err,
                     scaled_pencil, seeded_pencil, toeplitz_pencil, two_pole_pencil)


def resolvent_point(pencil, rng, real=True):
    lam, mu = extreme_pair(pencil)
    if real:
        return lam + 1.0 + float(rng.uniform(0.2, 1.5))
    return complex(rng.uniform(-1, 1), 0.5 + rng.uniform(0, 1))


class TestMFunction:
    def test_scalar_case(self):
        pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0,), ()),
                           tp.HermitianTridiagonal((0.0,), ()))
        assert tp.m_function(pencil, 1, 2.0) == 0.5

    def test_index_zero_convention(self, rng):
        pencil = build_pencil(rng, 3)
        assert tp.m_function(pencil, 0, 1.7) == 0.0

    def test_matches_dense_inverse_corner(self, rng):
        pencil = build_pencil(rng, 4)
        omega = resolvent_point(pencil, rng)
        top = tp.m_function(pencil, 5, omega)
        dense = tp.dense_resolvent(pencil, omega)[0, 0]
        assert abs(top - dense) <= 1e-9 * (1 + abs(dense))

    def test_top_matches_dense_corner_at_order_640(self):
        # Q/P overflows at this order: the value must come from the pivots, not their quotient
        pencil = seeded_pencil(640, 640)
        for omega in far_points(pencil)[:2]:
            top = tp.m_function(pencil, 641, omega)
            corner = np.linalg.inv(dense_matrix(pencil, omega))[0, 0]
            assert abs(top - corner) <= 1e-12 * abs(corner)

    def test_guards_only_its_own_order(self):
        # a_0/c_0 is the root of P_1; m(w, 3) is finite there and is checked on rows 0..2 alone
        pencil = seeded_pencil(7, 4)
        omega = pencil.H.a[0] / pencil.J.c[0]
        corner = np.linalg.inv(dense_matrix(pencil.head(2), omega))[0, 0]
        assert abs(tp.m_function(pencil, 3, omega) - corner) <= 1e-12 * abs(corner)
        with pytest.raises(tp.SpectrumCollisionError):
            tp.m_table(pencil, omega)

    def test_table_reports_the_first_head_below_the_tolerance(self):
        # a_3 puts z at about 3e-11 of the terms of head(3), a_9 exactly on the spectrum of head(9):
        # m_table reports head(3), whose margin is not the smallest
        pencil, z = seeded_pencil(5, 12), 0.3
        a = list(pencil.H.a)
        for m, offset in ((3, 3e-11), (9, 0.0)):
            sweep = recurrence.pivot_sweep(tp.Pencil(pencil.J, tp.HermitianTridiagonal(tuple(a), pencil.H.b)),
                                           m + 1, z)
            x = sweep.weights[-1] / sweep.pivots[-2]
            a[m] = (z * pencil.J.c[m] - x).real  # D_m = 0
            a[m] += offset * (abs(z * pencil.J.c[m]) + abs(a[m]) + abs(x))
        pencil = tp.Pencil(pencil.J, tp.HermitianTridiagonal(tuple(a), pencil.H.b))
        margins = recurrence.head_margins(recurrence.pivot_sweep(pencil, pencil.n + 1, z))[0]
        assert np.flatnonzero(margins < SPECTRUM_RTOL).tolist() == [3, 9]
        assert margins[9] < margins[3]
        with pytest.raises(tp.SpectrumCollisionError) as info:
            tp.m_table(pencil, z)
        assert (info.value.order, info.value.value, info.value.tol) == (3, margins[3], SPECTRUM_RTOL)
        assert f"margin {margins[3]:.3e} < tol {SPECTRUM_RTOL:.1e}" in str(info.value)

    def test_real_table_for_real_point(self, rng):
        pencil = build_pencil(rng, 4)
        omega = resolvent_point(pencil, rng)
        table = tp.m_table(pencil, omega)
        for v in table.values:
            assert abs(v.imag) <= 1e-10 * (1 + abs(v))

    def test_spectrum_collision(self, rng):
        pencil = build_pencil(rng, 3)
        lam, _ = extreme_pair(pencil)
        with pytest.raises(tp.SpectrumCollisionError):
            tp.m_function(pencil, 4, lam)


class TestResolventMatrix:
    def test_scalar_pencil(self):
        pencil = tp.Pencil(tp.SymmetricTridiagonal((2.0,), ()),
                           tp.HermitianTridiagonal((3.0,), ()))
        R = tp.resolvent_matrix(pencil, 4.0)
        assert R.shape == (1, 1)
        assert abs(R[0, 0] - 1.0 / 5.0) < 1e-15

    def test_order1_regression_sign(self):
        # frozen convention: R[0,0] = m(w,1) - m(w,2) scaled by components;
        # the dense inverse fixes the overall sign once and for all
        pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0, 1.0), (0.5,)),
                           tp.HermitianTridiagonal((0.0, 0.0), (1j,)))
        omega = 3.0
        R = tp.resolvent_matrix(pencil, omega)
        dense = np.linalg.inv(pencil.dense_at(omega))
        assert np.abs(R - dense).max() < 1e-12

    def test_identity_residual(self, rng):
        pencil = build_pencil(rng, 3)
        omega = resolvent_point(pencil, rng)
        R = tp.resolvent_matrix(pencil, omega)
        eye = np.eye(pencil.n + 1)
        assert np.abs(pencil.dense_at(omega) @ R - eye).max() < 1e-9

    def test_matches_dense_solve(self, rng):
        pencil = build_pencil(rng, 4)
        omega = resolvent_point(pencil, rng, real=False)
        R = tp.resolvent_matrix(pencil, omega)
        X = tp.dense_resolvent(pencil, omega)
        assert np.abs(R - X).max() <= 1e-8 * (1 + np.abs(X).max())


class TestFactorization:
    def test_order1_product(self, rng):
        pencil = build_pencil(rng, 1)
        omega = resolvent_point(pencil, rng)
        factors = tp.ldu_factors(pencil, omega)
        R = tp.resolvent_matrix(pencil, omega)
        assert np.abs(factors.product() - R).max() < 1e-12

    def test_random_order4(self, rng):
        pencil = build_pencil(rng, 4)
        omega = resolvent_point(pencil, rng, real=False)
        factors = tp.ldu_factors(pencil, omega)
        R = tp.resolvent_matrix(pencil, omega)
        assert np.abs(factors.product() - R).max() <= 1e-9 * (1 + np.abs(R).max())

    def test_staircase_shapes(self, rng):
        # unit form: F[i, t] = p_i^R/p_t^R on and above the diagonal, G[t, j] = p_j^L/p_t^L
        # on and below it; the staircase of the paper is F * diag(p_t^R) and diag(p_t^L) * G
        pencil = build_pencil(rng, 3)
        omega = resolvent_point(pencil, rng)
        factors = tp.ldu_factors(pencil, omega)
        pr = tp.right_components(pencil, omega)
        pl = tp.left_components(pencil, omega)
        n = pencil.n
        for i in range(n + 1):
            for t in range(n + 1):
                if t < i:
                    assert factors.F[i, t] == 0 and factors.G[t, i] == 0
                elif t == i:
                    assert factors.F[i, t] == 1 and factors.G[t, i] == 1
                else:
                    assert abs(factors.F[i, t] * pr[t] - pr[i]) <= 1e-14 * abs(pr[i])
                    assert abs(factors.G[t, i] * pl[t] - pl[i]) <= 1e-14 * abs(pl[i])

    def test_diag_recomputed_from_ratios(self, rng):
        # the unit form's diagonal is 1/D_t = p_t^R g_t p_t^L, so it gives back the m-differences
        pencil = build_pencil(rng, 4)
        omega = resolvent_point(pencil, rng)
        factors = tp.ldu_factors(pencil, omega)
        pr = tp.right_components(pencil, omega)
        pl = tp.left_components(pencil, omega)
        for t, inverse_pivot in enumerate(factors.diag):
            g = inverse_pivot / (pr[t] * pl[t])
            lo = tp.eval_q(pencil, t, omega) / tp.eval_p(pencil, t, omega) if t else 0.0
            hi = tp.eval_q(pencil, t + 1, omega) / tp.eval_p(pencil, t + 1, omega)
            assert abs(g - (hi - lo)) <= 1e-10 * (1 + abs(g))

    def test_degenerate_difference_guard(self):
        # real b_0 and omega at the real pole b_0/d_0 collapse m(w,2)-m(w,1)
        pencil = tp.Pencil(tp.SymmetricTridiagonal((1.2, 0.9, 1.1), (0.8, 0.7)),
                           tp.HermitianTridiagonal((0.1, -0.2, 0.3), (0.4 + 0j, 0.2 + 0.6j)))
        omega = 0.4 / 0.8
        with pytest.raises(tp.DegenerateDifferenceError) as exc:
            tp.ldu_factors(pencil, omega)
        assert exc.value.index == 1

    def test_degenerate_difference_error_carries_the_weight_and_its_terms(self):
        # 2^-30 off the real pole b_0/d_0 = 0.5: |w_0| = (0.8 w - 0.4)^2 against (|0.8 w| + 0.4)^2
        pencil = tp.Pencil(tp.SymmetricTridiagonal((1.2, 0.9, 1.1), (0.8, 0.7)),
                           tp.HermitianTridiagonal((0.1, -0.2, 0.3), (0.4 + 0j, 0.2 + 0.6j)))
        omega = 0.5 + 2.0 ** -30
        weight, scale = (0.8 * omega - 0.4) ** 2, (0.8 * omega + 0.4) ** 2
        with pytest.raises(tp.DegenerateDifferenceError) as exc:
            tp.ldu_factors(pencil, omega)
        assert (exc.value.index, exc.value.value, exc.value.scale, exc.value.tol) == (1, weight, scale,
                                                                                      DIFFERENCE_RTOL)
        assert f"{weight:.3e} is within tol {DIFFERENCE_RTOL:.1e} x scale {scale:.3e}" in str(exc.value)


class TestTrailingInverse:
    def test_1x1_reciprocal(self, rng):
        pencil = build_pencil(rng, 3)
        omega = resolvent_point(pencil, rng)
        T = tp.trailing_inverse(pencil, 2, omega)
        R = tp.resolvent_matrix(pencil, omega)
        assert T.shape == (1, 1)
        assert abs(T[0, 0] - 1.0 / R[3, 3]) <= 1e-10 * abs(T[0, 0])

    def test_product_identity(self, rng):
        pencil = build_pencil(rng, 4)
        omega = resolvent_point(pencil, rng, real=False)
        R = tp.resolvent_matrix(pencil, omega)
        for k in range(0, 4):
            T = tp.trailing_inverse(pencil, k, omega)
            block = R[k + 1:, k + 1:]
            assert np.abs(T @ block - np.eye(4 - k)).max() < 1e-8

    def test_off_tridiagonal_exact_zero(self, rng):
        pencil = build_pencil(rng, 5)
        omega = resolvent_point(pencil, rng)
        T = tp.trailing_inverse(pencil, 1, omega)
        for i in range(T.shape[0]):
            for j in range(T.shape[1]):
                if abs(i - j) > 1:
                    assert T[i, j] == 0

    @pytest.mark.parametrize("n", [10, 40])
    def test_m_data_formula_matches_schur_complement(self, n):
        # T's diagonals from m-function data (the m-route's formula) against trailing_inverse (the pivot)
        pencil = seeded_pencil(n, n)
        k = n // 2
        omega = dense_spectrum(pencil)[-1] + 1.5
        diag, upper, _ = _trailing_diagonals(tp.m_table(pencil, omega), tp.right_components(pencil, omega),
                                             tp.left_components(pencil, omega), k)
        reference = tp.trailing_inverse(pencil, k, omega)
        scale = np.abs(reference).max()
        assert np.abs(np.asarray(diag) - np.diagonal(reference)).max() <= 1e-12 * scale
        assert np.abs(np.asarray(upper) - np.diagonal(reference, 1)).max() <= 1e-12 * scale

    def test_corrupt_table_guard(self, rng):
        pencil = build_pencil(rng, 3)
        values = (0j, 0.5 + 0j, 0.5 + 0j, 0.9 + 0j, 1.1 + 0j)
        table = tp.MFunctionTable(1.0, values, tuple(np.diff(values)))
        ones = np.ones(4, dtype=complex)
        with pytest.raises(tp.DegenerateDifferenceError) as exc:
            _trailing_diagonals(table, ones, ones, 0)
        assert exc.value.index == 1

    def test_degenerate_difference_error_carries_e_and_the_m_values(self):
        # e_1 = g_1 p^L_1 p^R_1 = 2^-50 against |m_1| + |m_2| = 0.5 + 0.75
        values = (0j, 0.5 + 0j, 0.75 + 0j, 0.9 + 0j, 1.1 + 0j)
        table = tp.MFunctionTable(1.0, values, (0.5 + 0j, 2.0 ** -50 + 0j, 0.15 + 0j, 0.2 + 0j))
        ones = np.ones(4, dtype=complex)
        with pytest.raises(tp.DegenerateDifferenceError) as exc:
            _trailing_diagonals(table, ones, ones, 0)
        assert (exc.value.index, exc.value.value, exc.value.scale, exc.value.tol) == (1, 2.0 ** -50, 1.25,
                                                                                      DIFFERENCE_RTOL)
        assert f"{2.0 ** -50:.3e} is within tol {DIFFERENCE_RTOL:.1e} x scale {1.25:.3e}" in str(exc.value)


def test_array_guards_raise_at_the_first_failing_index():
    z = 0.5
    pencil = two_pole_pencil(z)
    sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, z)
    # off the spectrum and clear of FACTOR_RTOL: only the poles and the vanishing weights fail
    assert recurrence.eigenvalue_margin(pencil, z) > 1e-3 and min(sweep.margins) > FACTOR_RTOL
    for op in (lambda: tp.resolvent_matrix(pencil, z), lambda: recurrence._at_point(pencil, z).unit):
        with pytest.raises(tp.PoleCollisionError) as exc:
            op()
        assert exc.value.index == 1
    # ldu_factors tests the weights before the poles: w_1 = 0 is DegenerateDifferenceError(2)
    with pytest.raises(tp.DegenerateDifferenceError) as exc:
        tp.ldu_factors(pencil, z)
    assert exc.value.index == 2


def test_ldu_factors_raises_at_the_first_small_pivot_margin():
    z = 0.7
    c, d = (1.2, 0.9, 1.1, 1.3, 1.0, 0.8), (0.8, 0.7, 0.6, 0.9, 0.5)
    a, b = [0.1, -0.2, 0.3, -0.4, 0.2, 0.6], (0.2 + 0.6j, 0.1 - 0.3j, 0.3 - 0.5j, -0.2 + 0.4j, 0.1 + 0.4j)

    def pencil_and_sweep():
        pencil = tp.Pencil(tp.SymmetricTridiagonal(c, d), tp.HermitianTridiagonal(a, b))
        return pencil, recurrence.pivot_sweep(pencil, pencil.n + 1, z)

    for t in (1, 3):  # shift a_t so that the pivot D_t (real at real z) is about 1e-7
        a[t] += pencil_and_sweep()[1].pivots[t].real - 1e-7
    pencil, sweep = pencil_and_sweep()
    low = [t for t, margin in enumerate(sweep.margins) if margin < FACTOR_RTOL]
    assert low == [1, 3] and recurrence.eigenvalue_margin(pencil, z) > SPECTRUM_RTOL
    with pytest.raises(tp.SpectrumCollisionError) as exc:
        tp.ldu_factors(pencil, z)
    assert exc.value.order == 1
    assert (exc.value.value, exc.value.tol) == (sweep.margins[1], FACTOR_RTOL)
    assert f"margin {sweep.margins[1]:.3e} < tol {FACTOR_RTOL:.1e}" in str(exc.value)


def test_resolvent_spectrum_error_carries_the_twisted_margin():
    pencil = seeded_pencil(3, 15)
    for lam in dense_spectrum(pencil)[::5]:
        margin = recurrence.eigenvalue_margin(pencil, lam)
        with pytest.raises(tp.SpectrumCollisionError) as exc:
            tp.resolvent_matrix(pencil, lam)
        assert (exc.value.order, exc.value.value, exc.value.tol) == (pencil.n, margin, SPECTRUM_RTOL)
        assert f"margin {margin:.3e} < tol {SPECTRUM_RTOL:.1e}" in str(exc.value)


def test_exact_one_row_head_eigenvalue_raises():
    # the pivot of head(0) is exactly zero, with no term of its own: its stand-in must not read as a margin of 1
    pencil = tp.Pencil(tp.SymmetricTridiagonal((2.5,), ()), tp.HermitianTridiagonal((0.0,), ()))
    toeplitz = toeplitz_pencil(11, 2.5, 1.0, 0.0, 1j)
    for op in (lambda: tp.resolvent_matrix(pencil, 0.0), lambda: tp.m_function(toeplitz, 1, 0.0),
               lambda: tp.trailing_inverse(toeplitz, 0, 0.0)):
        with pytest.raises(tp.SpectrumCollisionError) as exc:
            op()
        assert (exc.value.order, exc.value.value) == (0, 0.0)


def test_m_table_tests_each_head_margin_past_a_nan_one():
    # z = 1 is a root of z c_0 - a_0 (margin 0); w_1 overflows, so the margins of heads 2 and 3 are NaN
    pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
                       tp.HermitianTridiagonal((1.0, 0.0, 0.0, 0.0), (0.5 + 0.5j, 1e200 + 1e200j, 0.5 + 0.5j)))
    with np.errstate(all="ignore"):
        margins = recurrence.head_margins(recurrence.pivot_sweep(pencil, pencil.n + 1, 1.0))[0]
        assert margins[0] == 0.0 and np.isnan(margins[2:]).all()
        with pytest.raises(tp.SpectrumCollisionError) as exc:
            tp.m_table(pencil, 1.0)
    assert (exc.value.order, exc.value.value, exc.value.tol) == (0, 0.0, SPECTRUM_RTOL)


def test_m_table_through_exactly_zero_bottom_pivots_raises_without_a_warning():
    # u = 0 at z = 0: the bottom pivot of every head is exactly zero and takes its stand-in, not a division by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(tp.SpectrumCollisionError) as exc:
            tp.m_table(toeplitz_pencil(11, 2.5, 1.0, 0.0, 1j), 0.0)
    assert exc.value.order == 0


@pytest.mark.parametrize("n", [160, 640])
def test_direct_operations_match_dense_inverse(n):
    """Every direct operation at orders where P, Q, the components and the g_t leave the double range."""
    pencil = seeded_pencil(n, n)
    k = n // 2
    for omega in far_points(pencil):
        X = np.linalg.inv(dense_matrix(pencil, omega))
        scale = np.abs(X).max()
        assert abs(tp.m_table(pencil, omega).top - X[0, 0]) <= 1e-12 * abs(X[0, 0])
        assert np.abs(tp.resolvent_matrix(pencil, omega) - X).max() <= 1e-12 * scale
        assert np.abs(tp.ldu_factors(pencil, omega).product() - X).max() <= 1e-12 * scale
        T = np.linalg.inv(X[k + 1:, k + 1:])
        assert np.abs(tp.trailing_inverse(pencil, k, omega) - T).max() <= 1e-12 * np.abs(T).max()


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40, 160, 640])
def test_every_m_value_is_the_corner_of_its_head_inverse(n):
    """m(w, j) has one formula, 1/gamma_0 of head(j - 1): m_table, m_function and R[0, 0] give the same bits."""
    pencil = seeded_pencil(n, n)
    eigs = dense_spectrum(pencil)
    orders = range(n + 2) if n <= 40 else (1, 2, n // 2, n, n + 1)
    gap = (0.5 * (eigs[n // 2 - 1] + eigs[n // 2]),) if n > 1 else ()
    for omega in (*far_points(pencil), *gap):
        table = tp.m_table(pencil, omega)
        assert np.array_equal(bits([table.values[j] for j in orders]),
                              bits([tp.m_function(pencil, j, omega) for j in orders])), omega
        assert np.array_equal(bits(table.top), bits(tp.resolvent_matrix(pencil, omega)[0, 0])), omega


@pytest.mark.parametrize("n", [40, 160, 640])
def test_m_values_match_a_60_digit_recurrence_at_far_points(n):
    for seed in range(3):
        pencil = seeded_pencil(seed, n)
        for omega in far_points(pencil)[:2]:
            values = tp.m_table(pencil, omega).values[1:]
            with mpmath.workdps(60):
                worst = max(float(abs(mpmath.mpc(v.real, v.imag) - r) / abs(r))
                            for v, r in zip(values, mpmath_reference(pencil, omega).m[1:]))
            assert worst <= 2e-15, (seed, omega)


def _accurate_or_raises(op, pencil, omega, reference, rtol):
    """op(pencil, omega) raises SpectrumCollisionError or matches reference to rtol of its largest entry."""
    try:
        value = op(pencil, omega)
    except tp.SpectrumCollisionError:
        return False
    assert np.abs(value - reference).max() <= rtol * np.abs(reference).max()
    return True


def test_point_near_sub_pencil_spectrum_is_accurate_or_raises():
    # an eigenvalue of head(10): the pivot margin there is 1.03e-10, just above SPECTRUM_RTOL, and
    # cond(wJ - H) = 5.8e5; a resolvent diagonal summed over the g_t, or the unit-LDU product,
    # is 7.6e-6 off there
    pencil = seeded_pencil(29, 12)
    omega = min(dense_spectrum(pencil.head(10)), key=lambda lam: abs(lam + 0.97))
    R = np.linalg.inv(dense_matrix(pencil, omega))
    assert _accurate_or_raises(tp.resolvent_matrix, pencil, omega, R, 1e-10)
    _accurate_or_raises(lambda p, z: tp.ldu_factors(p, z).product(), pencil, omega, R, 1e-10)


@pytest.mark.parametrize("seed", [29, 3, 11])
def test_sub_pencil_eigenvalues_are_accurate_or_raise(seed):
    """At every eigenvalue of every head: m_table raises; resolvent and LDU product are accurate or raise."""
    pencil = seeded_pencil(seed, 12 + seed % 7)
    eps = np.finfo(float).eps
    for t in range(pencil.n):
        for lam in dense_spectrum(pencil.head(t)):
            with pytest.raises(tp.SpectrumCollisionError):
                tp.m_table(pencil, lam)
            A = dense_matrix(pencil, lam)
            R, cond = np.linalg.inv(A), np.linalg.cond(A)
            _accurate_or_raises(tp.resolvent_matrix, pencil, lam, R, 1e-12 + cond * eps)
            _accurate_or_raises(lambda p, z: tp.ldu_factors(p, z).product(), pencil, lam, R,
                                1e-9 + 50 * cond * eps)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_full_pencil_eigenvalues_raise_with_the_full_order(seed):
    """resolvent_matrix's one twisted pass flags every eigenvalue, as ldu_factors and trailing_inverse do."""
    pencil = seeded_pencil(seed, 12 + seed % 7)
    n = pencil.n
    for lam in dense_spectrum(pencil):
        for op in (tp.resolvent_matrix, tp.ldu_factors, lambda p, z: tp.trailing_inverse(p, n // 2, z)):
            with pytest.raises(tp.SpectrumCollisionError) as info:
                op(pencil, lam)
            assert info.value.order == n


@pytest.mark.parametrize("family, n", [(seeded_pencil, 40), (seeded_pencil, 160), (seeded_pencil, 640),
                                       (delocalised_pencil, 160)])
def test_resolvent_is_exactly_hermitian_at_real_points(family, n):
    """R == conj(R)^T entry for entry, so its diagonal is exactly real."""
    pencil = family(n, n)
    for omega in far_points(pencil)[:2]:
        R = tp.resolvent_matrix(pencil, omega)
        assert np.array_equal(R, R.conj().T)
        assert not R.diagonal().imag.any()


@pytest.mark.parametrize("n", [40, 640])
def test_resolvent_holds_the_scaled_unit_factors_entry_for_entry(n):
    """F diag(1/gamma) above the diagonal and diag(1/gamma) G below it, formed in one array.

    R and the factors of ldu_factors are also pinned to the zero-filled, masked assembly
    (reference_unit_upper): R and F bit for bit, G in value, as at a real point it is conj(F)^T, where
    only the sign of a zero imaginary part may differ.
    """
    pencil = seeded_pencil(n, n)
    upper = np.triu(np.ones((n + 1, n + 1), dtype=bool), 1)
    for omega in far_points(pencil):
        sweep = recurrence.pivot_sweep(pencil, n + 1, omega)
        diag = 1.0 / recurrence.twisted_pivots(sweep)[0]
        right, left = recurrence._unit_steps(pencil._diagonals, sweep)[0], reference_left_steps(pencil, sweep)
        F = recurrence._unit_upper(recurrence._prefix_products(right), diag)
        G = recurrence._unit_upper(recurrence._prefix_products(left), diag).T
        R = tp.resolvent_matrix(pencil, omega)
        assert np.array_equal(R[upper], F[upper])
        assert np.array_equal(R.T[upper], G.T[upper])
        assert np.array_equal(np.diagonal(R), diag)
        reference = reference_unit_upper(right, diag)
        reference_unit_upper(left, diag, reference.T)
        assert np.array_equal(bits(R), bits(reference))
        factors, G = tp.ldu_factors(pencil, omega), reference_unit_upper(left).T
        assert np.array_equal(bits(factors.F), bits(reference_unit_upper(right)))
        assert np.array_equal(factors.G, G) and np.array_equal(bits(factors.G.real), bits(G.real))
        if complex(omega).imag:
            assert np.array_equal(bits(factors.G), bits(G))


class TestReconstructFromM:
    def _route(self, pencil, k, omega):
        table = tp.m_table(pencil, omega)
        pr = tp.right_components(pencil, omega)
        pl = tp.left_components(pencil, omega)
        return tp.reconstruct_from_m(pencil.J, k, omega, table, pr, pl, pencil.H.b[k])

    def test_order4_truth_match(self, rng):
        pencil = build_pencil(rng, 4)
        omega = resolvent_point(pencil, rng)
        entries = self._route(pencil, 1, omega)
        for j in range(2, 4):
            assert rel_err(entries.b_at(j), pencil.H.b[j]) <= 1e-8
        for j in range(2, 5):
            assert rel_err(entries.a_at(j), pencil.H.a[j]) <= 1e-8

    def test_terminal_branch_smallest(self, rng):
        pencil = build_pencil(rng, 2)
        omega = resolvent_point(pencil, rng)
        entries = self._route(pencil, 1, omega)
        assert entries.b == ()
        assert rel_err(entries.a_at(2), pencil.H.a[2]) <= 1e-8

    def test_agrees_with_eigenpair_route(self, rng):
        pencil = build_pencil(rng, 5)
        k = 2
        lam, mu = extreme_pair(pencil)
        inst = tp.instance_from_truth(pencil, k, lam, mu)
        solved = tp.solve(inst)
        omega = resolvent_point(pencil, rng)
        entries = self._route(pencil, k, omega)
        for j in range(k + 1, 5):
            assert abs(entries.b_at(j) - solved.H.b[j]) <= 1e-7 * (1 + abs(solved.H.b[j]))
        for j in range(k + 1, 6):
            assert abs(entries.a_at(j) - solved.H.a[j]) <= 1e-7 * (1 + abs(solved.H.a[j]))

    def test_order_40_canary_round_trip(self):
        """Both routes recover the n = 40 draw, where a bare g_t falls below DIFFERENCE_RTOL."""
        n, k = 40, 20
        truth, inst = tp.generate_instance(tp.GeneratorConfig(n=n, k=k, seed=0))
        result = tp.solve(inst)
        omega = float(tp.pencil_eigenvalues(truth).real.max()) + 1.5
        table = tp.m_table(truth, omega)
        values = np.abs(table.values)
        assert any(abs(table.diffs[t]) < DIFFERENCE_RTOL * (1 + values[t] + values[t + 1])
                   for t in range(k + 1, n + 1))
        entries = self._route(truth, k, omega)
        errors = [rel_err(result.H.b[j], truth.H.b[j]) for j in range(k, n)]
        errors += [rel_err(result.H.a[j], truth.H.a[j]) for j in range(k + 1, n + 1)]
        errors += [rel_err(entries.b_at(j), truth.H.b[j]) for j in range(k + 1, n)]
        errors += [rel_err(entries.a_at(j), truth.H.a[j]) for j in range(k + 1, n + 1)]
        assert max(errors) <= 1e-8
        assert max(result.residual_lambda, result.residual_mu) <= 1e-7

    def test_vanishing_component_guard(self, rng):
        pencil = build_pencil(rng, 3)
        omega = resolvent_point(pencil, rng)
        table = tp.m_table(pencil, omega)
        pr = tp.right_components(pencil, omega).copy()
        pl = tp.left_components(pencil, omega)
        pr[2] = 0.0
        with pytest.raises(tp.VanishingComponentError):
            tp.reconstruct_from_m(pencil.J, 1, omega, table, pr, pl, pencil.H.b[1])

    def _top_point_errors(self, truth, k):
        omega = float(tp.pencil_eigenvalues(truth).real.max()) + 1.5
        entries = self._route(truth, k, omega)
        errors = [rel_err(entries.b_at(j), truth.H.b[j]) for j in range(k + 1, truth.n)]
        return errors + [rel_err(entries.a_at(j), truth.H.a[j]) for j in range(k + 1, truth.n + 1)]

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_order_80_draws_at_the_top_point(self, seed):
        """Components across many decades: each is tested against its neighbours, not against the largest."""
        truth, _ = tp.generate_instance(tp.GeneratorConfig(n=80, k=40, seed=seed))
        assert max(self._top_point_errors(truth, 40)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_delocalised_order_160_at_the_top_point(self, seed):
        assert max(self._top_point_errors(delocalised_pencil(seed, 160), 80)) <= 1e-12

    def test_component_guard_reads_the_neighbours(self):
        pencil = seeded_pencil(10, 10)
        omega = dense_spectrum(pencil)[-1] + 1.5
        table = tp.m_table(pencil, omega)
        pr, pl = tp.right_components(pencil, omega), tp.left_components(pencil, omega)
        assert max(abs(pl).max(), abs(pr).max()) > 100 * abs(pl[3])
        # p^L_2 against p^L_1 and p^L_3: above COMPONENT_RTOL, divided by (the data is then inconsistent),
        # though below COMPONENT_RTOL times the largest component
        pl[2] = 1e-11 * abs(pl[3])
        for route in (tp.reconstruct_from_m, reference_m_route):
            with pytest.raises(tp.NonRealDiagonalError):
                route(pencil.J, 1, omega, table, pr, pl, pencil.H.b[1])
        pl[2] *= 1e-2
        for route in (tp.reconstruct_from_m, reference_m_route):
            with pytest.raises(tp.VanishingComponentError) as info:
                route(pencil.J, 1, omega, table, pr, pl, pencil.H.b[1])
            assert info.value.index == 2

    @pytest.mark.parametrize("n", [4, 10, 40])
    def test_entries_match_the_dense_reference(self, n):
        """The diagonals read in one pass give the entries of the dense (n-k)^2 formula, to roundoff.

        CPython and numpy round complex division differently, so the entries agree to a few ulps of
        their terms, not bit for bit: rel_err, as everywhere an entry of H is compared.
        """
        pencil = seeded_pencil(n, n)
        for omega in far_points(pencil)[::2]:
            for k in (1, n // 2, n - 1):
                data = (tp.m_table(pencil, omega), tp.right_components(pencil, omega),
                        tp.left_components(pencil, omega), pencil.H.b[k])
                entries = tp.reconstruct_from_m(pencil.J, k, omega, *data)
                b, a = reference_m_route(pencil.J, k, omega, *data)
                assert len(entries.b) == len(b) and len(entries.a) == len(a)
                for mine, reference in zip(entries.b + entries.a, b + a):
                    assert rel_err(mine, reference) <= 1e-14

    @pytest.mark.parametrize("corrupt, error, index", [
        ({"diffs": (3,), "pr": (5,)}, tp.DegenerateDifferenceError, 3),   # D(t) before any later V
        ({"diffs": (4,), "pl": (4,)}, tp.VanishingComponentError, 4),     # V(t) before D(t)
        ({"diffs": (2,), "pr": (6,)}, tp.VanishingComponentError, 6),     # D(k) after every row of T
        ({"diffs": (2, 6)}, tp.DegenerateDifferenceError, 6),
        ({"pr": (2,), "pl": (2,)}, tp.DegenerateDifferenceError, 2),      # row k has no component test
        ({"diffs": (2,), "shift": 0.5j}, tp.DegenerateDifferenceError, 2),  # D(k) before NonReal
        ({"shift": 0.5j}, tp.NonRealDiagonalError, 3),
    ])
    def test_guards_raise_in_the_order_of_the_dense_reference(self, corrupt, error, index):
        n, k = 6, 2
        pencil = seeded_pencil(n, n)
        omega = dense_spectrum(pencil)[-1] + 1.5
        table = tp.m_table(pencil, omega)
        diffs = list(table.diffs)
        for t in corrupt.get("diffs", ()):
            diffs[t] = 0j
        table = tp.MFunctionTable(table.omega, table.values, tuple(diffs))
        pr, pl = tp.right_components(pencil, omega), tp.left_components(pencil, omega)
        pr[list(corrupt.get("pr", ()))] = 0.0
        pl[list(corrupt.get("pl", ()))] = 0.0
        args = (pencil.J, k, omega + corrupt.get("shift", 0), table, pr, pl, pencil.H.b[k])
        for route in (tp.reconstruct_from_m, reference_m_route):
            with pytest.raises(error) as exc:
                route(*args)
            assert exc.value.index == index

    def test_rejects_data_of_another_order(self):
        pencil = seeded_pencil(5, 6)
        omega = dense_spectrum(pencil)[-1] + 1.5
        head = pencil.head(4)
        full = (tp.m_table(pencil, omega), tp.right_components(pencil, omega), tp.left_components(pencil, omega))
        short = (tp.m_table(head, omega), tp.right_components(head, omega), tp.left_components(head, omega))
        for i in range(4):  # all three of the order-6 pencil, then one of them at a time
            data = full if i == 3 else tuple(full[j] if j == i else short[j] for j in range(3))
            with pytest.raises(ValueError, match="order 4"):
                tp.reconstruct_from_m(head.J, 2, omega, *data, head.H.b[2])
        tp.reconstruct_from_m(head.J, 2, omega, *short, head.H.b[2])


def _times_power_of_2(values, s):
    """values * 2^s, on the real and imaginary parts apart: exact, and the sign of a zero is kept."""
    return np.ldexp(np.array(values, dtype=complex).view(float), s).view(complex)


@pytest.mark.parametrize("n, seed", [(10, 0), (10, 1), (10, 2), (40, 0)])
def test_direct_operations_scale_exactly_with_the_pencil(n, seed):
    """On 2^s (J, H) each output of the direct operations is that of (J, H) times its power of 2, bit for bit.

    R, the LDU diagonal 1/D, the m-values and their differences scale by 2^-s, the trailing inverse by 2^s,
    and the unit factors F and G do not move, at the top, the bottom and a complex point.  So do both
    inverse routes: the m-route on the scaled table and solve on the scaled instance recover 2^s H, and the
    components, which do not move, come back as they were.
    """
    k = n // 2
    truth, instance = tp.generate_instance(tp.GeneratorConfig(n=n, k=k, seed=seed))
    solved = tp.solve(instance)
    for s in (-200, -40, 40, 200):
        pencil = scaled_pencil(truth, s)
        scaled = tp.solve(replace(instance, J=pencil.J, head_a=pencil.H.a[:k + 1], head_b=pencil.H.b[:k]))
        assert np.array_equal(bits(scaled.H.a), bits(np.ldexp(solved.H.a, s))), s
        assert np.array_equal(bits(scaled.H.b), bits(_times_power_of_2(solved.H.b, s))), s
        assert np.array_equal(bits(scaled.head_p + scaled.head_s), bits(solved.head_p + solved.head_s)), s
    for omega in far_points(truth):
        R, factors = tp.resolvent_matrix(truth, omega), tp.ldu_factors(truth, omega)
        T, table = tp.trailing_inverse(truth, k, omega), tp.m_table(truth, omega)
        pr, pl = tp.right_components(truth, omega), tp.left_components(truth, omega)
        entries = tp.reconstruct_from_m(truth.J, k, omega, table, pr, pl, truth.H.b[k])
        for s in (-200, -40, 40, 200):
            pencil = scaled_pencil(truth, s)
            assert np.array_equal(bits(tp.resolvent_matrix(pencil, omega)), bits(_times_power_of_2(R, -s))), (s, omega)
            scaled = tp.ldu_factors(pencil, omega)
            assert np.array_equal(bits(scaled.F), bits(factors.F)) and np.array_equal(bits(scaled.G), bits(factors.G))
            assert np.array_equal(bits(scaled.diag), bits(_times_power_of_2(factors.diag, -s))), (s, omega)
            assert np.array_equal(bits(tp.trailing_inverse(pencil, k, omega)), bits(_times_power_of_2(T, s)))
            got = tp.m_table(pencil, omega)
            for field in ("values", "diffs"):
                assert np.array_equal(bits(getattr(got, field)), bits(_times_power_of_2(getattr(table, field), -s)))
            scaled_pr, scaled_pl = tp.right_components(pencil, omega), tp.left_components(pencil, omega)
            assert np.array_equal(bits(scaled_pr), bits(pr)) and np.array_equal(bits(scaled_pl), bits(pl))
            route = tp.reconstruct_from_m(pencil.J, k, omega, got, scaled_pr, scaled_pl, pencil.H.b[k])
            assert np.array_equal(bits(route.a), bits(np.ldexp(entries.a, s))), (s, omega)
            assert np.array_equal(bits(route.b), bits(_times_power_of_2(entries.b, s))), (s, omega)


@pytest.mark.parametrize("s", [-200, 0, 200])
def test_real_part_guards_are_scale_free(s):
    """An imaginary part of 1e-6 relative in a component makes a recovered a_j non-real on 2^s (J, H) at every s.

    Both routes test it against the terms that form a_j, the m-route against |w c_j| + |T[j, j]| (and the
    coupling term at j = k+1), reconstruct_a against |lam c_j| and its two neighbour terms; a test against
    1 + |a_j| let it pass at s = -200.
    """
    for seed in range(20):
        truth = seeded_pencil(seed, 10)
        omega = dense_spectrum(truth)[-1] + 1.5
        pencil = scaled_pencil(truth, s)
        pr = tp.right_components(pencil, omega)
        pr[7] *= 1 + 1e-6j
        with pytest.raises(tp.NonRealDiagonalError):
            tp.reconstruct_from_m(pencil.J, 5, omega, tp.m_table(pencil, omega), pr,
                                  tp.left_components(pencil, omega), pencil.H.b[5])
        truth, instance = tp.generate_instance(tp.GeneratorConfig(n=10, k=5, seed=seed))
        pencil = scaled_pencil(truth, s)
        tail = list(instance.tail_p)
        tail[3] *= 1 + 1e-6j
        with pytest.raises(tp.NonRealDiagonalError):
            tp.reconstruct_a(replace(instance, J=pencil.J), pencil.H.b[5:], tail)


def test_trailing_inverse_and_resolvent_run_each_pass_once(monkeypatch):
    """trailing_inverse tests heads k and n by one margin pass each on one pivot sweep; resolvent_matrix forms
    the full-order twisted pass, whose margin its head test reads, and the exponent runs of its two triangles
    once at a real point (the lower ones are their conjugates) and twice at a complex one."""
    calls = []
    pivot_sweep, twisted_pivots, runs = recurrence.pivot_sweep, recurrence.twisted_pivots, recurrence._prefix_products
    head_margin = recurrence._head_margin

    def count(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)
        return counted

    monkeypatch.setattr(recurrence, "pivot_sweep", count("sweep", pivot_sweep))
    monkeypatch.setattr(recurrence, "twisted_pivots", count("pass", twisted_pivots))
    monkeypatch.setattr(recurrence, "_prefix_products", count("runs", runs))
    monkeypatch.setattr(recurrence, "_head_margin", count("margin", head_margin))
    pencil = seeded_pencil(2, 40)
    top, _, middle = far_points(pencil)
    for omega in (top, middle):
        calls.clear()
        tp.trailing_inverse(pencil, 20, omega)
        assert calls == ["sweep", "margin", "margin"]
    for omega, passes in ((top, 1), (middle, 2)):
        calls.clear()
        tp.resolvent_matrix(pencil, omega)
        assert calls == ["sweep", "pass"] + ["runs"] * passes, omega


def _at_one_point(pencil, z):
    """The direct operations of the benchmark's rotation, then the two twisted readers, at one (pencil, z)."""
    return [lambda: tp.m_table(pencil, z), lambda: tp.resolvent_matrix(pencil, z),
            lambda: tp.ldu_factors(pencil, z), lambda: tp.trailing_inverse(pencil, pencil.n // 2, z),
            lambda: tp.eigenvalue_margin(pencil, z), lambda: tp.eigenvector_components(pencil, z)]


def _outcome(op):
    """What an operation gives, in exact bytes, or the class and every attribute of what it raises."""
    try:
        out = op()
    except (tp.PencilError, ValueError) as exc:
        return repr((type(exc).__name__, exc.args, sorted(vars(exc).items())))
    if isinstance(out, tp.MFunctionTable):
        out = (out.omega, out.values, out.diffs)
    elif isinstance(out, tp.ResolventFactors):
        out = (out.omega, out.F, out.diag, out.G)
    return [bits(x).tobytes() for x in (out if isinstance(out, tuple) else (out,))]


def _record_passes(monkeypatch, calls):
    """Record ("sweep", rows) per pivot sweep, ("margin", rows) per margin pass of the head over rows 0..rows-1
    and ("pass", rows) per full twisted pass, in calls, in recurrence and in mfunctions, which imports two."""
    pivot_sweep, twisted_pivots = recurrence.pivot_sweep, recurrence.twisted_pivots
    head_margin = recurrence._head_margin

    def sweep(pencil, upto, z):
        calls.append(("sweep", upto))
        return pivot_sweep(pencil, upto, z)

    def twisted(sweep):
        calls.append(("pass", len(sweep.pivots)))
        return twisted_pivots(sweep)

    def margin(sweep, t):
        calls.append(("margin", t + 1))
        return head_margin(sweep, t)

    for module in (recurrence, tp.mfunctions):
        monkeypatch.setattr(module, "pivot_sweep", sweep)
        monkeypatch.setattr(module, "_head_margin", margin)
    monkeypatch.setattr(recurrence, "twisted_pivots", twisted)


def test_operations_at_one_point_share_its_sweep_and_its_full_order_pass(monkeypatch):
    """At one (pencil, z) the direct operations, eigenvalue_margin and eigenvector_components run the pivot
    loop once and, after m_table, whose head test hands over the full-order twisted pass and the margin of
    every head, no twisted or margin pass at all: trailing_inverse tests its head k from the kept margins.
    A new z, the other signed zero of a part of z, or an equal but distinct pencil runs the loop again."""
    calls = []
    _record_passes(monkeypatch, calls)
    pencil = seeded_pencil(2, 40)
    top, bottom, middle = far_points(pencil)
    once = [("sweep", 41)]
    for owner, z in ((pencil, top), (pencil, middle), (pencil, complex(middle.real, -0.5)), (pencil, bottom),
                     (pencil, complex(bottom, -0.0)), (tp.Pencil(pencil.J, pencil.H), complex(bottom, -0.0))):
        calls.clear()
        for op in _at_one_point(owner, z):
            op()
        assert calls == once, z
    calls.clear()
    for op in _at_one_point(pencil, complex(bottom, -0.0)):
        op()
    assert calls == []


def test_no_operation_runs_both_passes_for_one_head(monkeypatch):
    """On a fresh pencil an operation tests a head by its margin pass, or reads the margin of the full-order
    twisted pass that it forms anyway (resolvent_matrix, eigenvector_components), never both; m_function
    runs the margin pass of its head alone, whose corner is 1/m."""
    calls = []
    _record_passes(monkeypatch, calls)
    pencil = seeded_pencil(2, 40)
    top, _, middle = far_points(pencil)
    expected = [[], [("pass", 41)], [("margin", 41)], [("margin", 21), ("margin", 41)], [("margin", 41)],
                [("pass", 41)]]
    for z in (top, middle):
        for i, passes in enumerate(expected):
            calls.clear()
            _at_one_point(tp.Pencil(pencil.J, pencil.H), z)[i]()
            assert calls == [("sweep", 41)] + passes, (z, i)
        for j in (1, 20, 41):
            calls.clear()
            tp.m_function(pencil, j, z)
            assert calls == [("sweep", j), ("margin", j)]


def _memo_points(pencil, eigs):
    """Far real, complex, eigenvalue and sub-pencil-eigenvalue points, and one real point with either signed zero;
    eigs is the spectrum of the pencil, from which the far points are those of far_points."""
    top, bottom, middle = eigs[-1] + 1.5, eigs[0] - 1.5, complex(0.5 * (eigs[0] + eigs[-1]), 0.5)
    sub = dense_spectrum(pencil.head(pencil.n // 2))
    return [top, middle, middle.conjugate(), float(eigs[0].real), float(eigs[len(eigs) // 2].real),
            float(sub[len(sub) // 2].real), complex(bottom, 0.0), complex(bottom, -0.0)]


def _in_order(ops, order):
    """The operations of _at_one_point with m_table first, as they come, or last, in reverse."""
    return ops if order == "m_table first" else ops[::-1]


def _warm_outcomes_are_fresh(pencil, points, order):
    """At each point in turn, on one warm pencil, the operations in order and then in the other order give
    what each gives on a fresh pencil; returns the fresh outcomes at each point, in _at_one_point's order."""
    warm, outcomes = tp.Pencil(pencil.J, pencil.H), []
    for z in points:  # on one warm pencil, so that x - 0j follows x + 0j
        fresh = [_outcome(_at_one_point(tp.Pencil(pencil.J, pencil.H), z)[i]) for i in range(6)]
        ops = _in_order(_at_one_point(warm, z), order)
        assert [_outcome(op) for op in ops] == _in_order(fresh, order), z
        assert [_outcome(op) for op in reversed(ops)] == _in_order(fresh, order)[::-1], z
        outcomes.append(fresh)
    return outcomes


@pytest.mark.parametrize("seed,n", [(0, 5), (2, 40), (5, 160), (1, 640)])
def test_each_operation_on_a_warm_pencil_is_that_on_a_fresh_one_bit_for_bit(seed, n):
    """After the others ran at the same point, in either order, each operation gives what it gives on a fresh
    pencil: the same bytes, or the same error with the same index and value (resolvent_matrix at an eigenvalue
    included).  So do the positivity witness and the trace identities, which read the eigenvectors at their points."""
    pencil = seeded_pencil(seed, n)
    eigs = dense_spectrum(pencil)
    points = _memo_points(pencil, eigs)
    fresh = _warm_outcomes_are_fresh(pencil, points, "m_table first")
    assert _warm_outcomes_are_fresh(pencil, points, "m_table last") == fresh
    # at the two eigenvalues of the full pencil, a second call raises the same index and value
    assert sum("SpectrumCollisionError" in outcomes[1] for outcomes in fresh) >= 2
    assert fresh[-1] != fresh[-2]  # x + 0j and x - 0j give different signed zeros
    warm = tp.Pencil(pencil.J, pencil.H)
    lam, mu = (float(x.real) for x in eigs[[-1, 0]])
    for k in (1, n // 2):
        for op in (lambda p: tp.positivity_witness(p, k, mu), lambda p: tp.trace_identity_residuals(p, k, lam, mu)):
            tp.eigenvector_components(warm, mu)
            assert _outcome(lambda: op(warm)) == _outcome(lambda: op(tp.Pencil(pencil.J, pencil.H)))


def test_each_operation_on_a_warm_exact_zero_pencil_is_that_on_a_fresh_one_bit_for_bit():
    """The pencils whose backward pivots are exactly zero at z = 0 (test_recurrence), where the stand-ins
    enter the pass that m_table hands over, at 0, next to it and at a complex point, in either order."""
    for pencil in (toeplitz_pencil(12, 1.0, 1.0, -1.0, 1j), toeplitz_pencil(12, 1.0, 1.0, -2.0, 2j),
                   toeplitz_pencil(11, 2.5, 1.0, 0.0, 1j), toeplitz_pencil(12, 2.5, 1.0, 0.0, 1j)):
        for order in ("m_table first", "m_table last"):
            _warm_outcomes_are_fresh(pencil, [0.0, 1e-17, 0.25j], order)


def test_a_pencil_shared_across_threads_gives_each_point_its_own_bits():
    """Two threads that evaluate one pencil at two points, turn about, replace its slot under each other;
    every result is still that of a fresh pencil at its own point.  Each thread runs resolvent_matrix and
    ldu_factors after m_table, in either order."""
    pencil = seeded_pencil(2, 40)
    top, _, middle = far_points(pencil)
    swap = [0, 2, 1, 3, 4, 5]  # ldu_factors before resolvent_matrix
    expected = {z: [_outcome(_at_one_point(tp.Pencil(pencil.J, pencil.H), z)[i]) for i in range(6)]
                for z in (top, middle)}

    def run(z):
        ops, same = _at_one_point(pencil, z), []
        for i in range(20):
            order = swap if i % 2 else range(6)
            same.append([_outcome(ops[j]) for j in order] == [expected[z][j] for j in order])
        return all(same)

    with ThreadPoolExecutor(2) as pool:
        assert all(pool.map(run, [top, middle] * 4))


def test_resolvent_and_ldu_factors_share_the_unit_prefix_products(monkeypatch):
    """After m_table at a point, resolvent_matrix and ldu_factors, in either order, run no full-order twisted
    pass, take the steps of the unit factors once and their prefix products once per side: one side at a
    real point, where L^-1 is conj(U^-1)^T, two at a complex one."""
    calls = []
    steps, prefix, twisted_pivots = recurrence._unit_steps, recurrence._prefix_products, recurrence.twisted_pivots

    def count(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)
        return counted

    def twisted(sweep):
        calls.append(("pass", len(sweep.pivots)))
        return twisted_pivots(sweep)

    monkeypatch.setattr(recurrence, "_unit_steps", count("steps", steps))
    monkeypatch.setattr(recurrence, "_prefix_products", count("prefix", prefix))
    monkeypatch.setattr(recurrence, "twisted_pivots", twisted)
    pencil = seeded_pencil(2, 40)
    top, bottom, middle = far_points(pencil)
    for z, sides in ((top, 1), (middle, 2), (complex(bottom, -0.0), 1)):
        for ops in ((tp.resolvent_matrix, tp.ldu_factors), (tp.ldu_factors, tp.resolvent_matrix)):
            fresh = tp.Pencil(pencil.J, pencil.H)
            tp.m_table(fresh, z)
            calls.clear()
            for op in ops:
                op(fresh, z)
            assert calls == ["steps"] + ["prefix"] * sides, (z, ops)


def test_m_table_forms_the_twisted_pass_only_for_a_reader(monkeypatch):
    """m_table keeps the backward pivots of the full head and joins no gamma from them; resolvent_matrix, whose
    diagonal is 1/gamma, joins them once after it, while ldu_factors and trailing_inverse after it test their
    heads from the kept margins: no join and no twisted pass."""
    calls = []
    joined, twisted_pivots = recurrence._joined, recurrence.twisted_pivots

    def count(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)
        return counted

    monkeypatch.setattr(recurrence, "_joined", count("join", joined))
    monkeypatch.setattr(recurrence, "twisted_pivots", count("pass", twisted_pivots))
    pencil = seeded_pencil(2, 40)
    top, _, middle = far_points(pencil)
    for z in (top, middle):
        for op, after in ((tp.resolvent_matrix, ["join"]), (tp.ldu_factors, []),
                          (lambda p, z: tp.trailing_inverse(p, 20, z), [])):
            fresh = tp.Pencil(pencil.J, pencil.H)
            calls.clear()
            tp.m_table(fresh, z)
            assert calls == [], z
            op(fresh, z)
            assert calls == after, (z, op)


def test_eigenvalue_margin_after_m_table_reads_the_kept_margin(monkeypatch):
    """After m_table, eigenvalue_margin reads the margin the point kept for the full head (_Point.margin): no
    join of the twisted pivots and no twisted pass, and the same bits as on a fresh pencil, also where m_table
    raises at an eigenvalue."""
    calls = []
    joined, twisted_pivots = recurrence._joined, recurrence.twisted_pivots

    def count(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)
        return counted

    pencil = seeded_pencil(2, 40)
    top, bottom, middle = far_points(pencil)
    points = (top, middle, complex(bottom, -0.0), float(dense_spectrum(pencil)[3]))
    fresh = [tp.eigenvalue_margin(tp.Pencil(pencil.J, pencil.H), z) for z in points]
    monkeypatch.setattr(recurrence, "_joined", count("join", joined))
    monkeypatch.setattr(recurrence, "twisted_pivots", count("pass", twisted_pivots))
    for z, margin in zip(points, fresh):
        warm = tp.Pencil(pencil.J, pencil.H)
        try:
            tp.m_table(warm, z)
        except tp.SpectrumCollisionError:
            assert margin < SPECTRUM_RTOL
        calls.clear()
        assert bits(tp.eigenvalue_margin(warm, z)) == bits(margin), z
        assert calls == [], z
