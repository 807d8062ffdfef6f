"""Resolvent, factorization, trailing inverse and m-function reconstruction."""

import warnings

import numpy as np
import pytest

import tripencil as tp
from tripencil import recurrence
from tripencil.mfunctions import _trailing_diagonals
from tripencil.tolerances import DIFFERENCE_RTOL, FACTOR_RTOL, SPECTRUM_RTOL
from support import (build_pencil, dense_matrix, dense_spectrum, extreme_pair, far_points, reference_m_route, rel_err,
                     seeded_pencil, toeplitz_pencil, two_pole_pencil)


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


def test_array_guards_raise_at_the_first_failing_index():
    z = 0.5
    pencil = two_pole_pencil(z)
    sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, z)
    # off the spectrum and clear of FACTOR_RTOL: only the poles and the vanishing weights fail
    assert recurrence.eigenvalue_margin(pencil, z) > 1e-3 and min(sweep.margins) > FACTOR_RTOL
    for op in (lambda: tp.resolvent_matrix(pencil, z), lambda: recurrence.unit_factors(pencil, sweep)):
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


@pytest.mark.parametrize("n", [40, 160, 640])
def test_resolvent_is_exactly_hermitian_at_real_points(n):
    pencil = seeded_pencil(n, n)
    for omega in far_points(pencil)[:2]:
        R = tp.resolvent_matrix(pencil, omega)
        assert np.array_equal(R, R.conj().T)


@pytest.mark.parametrize("n", [40, 640])
def test_resolvent_holds_the_scaled_unit_factors_entry_for_entry(n):
    """F diag(1/gamma) above the diagonal and diag(1/gamma) G below it, formed in one array."""
    pencil = seeded_pencil(n, n)
    upper = np.triu(np.ones((n + 1, n + 1), dtype=bool), 1)
    for omega in far_points(pencil)[::2]:
        sweep = recurrence.pivot_sweep(pencil, n + 1, omega)
        diag = 1.0 / recurrence.twisted_pivots(pencil, sweep)[0]
        right, left = recurrence._unit_steps(pencil, sweep)
        F, G = recurrence._unit_upper(right, diag), recurrence._unit_upper(left, diag).T
        R = tp.resolvent_matrix(pencil, omega)
        assert np.array_equal(R[upper], F[upper])
        assert np.array_equal(R.T[upper], G.T[upper])
        assert np.array_equal(np.diagonal(R), diag)


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

    @pytest.mark.parametrize("n", [4, 10, 40])
    def test_entries_match_the_dense_reference(self, n):
        """The diagonals read in one pass give the entries of the dense (n-k)^2 formula, to roundoff.

        CPython and numpy round complex division differently, so the entries agree to a few ulps of
        their terms, not bit for bit: rel_err, as everywhere an entry of H is compared.
        """
        pencil = seeded_pencil(n, n)
        for omega in far_points(pencil)[::2]:
            for k in (n // 2, n - 1):  # below n/2, n = 40 components fail the guard scaled by max|p|
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
