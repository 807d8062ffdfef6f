"""Recurrence-level tests: minors, convergents (via m_function), the pivot pass and its spectrum margins."""

import copy
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripencil as tp
from tripencil import recurrence
from tripencil.tolerances import DEGREE_DROP_RTOL, SPECTRUM_RTOL
from support import (bits, build_pencil, dense_spectrum, far_points, hand_pencil, mpmath_reference,
                     reference_liouville, reference_pq, scaled_pencil, seeded_pencil, sweep_prefix, toeplitz_pencil,
                     worst_relative)


def test_eval_p_initial_condition(rng):
    pencil = build_pencil(rng, 3)
    assert tp.eval_p(pencil, 0, 0.7 + 0.2j) == 1.0


def test_eval_p_single_step():
    pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0,), ()),
                       tp.HermitianTridiagonal((0.0,), ()))
    assert tp.eval_p(pencil, 1, 2.0) == 2.0


def test_eval_p_matches_dense_2x2(rng):
    pencil = build_pencil(rng, 1)
    z = 0.4 - 1.1j
    dense = np.linalg.det(pencil.dense_at(z))
    assert abs(tp.eval_p(pencil, 2, z) - dense) <= 1e-12 * abs(dense)


def test_eval_q_initial_conditions(rng):
    pencil = build_pencil(rng, 3)
    assert tp.eval_q(pencil, 0, 1.3) == 0.0
    assert tp.eval_q(pencil, 1, 1.3) == 1.0


def test_eval_q_matches_trailing_dense_det(rng):
    pencil = build_pencil(rng, 2)
    z = -0.8 + 0.5j
    dense = np.linalg.det(pencil.dense_at(z)[1:, 1:])
    assert abs(tp.eval_q(pencil, 3, z) - dense) <= 1e-12 * abs(dense)


def test_index_out_of_range(rng):
    pencil = build_pencil(rng, 2)
    with pytest.raises(ValueError):
        tp.eval_p(pencil, 4, 0.0)
    with pytest.raises(ValueError):
        tp.eval_q(pencil, -1, 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
def test_real_z_gives_real_values(seed, n):
    pencil = seeded_pencil(seed, n)
    z = float(np.random.default_rng(seed + 2).uniform(-3, 3))
    for m in range(n + 2):
        val = tp.eval_p(pencil, m, z)
        assert abs(val.imag) <= 1e-12 * (1 + abs(val))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 7))
def test_determinant_identity_random(seed, n):
    pencil = seeded_pencil(seed, n)
    z = complex(*np.random.default_rng(seed + 3).uniform(-2, 2, 2))
    dense = np.linalg.det(pencil.dense_at(z))
    assert abs(tp.eval_p(pencil, n + 1, z) - dense) <= 1e-9 * (1 + abs(dense))


def _first_not_finite(**sequences):
    """The ValueError text that the unscaled sweeps give for these values, or None where all are finite."""
    try:
        recurrence._check_finite(**sequences)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", [1, 2, 5, 10, 40, 160, 640])
def test_pq_sweep_is_the_list_recurrence_bit_for_bit(n):
    """pq_sweep steps on coefficients formed by one array pass, its w by Python's product rule; every bit of P,
    Q and the Liouville-Ostrogradsky residual stays that of the per-step list loop, and where the loop's values
    leave the double range, the error names its first entry that is not finite.  Real points are taken with
    either signed zero imaginary part, and each sweep also at the deepest order whose values are all finite."""
    compared = 0
    for seed in range(4):
        pencil = seeded_pencil(seed, n)
        top, bottom, middle = far_points(pencil)
        for z in (complex(top, 0.0), complex(top, -0.0), complex(bottom, 0.0), complex(bottom, -0.0), middle):
            P, Q = reference_pq(pencil, n + 1, z)
            finite = np.isfinite(P) & np.isfinite(Q)
            deepest = n + 1 if finite.all() else int(np.argmin(finite)) - 1
            assert deepest >= min(n + 1, 200)
            for upto in sorted({0, 1, 2, n // 2, n + 1, deepest}):
                want = _first_not_finite(P=P[:upto + 1], Q=Q[:upto + 1])
                if want is None:
                    got = recurrence.pq_sweep(pencil, upto, z)
                    for mine, reference in zip(got, (P, Q)):
                        assert np.array_equal(bits(mine), bits(reference[:upto + 1]))
                    compared += 1
                else:
                    with pytest.raises(ValueError) as exc:
                        recurrence.pq_sweep(pencil, upto, z)
                    assert str(exc.value) == want
            for m in sorted({0, 1, n // 2, n, deepest - 1}):
                if _first_not_finite(P=P[:m + 2], Q=Q[:m + 2]) is None:
                    got = tp.liouville_ostrogradsky_residual(pencil, m, z)
                    assert bits([got]) == bits([reference_liouville(pencil, m, z)])
                else:
                    with pytest.raises(ValueError, match=r"not finite"):
                        tp.liouville_ostrogradsky_residual(pencil, m, z)
    assert compared >= 40


@pytest.mark.parametrize("s", [520, 600])
def test_unscaled_sweeps_on_entries_near_the_overflow_threshold_are_the_per_step_loop(s):
    """On 2^s (J, H) each w overflows: the array pass warns of nothing, and each P/Q sweep raises the per-step
    loop's error, with its index and value.  The components and their derivatives are scale-free and finite:
    the bits of (J, H), which lie within 2e-14 of the 60-digit reference (worst 1.0e-15 for the earlier
    per-step loops, 1.1e-14 read off the pivots)."""
    unscaled = seeded_pencil(0, 10)
    pencil = scaled_pencil(unscaled, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (0.7, complex(0.7, -0.0), 0.3 + 0.5j):
            P, Q = reference_pq(pencil, 11, z)
            want = _first_not_finite(P=P, Q=Q)
            assert want is not None and want.startswith("P[2] = ")
            for call in (lambda: recurrence.pq_sweep(pencil, 11, z), lambda: tp.eval_p(pencil, 11, z),
                         lambda: tp.liouville_ostrogradsky_residual(pencil, 10, z)):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == want
            got, want = tp.right_components_with_derivative(pencil, z), tp.right_components_with_derivative(unscaled, z)
            assert all(np.array_equal(bits(mine), bits(theirs)) for mine, theirs in zip(got, want))
            exact = mpmath_reference(unscaled, z)
            assert max(worst_relative(want[0], exact.right), worst_relative(want[1], exact.right_derivative)) <= 2e-14


_BIG, _TOEPLITZ = seeded_pencil(3, 640), toeplitz_pencil(60, 2.5, 1.0, 0.3, 0.4 + 1e-9j)


@pytest.mark.parametrize("call, first", [
    (lambda: recurrence.pq_sweep(_BIG, 641, 5.0), "P[274]"),
    (lambda: tp.eval_p(_BIG, 641, 5.0), "P[274]"),
    (lambda: tp.eval_q(_BIG, 641, 5.0), "P[274]"),
    (lambda: tp.liouville_ostrogradsky_residual(_BIG, 640, 5.0), "P[274]"),
    (lambda: tp.right_components(_TOEPLITZ, 0.4), "components[35]"),
    (lambda: tp.left_components(_TOEPLITZ, 0.4), "components[35]"),
    (lambda: tp.right_components_with_derivative(_TOEPLITZ, 0.4), "components[35]"),
], ids=["pq_sweep", "eval_p", "eval_q", "liouville", "right", "left", "derivative"])
def test_unscaled_sweeps_raise_where_they_leave_the_double_range(call, first):
    """No NaN comes back: the error names the first entry that is not finite."""
    with pytest.raises(ValueError, match=r"not finite") as exc:
        call()
    assert str(exc.value).startswith(first + " = ")


class TestConvergent:
    """The depth-m convergent Q_m/P_m is the m-function m(z, m)."""

    def test_first_convergent(self):
        pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0, 1.0), (1.0,)),
                           tp.HermitianTridiagonal((0.0, 0.0), (1j,)))
        assert tp.m_function(pencil, 1, 2.0) == 0.5

    def test_hand_second_convergent(self):
        # 1/gamma_0 rounds 1/(3 - 10/3), so the hand value -3 comes back within a few spacings
        m = tp.m_function(hand_pencil(), 2, 3.0)
        assert m.imag == 0 and abs(m.real + 3.0) <= 8 * math.ulp(3.0)

    def test_rejects_spectrum_point(self, rng):
        pencil = build_pencil(rng, 2)
        root = tp.pencil_eigenvalues(pencil.head(2))[0]
        with pytest.raises(tp.SpectrumCollisionError):
            tp.m_function(pencil, 3, complex(root))

    def test_matches_bottom_up_continued_fraction(self, rng):
        pencil = build_pencil(rng, 4)
        c, d = pencil.J.c, pencil.J.d
        a, b = pencil.H.a, pencil.H.b
        z = 2.9 + 0.4j
        for m in range(1, 6):
            tail = z * c[m - 1] - a[m - 1]
            for j in range(m - 2, -1, -1):
                w = (z * d[j] - b[j]) * (z * d[j] - b[j].conjugate())
                tail = z * c[j] - a[j] - w / tail
            bottom_up = 1.0 / tail
            direct = tp.m_function(pencil, m, z)
            assert abs(bottom_up - direct) <= 1e-12 * abs(direct)


class TestLiouvilleOstrogradsky:
    def test_empty_product_case(self, rng):
        pencil = build_pencil(rng, 3)
        assert tp.liouville_ostrogradsky_residual(pencil, 0, 1.7) == 0.0

    def test_hand_pencil(self):
        assert tp.liouville_ostrogradsky_residual(hand_pencil(), 1, 0.3 + 0.9j) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_sweep(self, seed):
        pencil = seeded_pencil(seed, 5)
        zs = np.random.default_rng(seed + 4).uniform(-2, 2, (20, 2))
        worst = max(
            tp.liouville_ostrogradsky_residual(pencil, m, complex(zr, zi))
            for zr, zi in zs for m in range(6)
        )
        assert worst < 1e-9


@pytest.mark.parametrize("n", [1, 2, 10, 160, 640])
def test_pivot_sweep_prefix_is_the_shorter_sweep(n):
    """A sweep's prefix is the sweep that stops there, every field bit for bit; at a real point w, x and the
    pivots are exactly real, as R = (z*J - H)^-1 is exactly Hermitian only then."""
    pencil = seeded_pencil(n, n)
    eigs = dense_spectrum(pencil)
    fields = [field for field in recurrence.PivotSweep._fields if field != "z"]
    for z in (eigs[-1], eigs[0], *far_points(pencil)):
        full = recurrence.pivot_sweep(pencil, n + 1, z)
        if complex(z).imag == 0:
            assert not any(np.imag(getattr(full, field)).any() for field in ("weights", "x", "pivots")), z
        for upto in sorted({0, 1, n // 2, n + 1}):
            short, cut = recurrence.pivot_sweep(pencil, upto, z), sweep_prefix(full, upto)
            assert short.z == cut.z and len(short.pivots) == len(short.margins) == upto
            for field in fields:
                assert np.array_equal(bits(getattr(short, field)), bits(getattr(cut, field))), field


def test_rows_at_and_after_an_exactly_zero_pivot_use_the_true_zero():
    """D_1 = 1 - 1/1 is exactly zero: margin 0 and a stand-in of 2^-52 times its terms; then D_2 = -x_2 with
    a margin from x_2 alone (u_2 P_2 is the true zero), then x_3 = 0 and D_3 = u_3 bit for bit."""
    z = 0.5
    J = tp.SymmetricTridiagonal((2.0,) * 5, (1.0,) * 4)
    a = (0.0, 0.0, 0.25, 0.3, 0.5)
    pencil = tp.Pencil(J, tp.HermitianTridiagonal(a, (0.5 + 1j, 0.5 + 2j, 0.5 + 1j, 0.5 + 0j)))
    sweep = recurrence.pivot_sweep(pencil, 5, z)
    u3 = z * J.c[3] - a[3]  # as pivot_sweep forms it at a real z, in real arithmetic
    assert sweep.pivots.dtype == np.float64
    assert np.array_equal(sweep.weights[:2], [1, 4]) and sweep.pivots[0] == 1
    assert sweep.margins[1] == 0.0 and sweep.pivots[1] == 2.0 ** -52 * (1.0 + 0.0 + 1.0)
    assert sweep.pivots[2] == -sweep.weights[1] / sweep.pivots[1] and sweep.margins[2] == 1.0
    assert np.array_equal(bits(sweep.pivots[3]), bits(u3))
    assert sweep.margins[3] == abs(u3) / (abs(z * J.c[3]) + abs(a[3]))


def test_two_zero_minors_in_a_row_make_every_later_margin_0():
    """At z = 0 here D_1 = 0 and w_1 = 0, so P_2 = P_3 = 0 and every later minor: margins 0, stand-ins 2^-52."""
    pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0,) * 5, (1.0,) * 4),
                       tp.HermitianTridiagonal((-1.0, -1.0, 1.0, 1.0, 2.0), (1j, 0j, 0.5j, 1j)))
    sweep = recurrence.pivot_sweep(pencil, 5, 0.0)
    assert np.array_equal(sweep.margins, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(sweep.pivots[1:], [2.0 ** -52 * 2.0, 2.0 ** -52, 2.0 ** -52, 2.0 ** -52])


@pytest.mark.parametrize("n", [40, 160, 640])
def test_pivots_match_a_60_digit_pivot_recurrence(n):
    """|D_t - D_t(60 digits)| <= C eps (|z c_t| + |a_t| + |x_t|) at the two far real points and the complex one, C = 2.

    Measured worst C over seeds 0-2: 0.89 (n = 40), 0.91 (n = 160), 1.21 (n = 640).
    """
    worst = 0.0
    for seed in range(3):
        pencil = seeded_pencil(seed, n)
        c, a = np.asarray(pencil.J.c), np.asarray(pencil.H.a)
        for z in far_points(pencil):
            sweep = recurrence.pivot_sweep(pencil, n + 1, z)
            D = np.asarray(sweep.pivots)
            x = np.concatenate(([0j], np.asarray(sweep.weights) / D[:-1]))
            terms = np.abs(z * c) + np.abs(a) + np.abs(x)
            exact = mpmath_reference(pencil, z).pivots
            with mpmath.workdps(60):
                error = np.array([float(abs(mpmath.mpc(d.real, d.imag) - e)) for d, e in zip(D, exact)])
            worst = max(worst, float((error / terms).max()) / np.finfo(float).eps)
    assert worst <= 2.0, worst


class TestKappa:
    """kappa_m, the leading coefficient of P_m, is the order-m leading minor of J."""

    def test_constructed_degeneracy_flag(self):
        # c_0 c_1 = d_0^2  =>  kappa_2 = 0: the pivot of z*J - 0 at z = 1 cancels at order 2 only
        J = tp.SymmetricTridiagonal((1.0, 0.25, 1.0), (0.5, 0.5))
        minors = tp.Pencil(J, tp.HermitianTridiagonal((0.0, 0.0, 0.0), (0j, 0j)))
        margins = recurrence.pivot_sweep(minors, 3, 1.0).margins
        assert margins[1] <= DEGREE_DROP_RTOL
        assert margins[0] > DEGREE_DROP_RTOL and margins[2] > DEGREE_DROP_RTOL
        pencil = tp.Pencil(J, tp.HermitianTridiagonal((0.0, 0.0, 0.0), (1j, 1j)))
        with pytest.raises(tp.DegreeDropError) as info:
            tp.pencil_eigenvalues(pencil)
        assert info.value.index == 2


@pytest.mark.parametrize("n", [40, 160])
def test_eigenvalue_margin_separates_eigenvalues_from_gaps(n):
    pencil = seeded_pencil(n, n)
    eigs = dense_spectrum(pencil)
    assert max(tp.eigenvalue_margin(pencil, z) for z in eigs) < SPECTRUM_RTOL
    assert min(tp.eigenvalue_margin(pencil, z) for z in 0.5 * (eigs[1:] + eigs[:-1])) > 1e-6


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_in_spectrum_flags_every_sub_pencil_eigenvalue(seed):
    # including those whose eigenvector nearly vanishes at the last row, where the pivot margin stays large
    pencil = seeded_pencil(seed, 10 + seed)
    for m in range(1, pencil.n + 2):
        eigs = dense_spectrum(pencil.head(m - 1))
        head = pencil.head(m - 1)
        assert all(tp.eigenvalue_margin(head, lam) < SPECTRUM_RTOL for lam in eigs)
        assert not any(tp.eigenvalue_margin(head, mid) < SPECTRUM_RTOL for mid in 0.5 * (eigs[1:] + eigs[:-1]))


def test_head_margins_of_all_orders_match_one_order_at_a_time():
    pencil = seeded_pencil(4, 30)
    for z in (0.37, 1.1 + 0.2j):
        sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, z)
        together = recurrence.head_margins(sweep)[0]
        alone = [tp.eigenvalue_margin(pencil.head(m - 1), z) for m in range(1, pencil.n + 2)]
        assert np.array_equal(together, alone)
        # fewer heads stop the loop elsewhere: the same bits
        assert np.array_equal(recurrence.head_margins(sweep_prefix(sweep, 28))[0], together[:28])
        # the last head alone takes the scalar pass of the head test, all heads the vector loop: the same bits
        assert recurrence._Point(sweep).check((pencil.n,)).twisted[1] == together[-1]


def _all_steps_margins(pencil, sweep, first):
    """head_margins as a plain N-step loop, with no early stop: the backward pivots of all heads, row by row.

    Returns the margins of heads first..N-1 and the backward pivots of head(N-1), rows 0..N-1.  It steps
    in the sweep's dtype: at a real point, on z.real in real arithmetic, as pivot_sweep does.
    """
    N = len(sweep.pivots)
    z = sweep.z if np.iscomplexobj(sweep.u) else sweep.z.real
    zc, av = z * np.asarray(pencil.J.c[:N]), np.asarray(pencil.H.a[:N])
    u = zc - av
    w, x = sweep.weights, sweep.x
    ux, sx = u - x, np.abs(zc) + np.abs(av) + np.abs(x)
    best = sweep.margins[first:].copy()

    def stand_in(Y, terms):  # an exactly zero pivot: 2^-52 times its terms, or 2^-52 where those are zero
        return np.where(Y == 0, 2.0 ** -52 * np.where(terms > 0, terms, 1.0), Y)

    Y = stand_in(u[first:], np.abs(zc[first:]) + np.abs(av[first:]))
    assert Y.dtype == sweep.u.dtype
    back = [Y[-1]]
    for s in range(1, N):
        h = max(s - first, 0)
        rows = slice(first + h - s, N - s)
        y = w[rows] / Y[h:]
        ay = np.abs(y)
        best[h:] = np.minimum(best[h:], np.abs(ux[rows] - y) / (sx[rows] + ay))
        Y[h:] = stand_in(u[rows] - y, np.abs(zc[rows]) + np.abs(av[rows]) + ay)
        back.append(Y[-1])
    return best, np.array(back[::-1])


def _assert_twisted_pivots_match_head_margins(sweep):
    """twisted_pivots' margin and gamma_0 of each head, on its prefix of the sweep, equal head_margins' bit for bit,
    and so do the backward pivots of the full head."""
    heads = [sweep_prefix(sweep, t + 1) for t in range(len(sweep.pivots))]
    alone = [recurrence.twisted_pivots(head) for head in heads]
    margins, corners, back = recurrence.head_margins(sweep)
    dtype = sweep.u.dtype  # the sweep's: float64 at a real point
    assert corners.dtype == back.dtype == alone[-1][2].dtype == dtype, sweep.z
    assert np.array_equal(margins, [margin for _, margin, _ in alone]), sweep.z
    assert np.array_equal(bits(corners), bits(np.array([gamma[0] for gamma, _, _ in alone], dtype))), sweep.z
    assert np.array_equal(bits(back), bits(alone[-1][2])), sweep.z


def _assert_margins_match_all_steps(pencil, points, firsts):
    """head_margins equals the N-step loop and twisted_pivots bit for bit; returns {(point, first): guard fires}.

    The N-step loop runs heads first..N-1 alone, and matches the slice of head_margins' heads 0..N-1; the
    backward pivots of head(N-1) that it steps are those of head_margins and of twisted_pivots.
    """
    fired = {}
    for z in points:
        sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, z)
        _assert_twisted_pivots_match_head_margins(sweep)
        margins, _, back = recurrence.head_margins(sweep)
        for first in firsts:
            loop, loop_back = _all_steps_margins(pencil, sweep, first)
            assert np.array_equal(margins[first:], loop), (z, first)
            assert np.array_equal(bits(back), bits(loop_back)), (z, first)
            fired[z, first] = bool((margins[first:] < SPECTRUM_RTOL).any())
    return fired


@pytest.mark.parametrize("n", [40, 160, 640])
def test_head_margins_stop_early_with_the_margins_of_all_steps(n):
    pencil = seeded_pencil(n + 1, n)
    eigs = dense_spectrum(pencil)
    points = [eigs[0] - 1.5, eigs[-1] + 1.5, 0.5 * (eigs[0] + eigs[-1]) + 0.5j]
    near = [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3]
    on_head = []  # (eigenvalue, order of its head)
    for m in (n // 4, n // 2 + 1, n - 1):
        head = dense_spectrum(pencil.head(m))
        for lam in (head[0], head[len(head) // 2]) if n < 640 else (head[len(head) // 3],):
            on_head.append((lam, m))
            points += [lam, *(lam * (1 + rel) for rel in near)]
    firsts = (0, n // 2, n - 1)
    fired = _assert_margins_match_all_steps(pencil, points, firsts)
    assert not any(fired[z, first] for z in points[:3] for first in firsts)
    assert all(fired[lam, first] for lam, m in on_head for first in firsts if first <= m)


def test_head_margins_through_an_exactly_zero_backward_pivot():
    # at z = 0 every row has u = 1 and w = |b|^2 = 1, so the second backward pivot of each head,
    # u - w/u, is exactly zero and the loop takes its stand-in
    pencil = toeplitz_pencil(12, 1.0, 1.0, -1.0, 1j)
    sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, 0.0)
    u, w = -np.asarray(pencil.H.a), np.asarray(sweep.weights)
    assert u[-2] - w[-1] / u[-1] == 0
    _assert_margins_match_all_steps(pencil, [0.0, 1e-17, 0.25j], (0, 5, 11))


@pytest.mark.parametrize("n", [10, 160, 640])
def test_twisted_pivots_of_each_head_match_head_margins_bit_for_bit(n):
    pencil = seeded_pencil(3, n)
    eigs = dense_spectrum(pencil)
    for z in (eigs[-1] + 1.5, eigs[0] - 1.5, 0.5 * (eigs[n // 2] + eigs[n // 2 + 1]), 0.3 + 0.5j):
        _assert_twisted_pivots_match_head_margins(recurrence.pivot_sweep(pencil, n + 1, z))


def test_twisted_pivots_of_each_head_through_an_exactly_zero_pivot():
    # the pencil of test_head_margins_through_an_exactly_zero_backward_pivot, its scaled copy (u = 2, w = 4),
    # and pencils with u = 0 at z = 0, where the bottom pivot of every head is exactly zero
    for pencil in (toeplitz_pencil(12, 1.0, 1.0, -1.0, 1j), toeplitz_pencil(12, 1.0, 1.0, -2.0, 2j),
                   toeplitz_pencil(11, 2.5, 1.0, 0.0, 1j), toeplitz_pencil(12, 2.5, 1.0, 0.0, 1j)):
        for z in (0.0, 1e-17, 0.25j):
            _assert_twisted_pivots_match_head_margins(recurrence.pivot_sweep(pencil, pencil.n + 1, z))


def test_an_exact_one_row_head_eigenvalue_has_margin_0():
    # the pivot is exactly zero, with no term of its own: its stand-in must not count as one
    pencil = tp.Pencil(tp.SymmetricTridiagonal((2.5,), ()), tp.HermitianTridiagonal((0.0,), ()))
    assert tp.eigenvalue_margin(pencil, 0.0) == 0.0


def test_several_heads_through_an_exactly_zero_bottom_pivot():
    # u = 0 at z = 0, so the bottom pivot of every head is exactly zero; 0 is an eigenvalue of head(12)
    pencil = toeplitz_pencil(12, 2.5, 1.0, 0.0, 1j)
    sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, 0.0)
    assert np.array_equal(recurrence.head_margins(sweep)[0][11:], [1.0, 0.0])
    with pytest.raises(tp.SpectrumCollisionError) as info:
        recurrence._Point(sweep).check((12,))
    assert info.value.order == 12
    assert (info.value.value, info.value.tol) == (0.0, SPECTRUM_RTOL)
    assert "margin 0.000e+00 < tol 1.0e-10" in str(info.value)


def _same(mine, theirs):
    """Equal bit for bit, or both NaN: the sign of a NaN is no part of a margin."""
    return (math.isnan(mine) and math.isnan(theirs)) or bits(mine).tobytes() == bits(theirs).tobytes()


def _assert_margin_pass_is_twisted_pivots(sweep):
    """The margin pass of each head t equals twisted_pivots on the sweep's rows 0..t in its margin and gamma_0, bit
    for bit (NaN where it gives NaN), the margin as a float and gamma_0 in the sweep's dtype."""
    for t in range(len(sweep.pivots)):
        with np.errstate(all="ignore"):  # both pass through infinities where w leaves the double range
            gamma, margin, _ = recurrence.twisted_pivots(sweep_prefix(sweep, t + 1))
            mine, corner = recurrence._head_margin(sweep, t)
        assert type(mine) is float and corner.dtype == gamma.dtype, (sweep.z, t)
        assert _same(mine, margin), (sweep.z, t, mine, margin)
        assert _same(corner.real, gamma[0].real) and _same(corner.imag, gamma[0].imag), (sweep.z, t)


def test_the_margin_pass_of_each_head_is_twisted_pivots_bit_for_bit():
    """At real and complex points, on the spectrum of the pencil and of a head, through the exactly zero pivots of
    the Toeplitz pencils and the row whose terms all vanish, and on 2^s times a pencil, s = -600, 520 and 600."""
    pencil = seeded_pencil(3, 40)
    eigs, sub = dense_spectrum(pencil), dense_spectrum(pencil.head(20))
    points = [*far_points(pencil), 0.5 * (eigs[20] + eigs[21]), 0.3 + 0.5j, eigs[0], eigs[-1], sub[10]]
    for z in points:
        _assert_margin_pass_is_twisted_pivots(recurrence.pivot_sweep(pencil, pencil.n + 1, z))
    for exact in (toeplitz_pencil(12, 1.0, 1.0, -1.0, 1j), toeplitz_pencil(12, 1.0, 1.0, -2.0, 2j),
                  toeplitz_pencil(11, 2.5, 1.0, 0.0, 1j), toeplitz_pencil(12, 2.5, 1.0, 0.0, 1j)):
        for z in (0.0, 1e-17, 0.25j):
            _assert_margin_pass_is_twisted_pivots(recurrence.pivot_sweep(exact, exact.n + 1, z))
    vanishing = tp.Pencil(tp.SymmetricTridiagonal((1.0,) * 4, (1.0,) * 3),
                          tp.HermitianTridiagonal((1.0, 0.0, 1.0, 1.0), (0j, 0j, 0.5j)))
    _assert_margin_pass_is_twisted_pivots(recurrence.pivot_sweep(vanishing, 4, 0.0))
    base = seeded_pencil(0, 10)
    eigs = dense_spectrum(base)
    nan = 0
    for s in (-600, 520, 600):
        scaled = scaled_pencil(base, s)
        for z in (*far_points(base), eigs[4], 0.3 + 0.5j):
            sweep = recurrence.pivot_sweep(scaled, 11, z)
            _assert_margin_pass_is_twisted_pivots(sweep)
            with np.errstate(all="ignore"):
                nan += sum(math.isnan(recurrence._head_margin(sweep, t)[0]) for t in range(11))
    assert nan  # w leaves the double range at 2^600: the NaN of the margins is kept


def test_a_row_whose_terms_all_vanish_reads_margin_0():
    # at z = 0 row 1 has z c_1 = a_1 = 0 and poles on both sides (b_0 = b_1 = 0, so w_0 = w_1 = 0):
    # every head through it is singular, and its twisted margin must read 0, not 0/0
    pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0,) * 4, (1.0,) * 3),
                       tp.HermitianTridiagonal((1.0, 0.0, 1.0, 1.0), (0j, 0j, 0.5j)))
    sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, 0.0)
    margins = recurrence.head_margins(sweep)[0]
    assert margins.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert [recurrence.twisted_pivots(sweep_prefix(sweep, t + 1))[1] for t in range(4)] == margins.tolist()
    assert tp.eigenvalue_margin(pencil, 0.0) == 0.0
    with pytest.raises(tp.SpectrumCollisionError) as info:
        tp.resolvent_matrix(pencil, 0.0)
    assert info.value.order == 3
    with pytest.raises(tp.SpectrumCollisionError) as info:
        tp.m_table(pencil, 0.0)
    assert info.value.order == 1


def test_head_test_error_carries_the_margin():
    pencil = seeded_pencil(5, 20)
    for m in (4, 11):
        z = dense_spectrum(pencil.head(m))[1]
        sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, z)
        margins = recurrence.head_margins(sweep)[0]
        t = int(np.flatnonzero(margins < SPECTRUM_RTOL)[0])
        # the head test on the one head, m_table on all: both report head(t), the first below the tolerance
        for guarded in (lambda: recurrence._Point(sweep).check((t,)),
                        lambda: tp.m_table(pencil, z)):
            with pytest.raises(tp.SpectrumCollisionError) as info:
                guarded()
            assert (info.value.order, info.value.value, info.value.tol) == (t, margins[t], SPECTRUM_RTOL)
            assert f"margin {margins[t]:.3e} < tol {SPECTRUM_RTOL:.1e}" in str(info.value)


def test_head_margins_of_a_pencil_shorter_than_the_join_depth():
    # off the spectrum the passes join only after a few dozen rows: here they reach row 0 first
    pencil = seeded_pencil(3, 6)
    eigs = dense_spectrum(pencil)
    points = [eigs[-1] + 1.5, 0.3 + 0.5j, *(0.5 * (eigs[1:] + eigs[:-1]))]
    _assert_margins_match_all_steps(pencil, points, range(pencil.n))


def _rise_and_fall(rng, N):
    """N steps at random phases whose prefix products climb about 2^1400 and come back down."""
    climb = 2800.0 / N  # mean log2 size of a step
    log2 = np.concatenate([rng.uniform(0.5, 1.5, N // 2), -rng.uniform(0.5, 1.5, N - N // 2)]) * climb
    return np.exp2(log2) * np.exp(1j * rng.uniform(-np.pi, np.pi, N))


def _exact_ratios(steps, scale):
    """C_t/C_i * scale[t] as an O(1) mantissa times 2^E[i, t], from prefix products C_t in mpmath.

    Only the rounding of the mantissas to doubles and their quotient, a few
    eps, separates it from the exact ratio.
    """
    with mpmath.workprec(200):
        prefix = [mpmath.mpc(1)]
        for q in steps:
            prefix.append(prefix[-1] * mpmath.mpc(q.real, q.imag))
        expo = np.array([int(mpmath.frexp(abs(c))[1]) for c in prefix])
        mant = np.array([complex(c * mpmath.mpf(2) ** -int(e)) for c, e in zip(prefix, expo)])
    return np.multiply.outer(1.0 / mant, mant * scale), expo[None, :] - expo[:, None]


@pytest.mark.parametrize("N, scaled", [(60, False), (300, False), (300, True)])
def test_unit_upper_matches_mpmath_across_the_double_range(N, scaled):
    """The blocked assembly: accurate over the mid range, finite up to 1e300, tiny below 1e-320."""
    rng = np.random.default_rng(N + scaled)
    steps = _rise_and_fall(rng, N)
    scale = np.exp2(rng.uniform(-10, 10, N + 1)) * np.exp(1j * rng.uniform(-np.pi, np.pi, N + 1))
    base, E = _exact_ratios(steps, scale if scaled else 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # entries past 2^1024 overflow, as they must
        S = recurrence._unit_upper(recurrence._prefix_products(steps), scale if scaled else None)
        back = np.ldexp(S.real, -E) + 1j * np.ldexp(S.imag, -E)  # S[i, t] / 2^E[i, t]
    assert E.max() > 1100  # the prefix products span more than 2^1100
    upper = np.triu(np.ones(S.shape, dtype=bool), 1)
    log10 = np.log10(np.abs(base)) + E * np.log10(2.0)
    assert np.all(S[~upper & ~np.eye(N + 1, dtype=bool)] == 0)
    assert np.array_equal(np.diagonal(S), scale if scaled else np.ones(N + 1))

    mid = upper & (np.abs(log10) <= 250)
    assert mid.sum() > N
    assert np.max(np.abs(back[mid] - base[mid]) / np.abs(base[mid])) <= 4 * N * np.finfo(float).eps
    assert np.isfinite(S[upper & (log10 < 300)]).all()
    low = upper & (log10 < -320)
    assert low.sum() >= 10
    assert np.abs(S[low]).max() <= 1e-280


def _m_route_at(pencil, z):
    table = tp.m_table(pencil, 40.0)
    return tp.reconstruct_from_m(pencil.J, 2, z, table, tp.right_components(pencil, 40.0),
                                 tp.left_components(pencil, 40.0), pencil.H.b[2])


POINT_OPERATIONS = {
    "eval_p": lambda pencil, z: tp.eval_p(pencil, 3, z),
    "eval_q": lambda pencil, z: tp.eval_q(pencil, 3, z),
    "liouville_ostrogradsky_residual": lambda pencil, z: tp.liouville_ostrogradsky_residual(pencil, 3, z),
    "right_components": tp.right_components,
    "left_components": tp.left_components,
    "right_components_with_derivative": tp.right_components_with_derivative,
    "eigenvector_components": tp.eigenvector_components,
    "eigenvalue_margin": tp.eigenvalue_margin,
    "m_function": lambda pencil, z: tp.m_function(pencil, 3, z),
    "m_table": tp.m_table,
    "resolvent_matrix": tp.resolvent_matrix,
    "ldu_factors": tp.ldu_factors,
    "trailing_inverse": lambda pencil, z: tp.trailing_inverse(pencil, 2, z),
    "reconstruct_from_m": _m_route_at,
    "trace_identity_residuals": lambda pencil, z: tp.trace_identity_residuals(pencil, 2, z, 0.5),
    "positivity_witness": lambda pencil, z: tp.positivity_witness(pencil, 2, z),
}


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan)], ids=["nan", "inf", "1+nan*i"])
@pytest.mark.parametrize("name", sorted(POINT_OPERATIONS))
def test_a_non_finite_point_raises(name, z):
    # no sweep has a value there: a ValueError that names the point, not a table of NaNs
    with pytest.raises(ValueError, match=r"^the point z = .* is not finite$"):
        POINT_OPERATIONS[name](seeded_pencil(2, 6), z)



def test_the_point_slot_is_read_only_and_no_part_of_the_value():
    """The sweep, twisted pass, head margins and unit prefix products a pencil keeps for its last point are
    read-only, whichever operation filled the pass; copy, pickle, == and hash neither carry nor read them, nor
    the pivots and the eigenvalues that J and the pencil keep for pencil_eigenvalues."""
    pencil = seeded_pencil(1, 10)
    z = 0.3 + 0.5j
    for first in (tp.m_table, tp.resolvent_matrix):  # the pass handed over by the head test, or its own
        pencil.__dict__.pop("_point", None)
        first(pencil, z)
        tp.ldu_factors(pencil, z)
        tp.m_table(pencil, z)  # keeps the head margins, with the pass it finds or its own
        point = recurrence._at_point(pencil, z)
        twisted, unit = point.twisted, point.unit
        (gamma, margin, backward), (right, left) = twisted, unit
        for x in (*point.sweep[1:], gamma, backward, *point.kept, *right[:2], *left[:2]):
            assert isinstance(x, np.ndarray) and not x.flags.writeable
        with pytest.raises(ValueError):
            point.sweep.pivots[0] = 0
        assert recurrence._at_point(pencil, z) is point and point.twisted is twisted and point.unit is unit
    tp.pencil_eigenvalues(pencil)
    bare = tp.Pencil(pencil.J, pencil.H)
    assert bare == pencil and hash(bare) == hash(pencil) and pickle.dumps(bare) == pickle.dumps(pencil)
    for duplicate in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
        twin = duplicate(pencil)
        assert twin == pencil and hash(twin) == hash(pencil)
        assert "_point" not in vars(twin) and "_eigenvalues" not in vars(twin)
        assert twin.J is pencil.J or "_pivots" not in vars(twin.J)
        assert {"_point", "_eigenvalues"} <= set(vars(pencil)) and "_pivots" in vars(pencil.J)
    pivots, drop = pencil.J._pivots
    assert type(pivots) is tuple and drop is None  # immutable as kept
