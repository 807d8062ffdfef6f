"""Recurrence-level tests: minors, convergents (via m_function), the pivot pass and its spectrum margins."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripencil as tp
from tripencil import recurrence
from tripencil.tolerances import DEGREE_DROP_RTOL, SPECTRUM_RTOL
from support import build_pencil, dense_spectrum, far_points, hand_pencil, seeded_pencil, toeplitz_pencil


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


def _pq_lists(pencil, upto, z):
    """The P/Q recurrence indexed through its own lists, with the weight formula of the module docstring."""
    c, d = pencil.J.c, pencil.J.d
    a, b = pencil.H.a, pencil.H.b
    P, Q = [1.0 + 0j], [0.0 + 0j]
    if upto >= 1:
        P.append(z * c[0] - a[0])
        Q.append(1.0 + 0j)
    for m in range(1, upto):
        u = z * c[m] - a[m]
        w = (z * d[m - 1] - b[m - 1]) * (z * d[m - 1] - b[m - 1].conjugate())
        P.append(u * P[m] - w * P[m - 1])
        Q.append(u * Q[m] - w * Q[m - 1])
    return P, Q


@pytest.mark.parametrize("n", [10, 160, 640])
def test_pq_sweep_is_the_list_recurrence_bit_for_bit(n):
    """pq_sweep carries the last two values in locals; every bit of P and Q stays that of the list loop."""
    pencil = seeded_pencil(3, n)
    for z in map(complex, far_points(pencil)):
        P, Q = (np.asarray(x) for x in _pq_lists(pencil, n + 1, z))
        finite = np.isfinite(P) & np.isfinite(Q)
        upto = n + 1 if finite.all() else int(np.argmin(finite)) - 1
        assert upto >= min(n + 1, 200)
        got = [np.asarray(x) for x in recurrence.pq_sweep(pencil, upto, z)]
        for mine, reference in zip(got, (P, Q)):
            assert np.array_equal(mine.view(np.uint64), reference[:upto + 1].view(np.uint64))


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
        assert tp.m_function(hand_pencil(), 2, 3.0) == -3.0

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
        together = recurrence.head_margins(pencil, sweep)
        alone = [tp.eigenvalue_margin(pencil.head(m - 1), z) for m in range(1, pencil.n + 2)]
        assert np.array_equal(together, alone)
        assert np.array_equal(recurrence.head_margins(pencil, sweep, 27), together[27:])
        # the last head alone takes the scalar pass, two heads the vector loop: the same bits
        last_two = recurrence.head_margins(pencil, sweep, pencil.n - 1)
        assert last_two[1] == recurrence.head_margins(pencil, sweep, pencil.n)[0]


def _all_steps_margins(pencil, sweep, first):
    """head_margins as a plain N-step loop, with no early stop: the backward pivots of all heads, row by row."""
    N = len(sweep.pivots)
    z = sweep.z
    zc, av = z * np.asarray(pencil.J.c[:N]), np.asarray(pencil.H.a[:N])
    u = zc - av
    w = np.asarray(sweep.weights, dtype=complex)
    x = np.concatenate(([0j], w / np.asarray(sweep.pivots[:-1])))
    ux, sx = u - x, np.abs(zc) + np.abs(av) + np.abs(x)
    best = np.asarray(sweep.margins[first:])

    def stand_in(Y, terms):  # an exactly zero pivot: 2^-52 times its terms, or 2^-52 where those are zero
        return np.where(Y == 0, 2.0 ** -52 * np.where(terms > 0, terms, 1.0), Y)

    Y = stand_in(u[first:], np.abs(zc[first:]) + np.abs(av[first:]))
    for s in range(1, N):
        h = max(s - first, 0)
        rows = slice(first + h - s, N - s)
        y = w[rows] / Y[h:]
        ay = np.abs(y)
        best[h:] = np.minimum(best[h:], np.abs(ux[rows] - y) / (sx[rows] + ay))
        Y[h:] = stand_in(u[rows] - y, np.abs(zc[rows]) + np.abs(av[rows]) + ay)
    return best


def _assert_twisted_pivots_match_head_margins(pencil, sweep):
    """twisted_pivots' margin of each head, on its prefix of the sweep, equals head_margins' bit for bit."""
    alone = [recurrence.twisted_pivots(pencil, sweep.prefix(t + 1))[1] for t in range(len(sweep.pivots))]
    assert np.array_equal(recurrence.head_margins(pencil, sweep), alone), sweep.z


def _assert_margins_match_all_steps(pencil, points, firsts):
    """head_margins equals the N-step loop and twisted_pivots bit for bit; returns {(point, first): guard fires}."""
    fired = {}
    for z in points:
        sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, z)
        _assert_twisted_pivots_match_head_margins(pencil, sweep)
        for first in firsts:
            margins = recurrence.head_margins(pencil, sweep, first)
            assert np.array_equal(margins, _all_steps_margins(pencil, sweep, first)), (z, first)
            fired[z, first] = bool((margins < SPECTRUM_RTOL).any())
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
        _assert_twisted_pivots_match_head_margins(pencil, recurrence.pivot_sweep(pencil, n + 1, z))


def test_twisted_pivots_of_each_head_through_an_exactly_zero_pivot():
    # the pencil of test_head_margins_through_an_exactly_zero_backward_pivot, its scaled copy (u = 2, w = 4),
    # and pencils with u = 0 at z = 0, where the bottom pivot of every head is exactly zero
    for pencil in (toeplitz_pencil(12, 1.0, 1.0, -1.0, 1j), toeplitz_pencil(12, 1.0, 1.0, -2.0, 2j),
                   toeplitz_pencil(11, 2.5, 1.0, 0.0, 1j), toeplitz_pencil(12, 2.5, 1.0, 0.0, 1j)):
        for z in (0.0, 1e-17, 0.25j):
            _assert_twisted_pivots_match_head_margins(pencil, recurrence.pivot_sweep(pencil, pencil.n + 1, z))


def test_an_exact_one_row_head_eigenvalue_has_margin_0():
    # the pivot is exactly zero, with no term of its own: its stand-in must not count as one
    pencil = tp.Pencil(tp.SymmetricTridiagonal((2.5,), ()), tp.HermitianTridiagonal((0.0,), ()))
    assert tp.eigenvalue_margin(pencil, 0.0) == 0.0


def test_several_heads_through_an_exactly_zero_bottom_pivot():
    # u = 0 at z = 0, so the bottom pivot of every head is exactly zero; 0 is an eigenvalue of head(12)
    pencil = toeplitz_pencil(12, 2.5, 1.0, 0.0, 1j)
    sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, 0.0)
    assert np.array_equal(recurrence.head_margins(pencil, sweep, 11), [1.0, 0.0])
    with pytest.raises(tp.SpectrumCollisionError) as info:
        recurrence.check_spectrum(pencil, sweep, 11)
    assert info.value.order == 12
    assert (info.value.value, info.value.tol) == (0.0, SPECTRUM_RTOL)
    assert "margin 0.000e+00 < tol 1.0e-10" in str(info.value)


def test_check_spectrum_error_carries_the_margin():
    pencil = seeded_pencil(5, 20)
    for m in (4, 11):
        z = dense_spectrum(pencil.head(m))[1]
        sweep = recurrence.pivot_sweep(pencil, pencil.n + 1, z)
        margins = recurrence.head_margins(pencil, sweep)
        t = int(np.flatnonzero(margins < SPECTRUM_RTOL)[0])
        with pytest.raises(tp.SpectrumCollisionError) as info:
            recurrence.check_spectrum(pencil, sweep)
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
        S = recurrence._unit_upper(list(steps), scale if scaled else None)
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
