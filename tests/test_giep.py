"""Reconstruction from two eigenpairs: systems, heads, diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

import tripencil as tp
from tripencil.tolerances import SPECTRUM_RTOL
from support import (build_pencil, corpus_shape, dense_eigenpairs, dense_eigenvectors, dense_spectrum, extreme_pair,
                     reference_pair_system, reference_positivity_witness, rel_err, seeded_pencil, toeplitz_pencil)


def make_case(rng, n, k, **kwargs):
    truth = build_pencil(rng, n, **kwargs)
    lam, mu = extreme_pair(truth)
    return truth, tp.instance_from_truth(truth, k, lam, mu)


class TestDelta:
    def test_real_pole_ratio_gives_zero(self, rng):
        truth, inst = make_case(rng, 3, 1, real_b_at=(1,))
        t = 0  # j = k = 1
        pr_j, pr_j1 = inst.tail_p[t], inst.tail_p[t + 1]
        sr_j, sr_j1 = inst.tail_s[t], inst.tail_s[t + 1]
        det = tp.delta(pr_j.conjugate() * pr_j1, sr_j.conjugate() * sr_j1)
        scale = abs(pr_j * pr_j1 * sr_j * sr_j1)
        assert abs(det) <= 1e-12 * (scale + 1)

    def test_matches_closed_product_form(self, rng):
        truth, inst = make_case(rng, 2, 1)
        j, lam, mu = 1, inst.lam, inst.mu
        pr_j, pr_j1 = inst.tail_p[0], inst.tail_p[1]
        sr_j, sr_j1 = inst.tail_s[0], inst.tail_s[1]
        det = tp.delta(pr_j.conjugate() * pr_j1, sr_j.conjugate() * sr_j1)
        assert abs(det) > 0
        # product form: 2i (lam-mu) Im(alpha_j) d_j^2 * P_j P_{j+1} at both
        # eigenvalues over the squared pole distances
        d = truth.J.d
        b = truth.H.b
        alpha = b[j] / d[j]
        denom = 1.0
        for t in range(j + 1):
            denom *= abs(b[t] - lam * d[t]) ** 2 * abs(b[t] - mu * d[t]) ** 2
        closed = (2j * (lam - mu) * alpha.imag * d[j] ** 2
                  * tp.eval_p(truth, j, lam) * tp.eval_p(truth, j, mu)
                  * tp.eval_p(truth, j + 1, lam) * tp.eval_p(truth, j + 1, mu) / denom)
        assert abs(closed - det) <= 1e-9 * abs(det)

    def test_swapping_eigenvalue_roles_negates(self, rng):
        _, inst = make_case(rng, 3, 1)
        alpha = inst.tail_p[0].conjugate() * inst.tail_p[1]
        beta = inst.tail_s[0].conjugate() * inst.tail_s[1]
        d1, d2 = tp.delta(alpha, beta), tp.delta(beta, alpha)
        assert abs(d1 + d2) <= 1e-12 * abs(d1)


def solve_b(inst):
    """b_k..b_{n-1} from the per-index 2x2 systems, as solve recovers them."""
    return tuple(system.solve()[0] for system in tp.pair_systems(inst, inst.tail_p, inst.tail_s))


class TestReconstructB:
    def test_round_trip_order4(self, rng):
        truth, inst = make_case(rng, 3, 1)
        bs = solve_b(inst)
        for j, b in zip(range(1, 3), bs):
            assert abs(b - truth.H.b[j]) <= 1e-9 * abs(truth.H.b[j])

    def test_real_pole_ratio_raises(self, rng):
        _, inst = make_case(rng, 4, 1, real_b_at=(2,))
        with pytest.raises(tp.SingularDeltaError) as exc:
            solve_b(inst)
        assert exc.value.index == 2

    def test_swap_symmetry(self, rng):
        truth, inst = make_case(rng, 3, 1)
        swapped = tp.GiepInstance(
            J=inst.J, head_a=inst.head_a, head_b=inst.head_b,
            lam=inst.mu, mu=inst.lam, tail_p=inst.tail_s, tail_s=inst.tail_p,
            k=inst.k)
        b1 = solve_b(inst)
        b2 = solve_b(swapped)
        assert max(abs(x - y) for x, y in zip(b1, b2)) <= 1e-9 * max(abs(x) for x in b1)

    def test_closed_form_agreement(self, rng):
        truth, inst = make_case(rng, 4, 2)
        bs = solve_b(inst)
        for system, b in zip(tp.pair_systems(inst, inst.tail_p, inst.tail_s), bs):
            closed, closed_conj = system.closed_form()
            assert abs(closed - b) <= 1e-9 * (1 + abs(b))
            assert abs(closed_conj - b.conjugate()) <= 1e-9 * (1 + abs(b))


class TestReconstructA:
    def test_round_trip_order4(self, rng):
        truth, inst = make_case(rng, 3, 1)
        a = tp.reconstruct_a(inst, truth.H.b[1:], inst.tail_p)
        for i, val in zip(range(2, 4), a):
            assert abs(val - truth.H.a[i]) <= 1e-9 * (1 + abs(truth.H.a[i]))

    def test_terminal_branch_only(self, rng):
        truth, inst = make_case(rng, 2, 1)
        a = tp.reconstruct_a(inst, truth.H.b[1:], inst.tail_p)
        assert len(a) == 1
        assert abs(a[0] - truth.H.a[2]) <= 1e-9 * (1 + abs(truth.H.a[2]))

    def test_perturbed_component_is_detected(self, rng):
        truth, inst = make_case(rng, 4, 1)
        tail = list(inst.tail_p)
        tail[2] *= 1.1
        try:
            a = tp.reconstruct_a(inst, truth.H.b[1:], tail)
        except tp.NonRealDiagonalError:
            return
        worst = max(abs(v - truth.H.a[i]) for i, v in zip(range(2, 5), a))
        assert worst > 1e-3


class TestHeadComponents:
    """The leading components p_0..p_{k-1} that solve returns, from the head pivots and the recovered b_k."""

    def test_k1_matches_dense_eigenvector(self, rng):
        truth, inst = make_case(rng, 3, 1)
        head = tp.solve(inst).head_p
        w, v = dense_eigenpairs(truth)
        u = v[:, -1]  # lam is the largest eigenvalue
        full = np.concatenate([head, inst.tail_p])
        cos = abs(np.vdot(u, full)) / (np.linalg.norm(u) * np.linalg.norm(full))
        assert cos >= 1 - 1e-9

    def test_round_trip_order5_k2(self, rng):
        truth, inst = make_case(rng, 4, 2)
        expected = tp.right_components(truth, inst.lam)[:2]
        head = tp.solve(inst).head_p
        assert np.abs(np.asarray(head) - expected).max() <= 1e-9 * (1 + np.abs(expected).max())

    def test_homogeneous_in_tail(self, rng):
        truth, inst = make_case(rng, 4, 2)
        gamma = 0.7 - 1.9j
        head = np.asarray(tp.solve(inst).head_p)
        scaled = np.asarray(tp.solve(dataclasses.replace(inst, tail_p=tuple(gamma * x for x in inst.tail_p))).head_p)
        assert np.abs(scaled - gamma * head).max() <= 1e-12 * np.abs(scaled).max()


class TestClassifyImaginary:
    def test_generic_split_matches_truth(self, rng):
        truth, inst = make_case(rng, 3, 1)
        for j, system in zip((1, 2), tp.pair_systems(inst, inst.tail_p, inst.tail_s)):
            rec = system.classify()
            assert abs(rec.x - truth.H.b[j].real) <= 1e-9 * (1 + abs(truth.H.b[j]))
            assert abs(rec.y - truth.H.b[j].imag) <= 1e-9 * (1 + abs(truth.H.b[j]))

    def test_pure_imaginary_truth_flags_ratio(self, rng):
        truth, inst = make_case(rng, 3, 1, pure_imag=True)
        for system in tp.pair_systems(inst, inst.tail_p, inst.tail_s):
            rec = system.classify()
            assert abs(rec.x) <= 1e-8 * abs(rec.y)
            assert rec.wall_ratio_ok

    def test_real_pole_ratio_refuses(self, rng):
        truth, inst = make_case(rng, 3, 1, real_b_at=(1,))
        with pytest.raises(tp.SingularDeltaError):
            tp.PairSystem(
                1, truth.J.d[1], inst.lam, inst.mu,
                inst.tail_p[0].conjugate() * inst.tail_p[1],
                inst.tail_s[0].conjugate() * inst.tail_s[1]).classify()


@pytest.fixture(scope="module")
def corpus_instances():
    """The instances of the acceptance corpus, seeds 0..199, and the n = 40 canary."""
    configs = [tp.GeneratorConfig(n=n, k=k, seed=seed) for seed in range(200) for n, k in [corpus_shape(seed)]]
    return [tp.generate_instance(config)[1] for config in configs + [tp.GeneratorConfig(n=40, k=20, seed=0)]]


def bits(*values):
    """The exact bits of complex or real values, signed zeros included."""
    return [float(x).hex() for value in values for x in (complex(value).real, complex(value).imag)]


def first_singular(systems):
    """The index of the first system whose solve raises SingularDeltaError, as solve meets them."""
    for system in systems:
        try:
            system.solve()
        except tp.SingularDeltaError as exc:
            return exc.index
    return None


class TestNeighbourProducts:
    def test_matches_the_eight_term_reference(self, corpus_instances):
        for inst in corpus_instances:
            for system in tp.pair_systems(inst, inst.tail_p, inst.tail_s):
                t = system.j - inst.k
                ref = reference_pair_system(system.j, system.d_j, inst.lam, inst.mu,
                                            inst.tail_p[t:t + 2], inst.tail_s[t:t + 2])
                flag = system.classify()
                assert bits(system.det, *system.solve()) == bits(ref.det, ref.u, ref.v)
                assert (bits(flag.x, flag.y), flag.wall_ratio_ok) == (bits(ref.x, ref.y), ref.ratio_ok)
                assert abs(system.scale - ref.scale) <= 4 * math.ulp(ref.scale)
                assert max(rel_err(x, y) for x, y in zip(system.closed_form(), ref.closed)) <= 1e-15

    def test_neighbour_ratios_give_the_same_system(self, corpus_instances):
        # rho_j = p_{j+1}/p_j = alpha_j/|p_j|^2: a real rescaling, to which every formula is homogeneous
        for inst in corpus_instances:
            p, s = inst.tail_p, inst.tail_s
            for system in tp.pair_systems(inst, p, s):
                t = system.j - inst.k
                ratios = tp.PairSystem(system.j, system.d_j, inst.lam, inst.mu, p[t + 1] / p[t], s[t + 1] / s[t])
                b, b_ratios = system.solve()[0], ratios.solve()[0]
                assert rel_err(b_ratios, b) <= 4e-15
                assert ratios.classify().wall_ratio_ok == system.classify().wall_ratio_ok

    def test_neighbour_ratios_raise_where_the_products_do(self):
        # the 20 real-pole cases of acceptance criterion 6
        rng = np.random.default_rng(616161)
        for case in range(20):
            n = 3 + case % 6
            k = 1 + case % (n - 1)
            j0 = k + case % (n - k)
            truth = build_pencil(rng, n, real_b_at=(j0,))
            lam, mu = extreme_pair(truth)
            inst = tp.instance_from_truth(truth, k, lam, mu)
            p, s = inst.tail_p, inst.tail_s
            ratios = [tp.PairSystem(j, inst.J.d[j], lam, mu, p[j - k + 1] / p[j - k], s[j - k + 1] / s[j - k])
                      for j in range(k, n)]
            assert first_singular(tp.pair_systems(inst, p, s)) == first_singular(ratios) == j0


class TestTraceIdentities:
    def test_random_order4(self, rng):
        truth = build_pencil(rng, 4)
        lam, mu = extreme_pair(truth)
        r1, r2 = tp.trace_identity_residuals(truth, 2, lam, mu)
        assert r1 < 1e-9 and r2 < 1e-9

    def test_trailing_1x1_edge(self, rng):
        truth = build_pencil(rng, 3)
        lam, mu = extreme_pair(truth)
        r1, r2 = tp.trace_identity_residuals(truth, 2, lam, mu)
        assert r1 < 1e-12 and r2 < 1e-12

    def test_equal_eigenvalues_rejected(self, rng):
        truth = build_pencil(rng, 3)
        with pytest.raises(ValueError):
            tp.trace_identity_residuals(truth, 1, 1.5, 1.5)

    def test_rejects_non_eigenvalue(self, rng):
        truth = build_pencil(rng, 3)
        lam, mu = extreme_pair(truth)
        with pytest.raises(ValueError, match="mu = .*SPECTRUM_RTOL"):
            tp.trace_identity_residuals(truth, 1, lam, mu - 10.0)

    @pytest.mark.parametrize("seed, n", [(3, 20), (3, 40), (4, 40), (5, 40)])
    def test_residuals_at_roundoff_on_localised_eigenvectors(self, seed, n):
        # the forward component recurrence left 7.1e-6, 2.2e-4, 4.0e-7 and 5.7e-5 in the first identity here
        pencil = seeded_pencil(seed, n)
        eigs = dense_spectrum(pencil)
        assert max(tp.trace_identity_residuals(pencil, n // 2, eigs[-1], eigs[0])) <= 1e-13

    def test_raises_where_the_terms_leave_the_double_range(self):
        # under v_0 = 1 the top eigenvector of this draw reaches 1e187 at row 593, and that at eigs[632] 1e156
        pencil = seeded_pencil(1, 640)
        eigs = dense_spectrum(pencil)
        with pytest.raises(ValueError, match="double range"):
            tp.trace_identity_residuals(pencil, 5, eigs[640], eigs[632])


def _dense_trace_identity_residuals(pencil, k, lam, mu):
    """trace_identity_residuals' two identities with the blocks of J assembled dense, on the same eigenvectors."""
    Jd = pencil.J.dense().astype(complex)
    b_k, d_k = pencil.H.b[k], pencil.J.d[k]
    p, s = tp.eigenvector_components(pencil, lam), tp.eigenvector_components(pencil, mu)
    pl, sl = p.conj(), s.conj()

    def residual(rows, left, right, t1, t2):
        block = Jd[rows, rows]
        lhs = (lam - mu) * (left[rows] @ block @ right[rows])
        terms = abs(lam - mu) * (np.abs(left[rows]) @ np.abs(block) @ np.abs(right[rows])) + abs(t1) + abs(t2)
        return abs(lhs - (t1 - t2)) / terms

    return (residual(slice(k + 1, None), pl, s, (b_k - lam * d_k) * pl[k] * s[k + 1],
                     (b_k.conjugate() - mu * d_k) * pl[k + 1] * s[k]),
            residual(slice(0, k + 1), sl, p, (b_k - lam * d_k) * sl[k] * p[k + 1],
                     (b_k.conjugate() - mu * d_k) * sl[k + 1] * p[k]))


@pytest.mark.parametrize("n", [5, 40, 160])
def test_banded_residuals_match_the_dense_formulas(n):
    from tripencil.giep import _relative_residual
    pencil = seeded_pencil(n, n)
    eigs = dense_spectrum(pencil)
    v = tp.eigenvector_components(pencil, eigs[-1])
    w = np.array([1, 1j]) @ np.random.default_rng(n).standard_normal((2, n + 1))
    for z, vec in ((eigs[-1], v), (eigs[-1], w), (eigs[0] - 0.3, w)):
        A = pencil.dense_at(z)
        dense = np.linalg.norm(A @ vec) / (np.linalg.norm(A) * np.linalg.norm(vec) + 1e-300)
        assert abs(_relative_residual(pencil, z, vec) - dense) <= 1e-13 * dense + 1e-16
    # at the extreme pair, on splits where neither eigenvalue is on a head spectrum (past k = 24 at
    # n = 40 and k = 62 at n = 160 the localised extreme eigenvectors put one there)
    lam, mu = eigs[-1], eigs[0]
    for k in {5: (1, 2, 4), 40: (1, 20, 24), 160: (1, 40, 62)}[n]:
        banded = tp.trace_identity_residuals(pencil, k, lam, mu)
        assert np.allclose(banded, _dense_trace_identity_residuals(pencil, k, lam, mu), rtol=1e-12, atol=1e-14)
        assert max(banded) < 1e-14
    # off the spectrum the identities are not defined
    with pytest.raises(ValueError, match="lam = .*SPECTRUM_RTOL"):
        tp.trace_identity_residuals(pencil, n // 2, eigs[-1] + 0.7, eigs[0] - 0.4)


class TestPositivityWitness:
    def test_near_identity_J(self, rng):
        n = 3
        d = tuple(0.05 * x for x in rng.uniform(0.5, 1.0, n) * rng.choice([-1, 1], n))
        c = tuple(1.0 for _ in range(n + 1))
        a = tuple(rng.uniform(-1, 1, n + 1))
        b = tuple(rng.uniform(-1, 1, n) + 1j * (0.3 + rng.uniform(0, 0.5, n)))
        truth = tp.Pencil(tp.SymmetricTridiagonal(c, d), tp.HermitianTridiagonal(a, b))
        _, mu = extreme_pair(truth)
        k = 1
        witness = tp.positivity_witness(truth, k, mu)
        s = tp.right_components(truth, mu)[:k + 1]
        dense = np.real(np.conj(s) @ truth.J.block(0, k) @ s)
        assert witness > 0
        assert abs(witness - dense) <= 1e-8 * abs(dense)

    def test_random_pd_J(self, rng):
        truth = build_pencil(rng, 4)
        assert np.all(np.linalg.eigvalsh(truth.J.dense()) > 0)
        _, mu = extreme_pair(truth)
        for k in (1, 2, 3):
            witness = tp.positivity_witness(truth, k, mu)
            s = tp.right_components(truth, mu)[:k + 1]
            dense = np.real(np.conj(s) @ truth.J.block(0, k) @ s)
            assert witness > 0
            assert abs(witness - dense) <= 1e-8 * abs(dense)

    def test_rejects_non_eigenvalue(self, rng):
        truth = build_pencil(rng, 3)
        lam, _ = extreme_pair(truth)
        with pytest.raises(ValueError, match="SPECTRUM_RTOL") as exc:
            tp.positivity_witness(truth, 1, lam + 10.0)
        assert f"{SPECTRUM_RTOL:g}" in str(exc.value)

    def test_matches_the_derivative_form_on_criterion_8_cases(self):
        rng = np.random.default_rng(818181)
        for case in range(20):
            n = 3 + case % 5
            truth = build_pencil(rng, n)
            k = 1 + case % (n - 1)
            mu = float(tp.pencil_eigenvalues(truth)[case % (n + 1)].real)
            witness = tp.positivity_witness(truth, k, mu)
            assert abs(reference_positivity_witness(truth, k, mu) - witness) <= 1e-10 * abs(witness)

    def test_order_640_matches_the_dense_quadratic_form(self):
        # the forward derivative recurrence gave this witness an imaginary part of 1.2e171
        truth, k = seeded_pencil(3, 640), 320
        eigs, vectors = dense_eigenvectors(truth)
        witness = tp.positivity_witness(truth, k, eigs[0])
        s = tp.eigenvector_components(truth, eigs[0])[:k + 1]
        v = vectors[:k + 1, 0]
        dense = np.real(np.conj(v) @ truth.J.block(0, k) @ v) / np.real(np.vdot(v, v))
        assert math.isfinite(witness) and witness > 0
        assert abs(witness / np.sum(np.abs(s) ** 2) - dense) <= 1e-12 * abs(dense)

    def test_raises_where_the_value_leaves_the_double_range(self):
        # under s_0 = 1 the top eigenvector of this draw reaches 1e187 at row 593, so |s|^2 overflows
        pencil = seeded_pencil(1, 640)
        with pytest.raises(ValueError, match="double range"):
            tp.positivity_witness(pencil, 600, dense_spectrum(pencil)[-1])

    def test_accepts_eigenvalue_whose_eigenvector_vanishes_at_the_end(self):
        # the top eigenvector of this draw is localized away from index n, so the
        # last pivot at the eigenvalue is O(1) and only the twisted margin is small
        truth = seeded_pencil(40, 40)
        lam = float(dense_spectrum(truth)[-1])
        assert tp.positivity_witness(truth, 20, lam) > 0


class TestSolve:
    def test_round_trip_n4_k2(self, rng):
        truth, inst = make_case(rng, 4, 2)
        result = tp.solve(inst)
        for j in range(2, 4):
            assert rel_err(result.H.b[j], truth.H.b[j]) <= 1e-8
        for j in range(3, 5):
            assert rel_err(result.H.a[j], truth.H.a[j]) <= 1e-8
        assert result.residual_lambda <= 1e-7
        assert result.residual_mu <= 1e-7
        assert result.H.a[:3] == truth.H.a[:3]
        assert result.H.b[:2] == truth.H.b[:2]

    def test_smallest_legal_instance(self, rng):
        truth, inst = make_case(rng, 2, 1)
        result = tp.solve(inst)
        assert rel_err(result.H.b[1], truth.H.b[1]) <= 1e-8
        assert rel_err(result.H.a[2], truth.H.a[2]) <= 1e-8

    def test_lambda_in_head_spectrum_raises(self, rng):
        truth, inst = make_case(rng, 3, 1)
        head = inst.head_pencil()
        bad = float(tp.pencil_eigenvalues(head.head(1))[0].real)
        corrupted = tp.GiepInstance(
            J=inst.J, head_a=inst.head_a, head_b=inst.head_b,
            lam=bad, mu=inst.mu,
            tail_p=tuple(tp.right_components(truth, bad)[1:]),
            tail_s=inst.tail_s, k=1)
        with pytest.raises(tp.SpectrumCollisionError):
            tp.solve(corrupted)

    @pytest.mark.parametrize("order", [2, 3])
    def test_lambda_in_head_spectrum_reports_its_order(self, order):
        # n = 6, k = 3: lam on the spectrum of head(k-1), then of head(k), both found by one pivot pass
        n, k = 6, 3
        for seed in range(20):
            truth = seeded_pencil(seed, n)
            inst = tp.instance_from_truth(truth, k, *extreme_pair(truth))
            bad = float(dense_spectrum(inst.head_pencil().head(order))[-1])
            corrupted = dataclasses.replace(inst, lam=bad, tail_p=tuple(tp.right_components(truth, bad)[k:]))
            with pytest.raises(tp.SpectrumCollisionError) as info:
                tp.solve(corrupted)
            assert info.value.order == order

    def test_lambda_on_a_head_with_exactly_zero_bottom_pivots_raises(self):
        # u = 0 at lam = 0, so the bottom pivot of head(k - 1) and of head(k) is exactly zero; lam is on head(k)
        truth = toeplitz_pencil(12, 2.5, 1.0, 0.0, 1j)
        mu = float(dense_spectrum(truth)[-1])
        for op in (lambda: tp.solve(tp.instance_from_truth(truth, 6, 0.0, mu)),
                   lambda: tp.trace_identity_residuals(truth, 6, 0.0, mu)):
            with pytest.raises(tp.SpectrumCollisionError) as info:
                op()
            assert (info.value.order, info.value.value, info.value.tol) == (6, 0.0, SPECTRUM_RTOL)

    def test_scaling_invariance(self, rng):
        truth, inst = make_case(rng, 4, 2)
        gamma, delta_scale = 1.3 - 0.4j, -0.2 + 2.1j
        scaled = tp.GiepInstance(
            J=inst.J, head_a=inst.head_a, head_b=inst.head_b,
            lam=inst.lam, mu=inst.mu,
            tail_p=tuple(gamma * x for x in inst.tail_p),
            tail_s=tuple(delta_scale * x for x in inst.tail_s),
            k=inst.k)
        r1 = tp.solve(inst)
        r2 = tp.solve(scaled)
        assert np.abs(np.asarray(r2.H.b) - np.asarray(r1.H.b)).max() <= 1e-9 * (1 + np.abs(np.asarray(r1.H.b)).max())
        assert np.abs(np.asarray(r2.H.a) - np.asarray(r1.H.a)).max() <= 1e-9 * (1 + np.abs(np.asarray(r1.H.a)).max())
        # heads follow the tail scalings
        assert np.abs(np.asarray(r2.head_p) - gamma * np.asarray(r1.head_p)).max() \
            <= 1e-9 * (1 + np.abs(np.asarray(r1.head_p)).max())

    @pytest.mark.parametrize("factor", [1e-4, 1e4])
    def test_tail_magnitude_does_not_trip_delta_guard(self, factor):
        _, inst = tp.generate_instance(tp.GeneratorConfig(n=8, k=3, seed=5))
        scaled = dataclasses.replace(inst, tail_p=tuple(factor * x for x in inst.tail_p),
                                     tail_s=tuple(factor * x for x in inst.tail_s))
        H = tp.solve(inst).H.dense()
        H_scaled = tp.solve(scaled).H.dense()
        assert np.abs(H_scaled - H).max() <= 1e-12 * np.abs(H).max()

    @pytest.mark.parametrize("n, k", [(40, 20), (160, 80)])
    def test_toeplitz_lambda_near_head_spectrum_is_no_collision(self, n, k):
        # lam stays ~1e-3 away from the order-k head spectrum, where a margin
        # taken against the coefficient magnitude of P_{k+1} falls below SPECTRUM_RTOL
        truth = toeplitz_pencil(n, 2.5, 1.0, 0.3, 0.4 + 0.3j)
        eigs = dense_spectrum(truth)
        inst = tp.instance_from_truth(truth, k, float(eigs[-1]), float(eigs[0]))
        result = tp.solve(inst)
        errors = [rel_err(result.H.b[j], truth.H.b[j]) for j in range(k, n)]
        errors += [rel_err(result.H.a[j], truth.H.a[j]) for j in range(k + 1, n + 1)]
        # measured: b 5e-15 / 7e-13 and a 1.6e-12 / 1.2e-11 at n = 40 / 160; the a entries carry
        # the roundoff of lam and mu through the tails, and move with the dense eigensolver
        assert max(errors[:n - k]) <= 5e-12
        assert max(errors) <= 1e-10
        assert max(result.residual_lambda, result.residual_mu) <= 1e-12

    def test_hermiticity_by_construction(self, rng):
        truth, inst = make_case(rng, 4, 1)
        result = tp.solve(inst)
        dense = result.H.dense()
        assert np.abs(dense - dense.conj().T).max() == 0.0


class TestInstanceValidation:
    def test_equal_eigenvalues_rejected(self, rng):
        truth, inst = make_case(rng, 3, 1)
        with pytest.raises(ValueError):
            tp.GiepInstance(J=inst.J, head_a=inst.head_a, head_b=inst.head_b,
                            lam=1.0, mu=1.0, tail_p=inst.tail_p,
                            tail_s=inst.tail_s, k=1)

    def test_split_index_bounds(self, rng):
        truth, inst = make_case(rng, 3, 1)
        with pytest.raises(ValueError):
            tp.GiepInstance(J=inst.J, head_a=inst.head_a, head_b=inst.head_b,
                            lam=inst.lam, mu=inst.mu, tail_p=inst.tail_p,
                            tail_s=inst.tail_s, k=3)

    def test_tail_length_checked(self, rng):
        truth, inst = make_case(rng, 3, 1)
        with pytest.raises(ValueError):
            tp.GiepInstance(J=inst.J, head_a=inst.head_a, head_b=inst.head_b,
                            lam=inst.lam, mu=inst.mu, tail_p=inst.tail_p[:-1],
                            tail_s=inst.tail_s, k=1)
