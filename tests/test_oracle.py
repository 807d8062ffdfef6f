"""Ground-truth machinery: eigenvalues, dense inversion, instance generation."""

import math

import numpy as np
import pytest

import tripencil as tp
from tripencil import giep, oracle, recurrence
from tripencil.tolerances import ADMIT_SPECTRUM_MARGIN, SPECTRUM_RTOL
from support import (build_pencil, corpus_shape, dense_eigenpairs, dense_eigenvectors, dense_spectrum,
                     max_normalized, seeded_pencil)

CANARY = tp.GeneratorConfig(n=40, k=20, seed=0)  # the fixed n = 40 draw of the benchmark's roundtrip workload


class TestPencilEigenvalues:
    def test_scalar_linear_root(self):
        pencil = tp.Pencil(tp.SymmetricTridiagonal((2.0,), ()),
                           tp.HermitianTridiagonal((3.0,), ()))
        roots = tp.pencil_eigenvalues(pencil)
        assert len(roots) == 1
        assert abs(roots[0] - 1.5) < 1e-14

    def test_hand_quadratic(self):
        # c=[1,1], d=[0.5], a=[0,0], b=[i]: P_2 = 0.75 z^2 - 1
        pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0, 1.0), (0.5,)),
                           tp.HermitianTridiagonal((0.0, 0.0), (1j,)))
        roots = np.sort(tp.pencil_eigenvalues(pencil).real)
        expected = math.sqrt(4.0 / 3.0)
        assert abs(roots[0] + expected) < 1e-10
        assert abs(roots[1] - expected) < 1e-10

    def test_root_residuals(self, rng):
        pencil = build_pencil(rng, 6)
        roots = tp.pencil_eigenvalues(pencil)
        assert len(roots) == 7
        for r in roots:
            assert tp.eigenvalue_margin(pencil, r) < SPECTRUM_RTOL

    def test_pd_J_real_spectrum(self, rng):
        pencil = build_pencil(rng, 5)
        assert np.all(np.linalg.eigvalsh(pencil.J.dense()) > 0)
        roots = tp.pencil_eigenvalues(pencil)
        assert np.abs(roots.imag).max() <= 1e-8

    def test_matches_dense_oracle(self, rng):
        pencil = build_pencil(rng, 5)
        mine = np.sort(tp.pencil_eigenvalues(pencil).real)
        w, _ = dense_eigenpairs(pencil)
        assert np.abs(mine - np.sort(w.real)).max() < 1e-9

    @pytest.mark.parametrize("n", [40, 160])
    def test_matches_dense_spectrum(self, n):
        pencil = seeded_pencil(n, n)
        mine = tp.pencil_eigenvalues(pencil)
        reference = dense_spectrum(pencil)
        assert np.all(mine.imag == 0)
        assert np.abs(mine.real - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("seed", range(6))
    def test_indefinite_J_matches_dense_eigenpairs(self, seed):
        pencil = seeded_pencil(seed, 3 + seed, pd_J=False)
        mine = tp.pencil_eigenvalues(pencil)
        w, _ = dense_eigenpairs(pencil)
        assert len(mine) == len(w)
        # matched by nearest neighbour both ways: conjugate pairs share a real part
        for x, ys in ((mine, w), (w, mine)):
            for value in x:
                assert np.min(np.abs(ys - value)) <= 1e-9 * (1 + abs(value))

    @pytest.mark.parametrize("scale", [1e-13, 1e-15])
    def test_scaled_J_is_no_degree_drop(self, scale):
        # the leading minors of J scale like scale^m; the degree check reads their pivot margins
        pencil = seeded_pencil(3, 6)
        J = tp.SymmetricTridiagonal(tuple(scale * x for x in pencil.J.c), tuple(scale * x for x in pencil.J.d))
        mine = tp.pencil_eigenvalues(tp.Pencil(J, pencil.H)).real
        reference = dense_spectrum(pencil) / scale
        assert np.abs(mine - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_order_800_is_no_degree_drop(self):
        # the leading minors of J overflow before order 800; their pivots do not
        pencil = seeded_pencil(800, 800)
        mine = tp.pencil_eigenvalues(pencil).real
        reference = dense_spectrum(pencil)
        assert np.abs(mine - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_degree_drop_raises(self):
        pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0, 0.25, 1.0), (0.5, 0.5)),
                           tp.HermitianTridiagonal((0.0, 0.0, 0.0), (1j, 1j)))
        with pytest.raises(tp.DegreeDropError) as info:
            tp.pencil_eigenvalues(pencil)
        assert info.value.index == 2


class TestDenseResolvent:
    def test_scalar_reciprocal(self):
        pencil = tp.Pencil(tp.SymmetricTridiagonal((2.0,), ()),
                           tp.HermitianTridiagonal((3.0,), ()))
        X = tp.dense_resolvent(pencil, 2.0)
        assert abs(X[0, 0] - 1.0) < 1e-15

    def test_two_sided_residual(self, rng):
        pencil = build_pencil(rng, 3)
        omega = 0.3 + 1.1j
        X = tp.dense_resolvent(pencil, omega)
        A = pencil.dense_at(omega)
        eye = np.eye(4)
        assert np.abs(A @ X - eye).max() < 1e-10
        assert np.abs(X @ A - eye).max() < 1e-10

    def test_near_singular_rejected(self, rng):
        pencil = build_pencil(rng, 3)
        lam = float(tp.pencil_eigenvalues(pencil)[0].real)
        with pytest.raises((tp.NearSingularError, np.linalg.LinAlgError)):
            tp.dense_resolvent(pencil, lam)


class TestGenerateInstance:
    def test_smoke_round_trip(self):
        truth, inst = tp.generate_instance(tp.GeneratorConfig(n=2, k=1, seed=1))
        result = tp.solve(inst)
        report = tp.verify(truth, result)
        assert report.passed

    def test_deterministic_for_seed(self):
        a = tp.generate_instance(tp.GeneratorConfig(n=4, k=2, seed=9))
        b = tp.generate_instance(tp.GeneratorConfig(n=4, k=2, seed=9))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_zero_im_ratio_rejected(self):
        with pytest.raises(ValueError):
            tp.GeneratorConfig(n=3, k=1, seed=0, min_im_ratio=0.0)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            tp.GeneratorConfig(n=3, k=3, seed=0)

    def test_emitted_instance_meets_solver_hypotheses(self):
        truth, inst = tp.generate_instance(tp.GeneratorConfig(n=6, k=2, seed=17))
        # pole ratios above the imaginary floor
        for j in range(2, 6):
            assert abs((truth.H.b[j] / truth.J.d[j]).imag) >= 0.1
        # solve must not raise on generated data
        result = tp.solve(inst)
        assert min(abs(x) for x in result.deltas) > 0

    def test_admits_order_40_canary(self):
        """The extreme pair and tails of the n = 40 draw are the dense eigenpairs."""
        truth, inst = tp.generate_instance(CANARY)
        w, X = dense_eigenvectors(truth)
        assert abs(inst.lam - w[-1]) <= 1e-12 * abs(w).max()
        assert abs(inst.mu - w[0]) <= 1e-12 * abs(w).max()
        for tail, x in ((inst.tail_p, X[:, -1]), (inst.tail_s, X[:, 0])):
            assert np.abs(max_normalized(tail) - max_normalized(x[20:])).max() <= 1e-12

    def test_admits_by_the_margins_solve_tests(self, monkeypatch):
        """Admission reads heads k - 1 and k at lam and mu: bit for bit the margins solve then raises on."""
        admitted, tested = [], []
        solver_head_margins, check_margins = giep._solver_head_margins, giep._check_margins

        def admit(pencil, k, z):
            sweep, margins = solver_head_margins(pencil, k, z)
            admitted.append(margins)
            return sweep, margins

        def check(margins, first, z):
            tested.append(margins)
            check_margins(margins, first, z)

        monkeypatch.setattr(oracle, "_solver_head_margins", admit)
        monkeypatch.setattr(giep, "_check_margins", check)
        configs = [tp.GeneratorConfig(n=n, k=k, seed=seed) for seed in range(200) for n, k in [corpus_shape(seed)]]
        for config in configs + [CANARY]:
            admitted.clear()
            tested.clear()
            _, inst = tp.generate_instance(config)
            tp.solve(inst)
            # the admitted attempt is the last, and it computed both points, lam then mu
            assert len(tested) == 2 and len(admitted) >= 2
            for ours, theirs in zip(admitted[-2:], tested):
                assert ours.shape == (2,) and ours.tobytes() == theirs.tobytes()
                assert ours.min() >= ADMIT_SPECTRUM_MARGIN

    def test_canary_admits_a_draw_with_a_near_collision_on_an_unread_head(self):
        """Solve never reads the heads past k; a draw that comes close to their spectra still solves."""
        truth, inst = tp.generate_instance(CANARY)
        unread = min(recurrence.head_margins(truth, recurrence.pivot_sweep(truth, truth.n, z), inst.k + 1).min()
                     for z in (inst.lam, inst.mu))
        assert unread < ADMIT_SPECTRUM_MARGIN
        report = tp.verify(truth, tp.solve(inst))
        assert report.passed
        assert max(report.entry_errors.values()) <= 1e-8
        assert max(report.residual_lambda, report.residual_mu) <= 1e-7

    @pytest.mark.parametrize("n", [20, 40])
    def test_generated_instances_solve_within_the_acceptance_bounds(self, n):
        for seed in range(30):
            truth, inst = tp.generate_instance(tp.GeneratorConfig(n=n, k=n // 2, seed=seed))
            report = tp.verify(truth, tp.solve(inst))
            assert max(report.entry_errors.values()) <= 1e-8, seed
            assert max(report.residual_lambda, report.residual_mu) <= 1e-7, seed

    def test_failure_counts_the_rejections_of_each_test(self, monkeypatch):
        monkeypatch.setattr(oracle, "ADMIT_DELTA_RTOL", math.inf)  # every Delta_j test rejects
        with pytest.raises(tp.GenerationFailedError) as info:
            tp.generate_instance(CANARY)
        # the attempts the head test rejects, counted from the draws themselves
        head = 0
        for attempt in range(100):
            truth = oracle._draw_truth(CANARY, np.random.default_rng([CANARY.seed, attempt]))
            eigs = tp.pencil_eigenvalues(truth)
            head += any(recurrence.head_margins(truth, recurrence.pivot_sweep(truth, CANARY.k + 1, z.real),
                                                CANARY.k - 1).min() < ADMIT_SPECTRUM_MARGIN
                        for z in (eigs[-1], eigs[0]))
        assert head == 52
        expected = {"degree drop": 0, "eigenvalue gap": 0, "head spectrum": head, "v_0": 0, "Delta_j": 100 - head}
        assert info.value.rejections == expected
        assert info.value.seed == 0
        assert str(info.value) == ("no admissible instance after 100 attempts (seed=0); rejected by "
                                   "degree drop 0, eigenvalue gap 0, head spectrum 52, v_0 0, Delta_j 48")

    def test_delta_admission_is_scale_invariant(self):
        # attempt 0 has |Delta_j| / scale_j >= 0.58 with tails of size ~1e-10: a regular system, which a
        # test against scale_j + 1 rejected
        config = tp.GeneratorConfig(n=9, k=6, seed=43)
        truth, inst = tp.generate_instance(config)
        assert truth == oracle._draw_truth(config, np.random.default_rng([config.seed, 0]))
        report = tp.verify(truth, tp.solve(inst))
        assert max(report.entry_errors.values()) <= 1e-8
        assert max(report.residual_lambda, report.residual_mu) <= 1e-7

    def test_random_pair_strategy(self):
        # a non-extreme eigenvalue pair of a generated truth still solves
        truth, _ = tp.generate_instance(tp.GeneratorConfig(n=4, k=1, seed=5))
        eigs = np.sort(tp.pencil_eigenvalues(truth).real)
        inst = tp.instance_from_truth(truth, 1, float(eigs[-2]), float(eigs[1]))
        assert inst.lam != inst.mu
        report = tp.verify(truth, tp.solve(inst))
        assert report.passed


class TestVerify:
    def test_perfect_reconstruction_passes(self):
        truth, inst = tp.generate_instance(tp.GeneratorConfig(n=5, k=2, seed=23))
        report = tp.verify(truth, tp.solve(inst))
        assert report.passed
        assert max(report.entry_errors.values()) < 1e-10
        assert report.pipeline == "eigenpair"

    def test_perturbed_entry_fails_with_offender(self):
        truth, inst = tp.generate_instance(tp.GeneratorConfig(n=5, k=2, seed=23))
        result = tp.solve(inst)
        b = list(result.H.b)
        b[3] += 1e-3
        tampered = tp.ReconstructionResult(
            H=tp.HermitianTridiagonal(result.H.a, tuple(b)),
            head_p=result.head_p, head_s=result.head_s, deltas=result.deltas,
            residual_lambda=result.residual_lambda, residual_mu=result.residual_mu,
            imaginary_flags=result.imaginary_flags)
        report = tp.verify(truth, tampered)
        assert not report.passed
        offenders = [key for key, err in report.entry_errors.items() if err > 1e-7]
        assert offenders == ["b_3"]

    def test_residuals_match_recomputation(self):
        truth, inst = tp.generate_instance(tp.GeneratorConfig(n=4, k=1, seed=31))
        result = tp.solve(inst)
        report = tp.verify(truth, result)
        full_p = np.concatenate([result.head_p, inst.tail_p])
        matrix = tp.Pencil(inst.J, result.H).dense_at(inst.lam)
        recomputed = np.linalg.norm(matrix @ full_p) / (
            np.linalg.norm(matrix) * np.linalg.norm(full_p))
        assert abs(report.residual_lambda - recomputed) <= 1e-12
