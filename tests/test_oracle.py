"""Ground-truth machinery: eigenvalues, dense inversion, instance generation."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import tripencil as tp
from tripencil import giep, oracle, recurrence
from tripencil.tolerances import ADMIT_SPECTRUM_MARGIN, DEGREE_DROP_RTOL, SPECTRUM_RTOL
from support import (bits, build_pencil, corpus_shape, dense_eigenpairs, dense_eigenvectors, dense_spectrum,
                     max_normalized, reference_draw_truth, reference_minor_sweep, seeded_pencil, sweep_prefix)


def sweep_bits(sweep):
    """The exact bytes of every field of a pivot sweep."""
    return [np.asarray(field).tobytes() for field in sweep]

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

    def test_degree_drop_error_carries_the_margin_and_tolerance(self):
        # c_1 = 1/4 + 2^-50: the order-2 pivot of J is 2^-50 exactly, against its terms 1/2 + 2^-50
        pencil = tp.Pencil(tp.SymmetricTridiagonal((1.0, 0.25 + 2.0 ** -50, 1.0), (0.5, 0.5)),
                           tp.HermitianTridiagonal((0.0, 0.0, 0.0), (1j, 1j)))
        margin = 2.0 ** -50 / (0.5 + 2.0 ** -50)
        with pytest.raises(tp.DegreeDropError) as info:
            tp.pencil_eigenvalues(pencil)
        assert (info.value.index, info.value.value, info.value.tol) == (2, margin, DEGREE_DROP_RTOL)
        assert f"pivot margin {margin:.3e} <= tol {DEGREE_DROP_RTOL:.1e}" in str(info.value)


def _minor_cases():
    """J of seeded pencils, of indefinite ones, and with exactly zero leading minors, and each J times 2^s."""
    exact = [((1.0, 0.25, 1.0), (0.5, 0.5)), ((1.0, 1.0, 3.0), (1.0, 1.0)), ((0.0,), ()), ((0.0, 1.0), (1.0,)),
             ((1.0,) * 13, (1.0,) * 12), ((2.5,) * 13, (1.0,) * 12), ((1.0, 0.25 + 2.0 ** -50, 1.0), (0.5, 0.5))]
    cases = [seeded_pencil(seed, n).J for seed, n in ((0, 1), (1, 6), (4, 8), (2, 40), (5, 160), (800, 800))]
    cases += [seeded_pencil(seed, 12, pd_J=False).J for seed in range(6)]
    cases += [tp.SymmetricTridiagonal(c, d) for c, d in exact]
    return cases + [tp.SymmetricTridiagonal(tuple(math.ldexp(x, s) for x in J.c), tuple(math.ldexp(x, s) for x in J.d))
                    for J in cases for s in (-1000, -520, 520, 1000)]


class TestMinorsOfJ:
    def test_the_pivot_loop_of_J_is_the_sweep_of_its_minors_pencil(self):
        """J's pivots times 2^e (e from its largest entry) are those of the pivot sweep of z*J - 0 at z = 1, bit for
        bit, up to the first margin at most DEGREE_DROP_RTOL, where both stop with the same margin; an exactly zero
        minor stops the loop with margin 0 and no division by it."""
        drops = 0
        for J in _minor_cases():
            pivots, drop = J._pivots
            sweep = reference_minor_sweep(J)
            low = np.flatnonzero(sweep.margins <= DEGREE_DROP_RTOL)
            if low.size:
                drops += 1
                assert (len(pivots), bits(drop).tobytes()) == (low[0] + 1, bits(sweep.margins[low[0]]).tobytes())
            else:
                assert drop is None and len(pivots) == J.n + 1
            e = math.frexp(max(map(abs, J.c + J.d)))[1] - 1
            rows = len(pivots) - (drop is not None)  # a zero pivot is a stand-in in the sweep
            assert np.array_equal(bits(np.ldexp(pivots[:rows], e)), bits(sweep.pivots[:rows]))
        assert drops == 6 * 5  # the six exact cases with a zero or near-zero minor, at each scale

    def test_positive_pivots_are_cholesky_and_give_a_positive_witness(self):
        """On pencils with an indefinite J: J's pivots on rows 0..k are all positive exactly where the Cholesky
        factorization of J_[0,k] exists, and there the positivity witness at each real eigenvalue mu is positive,
        the condition on the leading blocks of J that the paper isolates."""
        rng = np.random.default_rng(35)
        definite = witnessed = 0
        for draw in range(80):
            n = 2 + draw % 9
            pencil = build_pencil(rng, n, pd_J=False)
            pivots, drop = pencil.J._pivots
            assert drop is None
            eigs = tp.pencil_eigenvalues(pencil)
            real = [float(x.real) for x in eigs if abs(x.imag) <= 1e-12 * (1 + abs(x))]
            for k in range(n + 1):
                positive = all(D > 0 for D in pivots[:k + 1])
                try:
                    np.linalg.cholesky(pencil.J.block(0, k))
                except np.linalg.LinAlgError:
                    assert not positive, (draw, k)
                    continue
                assert positive, (draw, k)
                definite += 1
                if 1 <= k <= n - 1:
                    for mu in real:
                        assert tp.positivity_witness(pencil, k, mu) > 0, (draw, k, mu)
                        witnessed += 1
        assert definite >= 40 and witnessed >= 20


def test_the_generator_draws_the_stream_rng_choice_drew():
    """_draw_truth's signs, indexed by rng.integers, are those rng.choice drew: the same pencil, bit for bit, for
    the first attempts of every acceptance-corpus seed."""
    for seed in range(200):
        n, k = corpus_shape(seed)
        config = tp.GeneratorConfig(n=n, k=k, seed=seed)
        for attempt in range(3):
            mine = oracle._draw_truth(config, np.random.default_rng([seed, attempt]))
            theirs = reference_draw_truth(config, np.random.default_rng([seed, attempt]))
            assert mine == theirs
            assert all(type(x) is float for x in mine.J.c + mine.J.d + mine.H.a)
            assert np.array_equal(bits(mine.H.b + mine.J.c + mine.J.d + mine.H.a),
                                  bits(theirs.H.b + theirs.J.c + theirs.J.d + theirs.H.a))


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

    def test_degree_drop_margins_are_taken_once_per_J(self, monkeypatch):
        """pencil_eigenvalues runs J's pivot loop once per J: again on the same J, also under another H,
        it reads the kept pivots, with the same DegreeDropError index; a copy of J runs its own."""
        rows = []
        loop = tp.SymmetricTridiagonal.__dict__["_pivots"].func

        def record(J):
            rows.append(len(J.c))
            return loop(J)

        counted = functools.cached_property(record)
        counted.__set_name__(tp.SymmetricTridiagonal, "_pivots")
        monkeypatch.setattr(tp.SymmetricTridiagonal, "_pivots", counted)
        pencil = seeded_pencil(4, 8)
        first = tp.pencil_eigenvalues(pencil)
        other = tp.Pencil(pencil.J, tp.HermitianTridiagonal(pencil.H.a, pencil.H.b[::-1]))
        assert np.array_equal(tp.pencil_eigenvalues(pencil), first) and rows == [9]
        tp.pencil_eigenvalues(other)
        assert rows == [9]
        tp.pencil_eigenvalues(tp.Pencil(tp.SymmetricTridiagonal(pencil.J.c, pencil.J.d), pencil.H))
        assert rows == [9, 9]
        drop = tp.Pencil(tp.SymmetricTridiagonal((1.0, 1.0, 3.0), (1.0, 1.0)),
                         tp.HermitianTridiagonal((0.0,) * 3, (1j,) * 2))
        for _ in range(2):
            with pytest.raises(tp.DegreeDropError) as info:
                tp.pencil_eigenvalues(drop)
            assert info.value.index == 2
        assert rows == [9, 9, 3]

    def test_a_second_call_on_one_pencil_does_no_dense_work(self, monkeypatch):
        """The pencil keeps its eigenvalues: a second call gives the same bits with no dense solve, in a fresh
        array, so that mutating what a call returned leaves the next call's bits unchanged.  An equal but
        distinct pencil solves its own, and DegreeDropError is raised again on every call."""
        solves = []
        dense = oracle._dense_eigenvalues

        def record(pencil):
            solves.append(pencil.n)
            return dense(pencil)

        monkeypatch.setattr(oracle, "_dense_eigenvalues", record)
        pencil = seeded_pencil(4, 8)
        first = tp.pencil_eigenvalues(pencil)
        expected = first.tobytes()
        first[:] = 0
        for _ in range(2):
            again = tp.pencil_eigenvalues(pencil)
            assert again.tobytes() == expected and again.flags.writeable
            again[0] = 1.0
        assert solves == [8]
        assert tp.pencil_eigenvalues(tp.Pencil(pencil.J, pencil.H)).tobytes() == expected and solves == [8, 8]
        drop = tp.Pencil(tp.SymmetricTridiagonal((1.0, 1.0, 3.0), (1.0, 1.0)),
                         tp.HermitianTridiagonal((0.0,) * 3, (1j,) * 2))
        for _ in range(2):
            with pytest.raises(tp.DegreeDropError):
                tp.pencil_eigenvalues(drop)
        assert solves == [8, 8] and "_eigenvalues" not in vars(drop)

    def test_admits_by_the_margins_solve_tests(self, monkeypatch):
        """Admission tests heads k - 1 and k at lam and mu by solve's own head test, on the same rows, at its margin."""
        calls = []
        check = recurrence._Point.check

        def record(point, heads, tol=SPECTRUM_RTOL):
            calls.append((heads, tol, point.sweep))
            return check(point, heads, tol)

        monkeypatch.setattr(recurrence._Point, "check", record)
        configs = [tp.GeneratorConfig(n=n, k=k, seed=seed) for seed in range(200) for n, k in [corpus_shape(seed)]]
        for config in configs + [CANARY]:
            calls.clear()
            truth, inst = tp.generate_instance(config)
            admitted = calls[:]
            calls.clear()
            tp.solve(inst)
            tested, k = calls, inst.k
            # the admitted attempt is the last, and it passed both points, lam then mu
            assert len(tested) == 2 and len(admitted) >= 2
            assert [sweep.z for _, _, sweep in tested] == [inst.lam, inst.mu]
            for (heads, tol, ours), theirs in zip(admitted[-2:], tested):
                assert (heads, tol) == ((k - 1, k), ADMIT_SPECTRUM_MARGIN) and theirs[:2] == ((k - 1, k), SPECTRUM_RTOL)
                # the generator's point holds the full-order sweep, solve's the head pencil's rows 0..k
                assert sweep_bits(sweep_prefix(ours, k + 1)) == sweep_bits(theirs[2])
                assert min(recurrence.twisted_pivots(sweep_prefix(ours, rows))[1]
                           for rows in (k, k + 1)) >= ADMIT_SPECTRUM_MARGIN

    def test_solve_and_admission_take_two_scalar_passes_per_point(self, monkeypatch):
        """Heads k - 1 and k are tested by one margin pass each at lam and mu, both on one pivot sweep.

        The all-heads loop never runs.  The generator sweeps the full order once per point and tests the
        heads on its rows 0..k; its only other passes are the full-order twisted ones of the eigenvectors
        it takes the tails from, on the same sweeps.  pencil_eigenvalues sweeps nothing: J tests its own
        minors.
        """
        calls = []  # ("sweep", z, rows) per pivot sweep, ("margin", z, rows) per margin pass of the head over rows
        # 0..rows-1, ("pass", z, rows) per full twisted pass
        pivot_sweep, twisted_pivots, head_margin = (recurrence.pivot_sweep, recurrence.twisted_pivots,
                                                    recurrence._head_margin)

        def record_sweep(pencil, upto, z):
            calls.append(("sweep", complex(z), upto))
            return pivot_sweep(pencil, upto, z)

        def record_pass(sweep):
            calls.append(("pass", sweep.z, len(sweep.pivots)))
            return twisted_pivots(sweep)

        def record_margin(sweep, t):
            calls.append(("margin", sweep.z, t + 1))
            return head_margin(sweep, t)

        def all_heads(*args):
            raise AssertionError("head_margins runs")

        for module in (recurrence, giep, oracle):
            monkeypatch.setattr(module, "pivot_sweep", record_sweep)
        monkeypatch.setattr(recurrence, "twisted_pivots", record_pass)
        monkeypatch.setattr(recurrence, "_head_margin", record_margin)
        for module in (recurrence, giep, oracle, tp.mfunctions):
            if hasattr(module, "head_margins"):
                monkeypatch.setattr(module, "head_margins", all_heads)
        for config in (tp.GeneratorConfig(n=6, k=1, seed=3), tp.GeneratorConfig(n=9, k=8, seed=4), CANARY):
            calls.clear()
            _, inst = tp.generate_instance(config)
            k = inst.k

            def point(z, heads=(k, k + 1), rows=k + 1):
                return [("sweep", z, rows)] + [("margin", z, rows) for rows in heads]

            def eigenvector(z, n=inst.J.n):
                return [("pass", z, n + 1)]

            # per point tested: a full-order sweep, head(k - 1), then head(k) unless head(k - 1) rejected the draw;
            # the eigenvectors of an admitted draw follow the second point's heads
            n = inst.J.n
            starts = [i for i, call in enumerate(calls) if call[0] == "sweep"] + [len(calls)]
            for lo, hi in zip(starts, starts[1:]):
                z = calls[lo][1]
                assert calls[lo:hi] in (point(z, rows=n + 1), point(z, (k,), rows=n + 1),
                                        point(z, rows=n + 1) + eigenvector(inst.lam) + eigenvector(inst.mu))
            assert calls[-8:] == (point(inst.lam, rows=n + 1) + point(inst.mu, rows=n + 1)
                                  + eigenvector(inst.lam) + eigenvector(inst.mu))
            calls.clear()
            tp.solve(inst)
            assert calls == point(inst.lam) + point(inst.mu)

    def test_canary_admits_a_draw_with_a_near_collision_on_an_unread_head(self):
        """Solve never reads the heads past k; a draw that comes close to their spectra still solves."""
        truth, inst = tp.generate_instance(CANARY)
        unread = min(recurrence.head_margins(recurrence.pivot_sweep(truth, truth.n, z))[0][inst.k + 1:].min()
                     for z in (inst.lam, inst.mu))
        assert unread < ADMIT_SPECTRUM_MARGIN
        report = tp.verify(truth, tp.solve(inst))
        assert report.passed
        assert max(report.entry_errors.values()) <= 1e-8
        assert max(report.residual_lambda, report.residual_mu) <= 1e-7

    # at n = 80 seeds 0, 1, 3, 5, 6 and 11 have tails across up to 17 decades, which a component guard
    # against the largest component rejected
    @pytest.mark.parametrize("n", [20, 40, 80])
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
            head += any(recurrence.head_margins(recurrence.pivot_sweep(truth, CANARY.k + 1, z.real))
                        [0][CANARY.k - 1:].min() < ADMIT_SPECTRUM_MARGIN
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

    def test_a_split_outside_1_to_n_minus_1_raises(self):
        # k = n would check no entry at all and pass: verify refuses it, and k = 0, instead
        truth, inst = tp.generate_instance(tp.GeneratorConfig(n=5, k=2, seed=23))
        result = tp.solve(inst)
        for head in (result.head_p + (1j,) * 3, ()):
            with pytest.raises(ValueError, match=r"split index \d out of range 1\.\.4"):
                tp.verify(truth, dataclasses.replace(result, head_p=head))

    def test_an_m_route_result_of_the_wrong_shape_raises(self):
        truth, _ = tp.generate_instance(tp.GeneratorConfig(n=5, k=2, seed=23))
        good = tp.MRouteEntries(2, truth.H.b[3:], truth.H.a[3:])
        assert tp.verify(truth, good).passed
        for bad in (tp.MRouteEntries(2, truth.H.b[4:], truth.H.a[3:]),
                    tp.MRouteEntries(2, truth.H.b[3:], truth.H.a[2:]),
                    tp.MRouteEntries(5, (), ())):
            with pytest.raises(ValueError):
                tp.verify(truth, bad)
