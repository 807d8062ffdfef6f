"""Independent ground-truth machinery: eigenvalues, dense inversion, generators.

The eigensolver is dense numpy linear algebra on the assembled J and H
(Cholesky of a positive-definite J, then a Hermitian eigensolver), so it
shares nothing with the recurrences; there is no coefficient-polynomial or
companion-matrix route.  The instance generator manufactures reconstruction
problems whose answer is known: it takes the eigenvector tails from a
twisted factorization (eigenvector_components) and rejects draws that sit
too close to a boundary of the tests solve applies.  Its head test is
solve's own, the twisted margins of head(k - 1) and head(k) at lam and mu
read through the same helper, held to the wider ADMIT_SPECTRUM_MARGIN;
neither reads the heads past k.  It reads them on rows 0..k of one
full-order sweep per eigenvalue, which is the shorter sweep bit for bit,
and takes the tail at that eigenvalue from the same sweep.  So solver
failures on generated data are bugs by definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (DegreeDropError, GenerationFailedError, NearSingularError, SpectrumCollisionError,
                     VanishingComponentError)
from .giep import GiepInstance, ReconstructionResult, _check_split, pair_systems
from .mfunctions import MRouteEntries
from .pencil import HermitianTridiagonal, Pencil, SymmetricTridiagonal
from .recurrence import _Point, _twisted_eigenvector, eigenvector_components, pivot_sweep
from .tolerances import (ADMIT_DELTA_RTOL, ADMIT_SPECTRUM_MARGIN, DEGREE_DROP_RTOL, DENSE_RESIDUAL_RTOL,
                         EIGENVALUE_GAP_TOL, ENTRY_TOL, NEAR_SINGULAR_RTOL, RESIDUAL_TOL)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the seeded instance generator.

    min_im_ratio bounds |Im(b_j/d_j)| from below for j >= k, keeping the
    reconstruction determinants away from zero.  J is always drawn strictly
    diagonally dominant with positive diagonal, hence positive definite, so
    the pencil spectrum is real; the eigenvalue pair is the extreme one
    (largest and smallest, maximizing |lam - mu|).
    """

    n: int
    k: int
    seed: int
    min_im_ratio: float = 0.1

    def __post_init__(self):
        _check_split(self.k, self.n)
        if not self.min_im_ratio > 0:
            raise ValueError("min_im_ratio must be positive")


@dataclass(frozen=True)
class VerificationReport:
    """Per-entry errors of a reconstruction against its ground truth."""

    entry_errors: Mapping[str, float]
    residual_lambda: float
    residual_mu: float
    delta_magnitudes: tuple[float, ...]
    pipeline: str
    passed: bool


def _relative(err_val: complex, truth: complex) -> float:
    return abs(err_val - truth) / (1.0 + abs(truth))


def pencil_eigenvalues(pencil: Pencil) -> np.ndarray:
    """All n+1 eigenvalues of the pencil (roots of P_{n+1}), sorted by real part.

    For a positive-definite J = L L^T they are the eigenvalues of the
    Hermitian L^-1 H L^-H, hence real; otherwise those of J^-1 H.  Raises
    DegreeDropError(t+1) where the order-(t+1) leading minor of J cancels,
    read from the margin of its LDL^T pivot D_t (SymmetricTridiagonal._pivots):
    O(n), scale-invariant and free of overflow.  J keeps its pivots, so a
    second call on the same J runs no loop.  The pencil keeps its
    eigenvalues, read-only and no part of its value, and each call returns a
    fresh copy of them: a second call on the same pencil does no dense work.
    The error is not kept; it is raised again.
    """
    pivots, drop = pencil.J._pivots
    if drop is not None:
        raise DegreeDropError(len(pivots), drop, DEGREE_DROP_RTOL)
    kept = pencil.__dict__.get("_eigenvalues")
    if kept is None:
        kept = _dense_eigenvalues(pencil)
        kept.setflags(write=False)
        object.__setattr__(pencil, "_eigenvalues", kept)
    return kept.copy()


def _dense_eigenvalues(pencil: Pencil) -> np.ndarray:
    """pencil_eigenvalues by dense linear algebra, once its degree-drop check has passed."""
    J, H = pencil.J.dense(), pencil.H.dense()
    try:
        L = np.linalg.cholesky(J)
    except np.linalg.LinAlgError:
        out = np.linalg.eigvals(np.linalg.solve(J, H)).astype(complex)
        return out[np.lexsort((out.imag, out.real))]
    return np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, H).conj().T)).astype(complex)


def dense_resolvent(pencil: Pencil, omega: complex) -> np.ndarray:
    """Inverse of the dense assembly of (w*J - H) by partial-pivoting elimination."""
    A = pencil.dense_at(omega)
    n1 = A.shape[0]
    det = complex(np.linalg.det(A))
    hadamard = float(np.prod(np.linalg.norm(A, axis=1)))
    if abs(det) < NEAR_SINGULAR_RTOL * (hadamard + 1.0):
        raise NearSingularError(f"determinant {abs(det):.3e} below tolerance at omega={omega}")
    try:
        X = np.linalg.solve(A, np.eye(n1, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(str(exc)) from exc
    residual = float(np.abs(A @ X - np.eye(n1)).max())
    if residual > DENSE_RESIDUAL_RTOL * (1.0 + float(np.abs(A).max()) * float(np.abs(X).max())):
        raise NearSingularError(f"dense inverse residual {residual:.3e} too large")
    return X


def instance_from_truth(truth: Pencil, k: int, lam: float, mu: float) -> GiepInstance:
    """Build the reconstruction problem a ground-truth pencil would pose.

    Tails are the eigenvector components of the truth at the two eigenvalues
    (eigenvector_components, normalized to 1 at index 0).  No hypothesis
    checks are performed here, so deliberately degenerate instances (for
    negative controls) can be constructed.
    """
    return _instance(truth, k, lam, mu, eigenvector_components(truth, lam), eigenvector_components(truth, mu))


def _instance(truth: Pencil, k: int, lam: float, mu: float, p: np.ndarray, s: np.ndarray) -> GiepInstance:
    """instance_from_truth with the eigenvectors p at lam and s at mu, v_0 = 1, given."""
    return GiepInstance(
        J=truth.J,
        head_a=truth.H.a[:k + 1],
        head_b=truth.H.b[:k],
        lam=float(lam),
        mu=float(mu),
        tail_p=tuple(p[k:]),
        tail_s=tuple(s[k:]),
        k=k,
    )


_SIGNS = np.array([-1.0, 1.0])


def _draw_truth(config: GeneratorConfig, rng: np.random.Generator) -> Pencil:
    """One draw of the generator; the signs index _SIGNS by rng.integers, the stream rng.choice draws them from."""
    n = config.n
    d = rng.uniform(0.5, 2.0, n) * _SIGNS[rng.integers(0, 2, n)]
    pads = np.concatenate([[0.0], np.abs(d)]) + np.concatenate([np.abs(d), [0.0]])
    c = pads + rng.uniform(0.3, 1.3, n + 1)
    a = rng.uniform(-1.0, 1.0, n + 1)
    b_re = rng.uniform(-1.0, 1.0, n)
    # |Im(b_j/d_j)| >= min_im_ratio for j >= k; a mild floor below k keeps the
    # head poles off the real axis, where the eigenvalues live
    mags = 0.05 + rng.uniform(0.0, 0.95, n)
    mags[config.k:] = config.min_im_ratio * 1.001 + rng.uniform(0.0, 0.9, n - config.k)
    b_im = _SIGNS[rng.integers(0, 2, n)] * mags * d
    b = b_re + 1j * b_im
    return Pencil(SymmetricTridiagonal(c.tolist(), d.tolist()), HermitianTridiagonal(a.tolist(), b.tolist()))


def generate_instance(config: GeneratorConfig) -> tuple[Pencil, GiepInstance]:
    """Manufacture a (truth, instance) pair satisfying every solver hypothesis.

    Deterministic for a fixed seed; each rejected draw advances a sub-seed so
    reruns reproduce the same sequence of attempts.  The admission tests run
    in the order degree drop, eigenvalue gap, head spectrum, v_0, Delta_j;
    GenerationFailedError reports how many attempts each rejected.
    """
    k = config.k
    rejected = dict.fromkeys(("degree drop", "eigenvalue gap", "head spectrum", "v_0", "Delta_j"), 0)
    for attempt in range(100):
        rng = np.random.default_rng([config.seed, attempt])
        truth = _draw_truth(config, rng)
        try:
            eigs = pencil_eigenvalues(truth)
        except DegreeDropError:
            rejected["degree drop"] += 1
            continue
        lam, mu = float(eigs[-1].real), float(eigs[0].real)
        if abs(lam - mu) < EIGENVALUE_GAP_TOL:
            rejected["eigenvalue gap"] += 1
            continue

        # stay clearly outside the spectra solve tests, those of head(k - 1) and head(k) (rows 0..k),
        # on the margins it reads, from the rows 0..k of the full-order sweeps the tails are then taken from
        points = []
        try:
            for z in (lam, mu):
                points.append(_Point(pivot_sweep(truth, config.n + 1, z)).check((k - 1, k), ADMIT_SPECTRUM_MARGIN))
        except SpectrumCollisionError:
            rejected["head spectrum"] += 1
            continue

        try:
            inst = _instance(truth, k, lam, mu, *(_twisted_eigenvector(point)[0] for point in points))
        except VanishingComponentError:
            rejected["v_0"] += 1
            continue

        if any(abs(system.det) < ADMIT_DELTA_RTOL * system.scale
               for system in pair_systems(inst, inst.tail_p, inst.tail_s)):
            rejected["Delta_j"] += 1
            continue
        return truth, inst
    raise GenerationFailedError(config.seed, rejected)


def verify(truth: Pencil, result: ReconstructionResult | MRouteEntries) -> VerificationReport:
    """Compare a reconstruction against its ground truth, entry by entry; ValueError where its shape does not fit."""
    n = truth.n
    k = result.k
    _check_split(k, n)
    errors: dict[str, float] = {}
    if isinstance(result, ReconstructionResult):
        if result.H.n != n:
            raise ValueError("result order does not match truth")
        for j in range(k, n):
            errors[f"b_{j}"] = _relative(result.H.b[j], truth.H.b[j])
        for j in range(k + 1, n + 1):
            errors[f"a_{j}"] = _relative(result.H.a[j], truth.H.a[j])
        res_l, res_m = result.residual_lambda, result.residual_mu
        deltas = tuple(abs(x) for x in result.deltas)
        pipeline = "eigenpair"
    else:
        if (len(result.a), len(result.b)) != (n - k, n - k - 1):
            raise ValueError(f"m-route result of split {k} holds {len(result.a)} a and {len(result.b)} b entries: "
                             f"{n - k} and {n - k - 1} expected for order {n}")
        for j in range(k + 1, n):
            errors[f"b_{j}"] = _relative(result.b_at(j), truth.H.b[j])
        for j in range(k + 1, n + 1):
            errors[f"a_{j}"] = _relative(result.a_at(j), truth.H.a[j])
        res_l = res_m = 0.0
        deltas = ()
        pipeline = "m-function"
    passed = all(e <= ENTRY_TOL for e in errors.values()) \
        and res_l <= RESIDUAL_TOL and res_m <= RESIDUAL_TOL
    return VerificationReport(
        entry_errors=errors,
        residual_lambda=res_l,
        residual_mu=res_m,
        delta_magnitudes=deltas,
        pipeline=pipeline,
        passed=bool(passed),
    )
