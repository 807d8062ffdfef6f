"""Inverse eigenvalue reconstruction from two eigenpairs with prescribed tails.

Given the full J, the leading block of H up to split index k, two real
eigenvalues lam != mu and the trailing eigenvector components at both, the
solver recovers the remaining entries b_k..b_{n-1} and a_{k+1}..a_n of H and
the leading eigenvector components.

For every index j the pair (b_j, conj(b_j)) satisfies the same 2x2 linear
system, one equation per eigenvalue.  At real lam and mu the left components
are the conjugates of the right ones, so it reads the tails only through the
neighbour products alpha_j = conj(p_j) p_{j+1} at lam and
beta_j = conj(s_j) s_{j+1} at mu:

    alpha_j b_j - conj(alpha_j) conj(b_j) = lam d_j (alpha_j - conj(alpha_j))

(and the mu-counterpart in beta_j).  PairSystem holds this system and its
determinant Delta_j for one index; the primary path solves it directly, and
the closed-form expression for b_j through Delta_j is kept as an independent
cross-check.  Delta_j vanishes exactly when the pole ratio b_j/d_j is real,
so a singular system is reported rather than solved.  The block trace
identities and the positivity witness are statements about the
eigenvectors at lam and mu: both read the twisted eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    HermitianInconsistentError,
    NonRealDiagonalError,
    SingularDeltaError,
    VanishingComponentError,
)
from .pencil import HermitianTridiagonal, Pencil, SymmetricTridiagonal, _finite_complexes, _finite_floats
from .recurrence import (
    PivotSweep,
    _check_margins,
    _rows_above,
    _twisted_eigenvector,
    check_spectrum,
    head_margins,
    pivot_sweep,
)
from .tolerances import COMPONENT_RTOL, DELTA_RTOL, HERMITIAN_RTOL, IMAG_RTOL, RATIO_RTOL, SPECTRUM_RTOL


@dataclass(frozen=True)
class GiepInstance:
    """Problem data: J, the head of H, two eigenvalues and eigenvector tails.

    tail_p holds p_k^R(lam)..p_n^R(lam), tail_s the analogous values at mu.
    """

    J: SymmetricTridiagonal
    head_a: tuple[float, ...]
    head_b: tuple[complex, ...]
    lam: float
    mu: float
    tail_p: tuple[complex, ...]
    tail_s: tuple[complex, ...]
    k: int

    def __post_init__(self):
        n = self.J.n
        if not 1 <= self.k <= n - 1:
            raise ValueError(f"split index k={self.k} must satisfy 1 <= k <= n-1 with n={n}")
        object.__setattr__(self, "head_a", _finite_floats(self.head_a, "head_a"))
        object.__setattr__(self, "head_b", _finite_complexes(self.head_b, "head_b"))
        object.__setattr__(self, "tail_p", _finite_complexes(self.tail_p, "tail_p"))
        object.__setattr__(self, "tail_s", _finite_complexes(self.tail_s, "tail_s"))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        if self.lam == self.mu:
            raise ValueError("the two eigenvalues must be distinct")
        if len(self.head_a) != self.k + 1:
            raise ValueError("head_a must hold a_0..a_k")
        if len(self.head_b) != self.k:
            raise ValueError("head_b must hold b_0..b_{k-1}")
        if len(self.tail_p) != n - self.k + 1 or len(self.tail_s) != n - self.k + 1:
            raise ValueError("eigenvector tails must hold indices k..n")

    @property
    def n(self) -> int:
        return self.J.n

    def head_pencil(self) -> Pencil:
        return Pencil(
            SymmetricTridiagonal(self.J.c[:self.k + 1], self.J.d[:self.k]),
            HermitianTridiagonal(self.head_a, self.head_b),
        )


@dataclass(frozen=True)
class ImaginaryClassification:
    """Real/imaginary split b_j = x + i*y and the eigenvalue-ratio flag.

    wall_ratio_ok is True when lam/mu matches the determinant ratio that
    forces x = 0, the regime in which b_j is a purely imaginary multiple
    of d_j.
    """

    index: int
    x: float
    y: float
    wall_ratio_ok: bool


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered H, leading eigenvector components and diagnostics.

    Residuals are relative: ||(z*J - H) v|| / (||z*J - H||_F ||v||) over the
    assembled full eigenvectors.
    """

    H: HermitianTridiagonal
    head_p: tuple[complex, ...]
    head_s: tuple[complex, ...]
    deltas: tuple[complex, ...]
    residual_lambda: float
    residual_mu: float
    imaginary_flags: tuple[ImaginaryClassification, ...]

    @property
    def k(self) -> int:
        return len(self.head_p)


def delta(alpha: complex, beta: complex) -> complex:
    """Determinant Delta_j of the 2x2 system for (b_j, conj(b_j)) in the neighbour products.

    alpha = conj(p_j) p_{j+1} at lam and beta = conj(s_j) s_{j+1} at mu:
    Delta_j = conj(alpha) (beta - conj(beta)) - conj(beta) (alpha - conj(alpha)).
    Proportional to (lam - mu) * Im(b_j/d_j); zero exactly when the pole
    ratio at j is real.
    """
    return alpha.conjugate() * (beta - beta.conjugate()) - beta.conjugate() * (alpha - alpha.conjugate())


@dataclass(frozen=True)
class PairSystem:
    """The 2x2 system for the unknown pair (b_j, conj(b_j)) at one index j.

    At real lam and mu the left components are the conjugates of the right
    ones, so the system reads the tails only through the neighbour products
    alpha = conj(p_j) p_{j+1} at lam and beta = conj(s_j) s_{j+1} at mu.
    Every formula is homogeneous of degree (1, 1) in (alpha, beta): a real
    rescaling of either scales det and scale alike and leaves b_j and the
    classification as they are, so the neighbour ratio p_{j+1}/p_j =
    alpha/|p_j|^2 in place of alpha gives the same system.  det (Delta_j)
    and scale = |alpha| |beta| (the magnitude of each of its monomials) are
    computed once at construction; solve, closed_form and classify read them.
    """

    j: int
    d_j: float
    lam: float
    mu: float
    alpha: complex
    beta: complex
    det: complex = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "det", delta(self.alpha, self.beta))
        object.__setattr__(self, "scale", abs(self.alpha) * abs(self.beta))

    def _check_regular(self) -> None:
        # against scale alone: rescaling either tail scales det and scale alike
        if abs(self.det) <= DELTA_RTOL * self.scale:
            raise SingularDeltaError(self.j)

    def solve(self) -> tuple[complex, complex]:
        """Solve for (u, v): u is the recovered b_j, v the independently solved conjugate.

        Raises SingularDeltaError when Delta_j is negligible against its
        scale, HermitianInconsistentError when v is not conj(u).
        """
        self._check_regular()
        alpha, beta, lam, mu, d_j, det = self.alpha, self.beta, self.lam, self.mu, self.d_j, self.det
        wp, ws = alpha - alpha.conjugate(), beta - beta.conjugate()
        r1, r2 = lam * d_j * wp, mu * d_j * ws
        u = (r2 * alpha.conjugate() - r1 * beta.conjugate()) / det
        v = (alpha * r2 - beta * r1) / det
        if abs(v - u.conjugate()) > HERMITIAN_RTOL * (1.0 + abs(u)):
            raise HermitianInconsistentError(self.j)
        return u, v

    def closed_form(self) -> tuple[complex, complex]:
        """Closed-form (b_j, conj(b_j)) through Delta_j; a cross-check on solve()."""
        alpha, beta, lam, mu, d_j, det = self.alpha, self.beta, self.lam, self.mu, self.d_j, self.det
        wp, ws = alpha - alpha.conjugate(), beta - beta.conjugate()
        b = (lam + mu) * d_j + (d_j / det) * (mu * beta.conjugate() * wp - lam * alpha.conjugate() * ws)
        b_conj = (lam + mu) * d_j + (d_j / det) * (mu * beta * wp - lam * alpha * ws)
        return b, b_conj

    def classify(self) -> ImaginaryClassification:
        """Split b_j into x_j + i*y_j and test the eigenvalue-ratio condition.

        The flag is the cross-multiplied relative comparison of lam/mu
        against the determinant ratio that forces x_j = 0.
        """
        self._check_regular()
        alpha, beta, lam, mu, d_j, det = self.alpha, self.beta, self.lam, self.mu, self.d_j, self.det
        wp, ws = alpha - alpha.conjugate(), beta - beta.conjugate()
        vp, vs = alpha + alpha.conjugate(), beta + beta.conjugate()
        x = d_j * (mu * vp * ws - lam * vs * wp) / (2.0 * det)
        y = (lam - mu) * d_j * wp * ws / (2j * det)
        lhs = lam * vs * wp
        rhs = mu * vp * ws
        ratio_ok = abs(lhs - rhs) <= RATIO_RTOL * (abs(lhs) + abs(rhs))
        return ImaginaryClassification(self.j, x.real, y.real, bool(ratio_ok))


def pair_systems(instance: GiepInstance, components_lambda: Sequence[complex],
                 components_mu: Sequence[complex]) -> tuple[PairSystem, ...]:
    """The systems for j = k..n-1 from right components p_k..p_n at lam and s_k..s_n at mu."""
    k = instance.k
    p = [complex(x) for x in components_lambda]
    s = [complex(x) for x in components_mu]
    return tuple(
        PairSystem(j, instance.J.d[j], instance.lam, instance.mu,
                   p[j - k].conjugate() * p[j - k + 1], s[j - k].conjugate() * s[j - k + 1])
        for j in range(k, instance.n)
    )


def reconstruct_a(instance: GiepInstance, b_full: Sequence[complex],
                  components_lambda: Sequence[complex]) -> tuple[float, ...]:
    """Recover the real diagonal entries a_{k+1}..a_n from the lam-eigenpair.

    b_full holds b_k..b_{n-1}; components_lambda holds p_k..p_n at lam.  Each
    a_i comes out of the three-term relation at row i solved for the diagonal
    entry; a non-negligible imaginary part means the data is inconsistent.
    """
    k, n = instance.k, instance.n
    c, d = instance.J.c, instance.J.d
    lam = instance.lam
    p = [complex(x) for x in components_lambda]
    comp_scale = max(abs(x) for x in p)

    def b_at(j: int) -> complex:
        return complex(b_full[j - k])

    out: list[float] = []
    for i in range(k + 1, n + 1):
        t = i - k
        if abs(p[t]) <= COMPONENT_RTOL * (1.0 + comp_scale):
            raise VanishingComponentError(i)
        num = (lam * d[i - 1] - b_at(i - 1).conjugate()) * p[t - 1]
        if i <= n - 1:
            num += (lam * d[i] - b_at(i)) * p[t + 1]
        val = lam * c[i] + num / p[t]
        if abs(val.imag) > IMAG_RTOL * (1.0 + abs(val)):
            raise NonRealDiagonalError(i, val.imag)
        out.append(val.real)
    return tuple(out)


def trace_identity_residuals(pencil: Pencil, k: int, lam: float, mu: float) -> tuple[float, float]:
    """Relative residuals of the two block trace identities at eigenvalues (lam, mu).

    First identity: (lam - mu) p^L_{[k+1,n]} J_{[k+1,n]} s^R_{[k+1,n]} equals
    (b_k - lam d_k) p_k^L s_{k+1}^R - (conj(b_k) - mu d_k) p_{k+1}^L s_k^R.
    Second: (lam - mu) s^L_{[0,k]} J_{[0,k]} p^R_{[0,k]} equals
    (b_k - lam d_k) s_k^L p_{k+1}^R - (conj(b_k) - mu d_k) s_{k+1}^L p_k^R;
    the sign of this right-hand side was fixed against direct dense
    evaluation.  p^R and s^R are the eigenvectors at lam and mu
    (eigenvector_components), the left ones their conjugates.  Each residual
    is relative to the terms of its identity, |lam - mu| |x^L| |J| |y^R| +
    |t_1| + |t_2|: roundoff on exact data, also where the lhs cancels.  One
    pivot pass per point raises SpectrumCollisionError on the spectrum of
    head(k - 1) or head(k), then ValueError off the spectrum of the pencil;
    ValueError too where the terms leave the double range under v_0 = 1.
    """
    if lam == mu:
        raise ValueError("the identities degenerate at lam == mu")
    n = pencil.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"split index {k} out of range 1..{n - 1}")
    vectors = []
    for z, name in ((lam, "lam"), (mu, "mu")):
        sweep = pivot_sweep(pencil, n + 1, z)
        check_spectrum(pencil, sweep.prefix(k + 1), k - 1)
        vectors.append(_eigenvector(pencil, sweep, f"{name} = {z!r}"))
    p, s = vectors
    pl, sl = p.conj(), s.conj()
    d_k, b_k = pencil.J.d[k], pencil.H.b[k]
    c, d = np.asarray(pencil.J.c), np.asarray(pencil.J.d)

    def residual(rows: slice, left: np.ndarray, right: np.ndarray, t1: complex, t2: complex) -> float:
        cb, db = c[rows], d[rows][:len(c[rows]) - 1]
        lhs = (lam - mu) * (left[rows] @ _tridiagonal_product(cb, db, db, right[rows]))
        terms = abs(lam - mu) * (abs(left[rows]) @ _tridiagonal_product(cb, abs(db), abs(db), abs(right[rows])))
        terms += abs(t1) + abs(t2)
        if not math.isfinite(terms):
            raise ValueError(f"the trace identities at lam = {lam!r}, mu = {mu!r} leave the double range "
                             "under v_0 = 1")
        return float(abs(lhs - (t1 - t2)) / terms)

    with np.errstate(over="ignore", invalid="ignore"):
        res1 = residual(slice(k + 1, None), pl, s,
                        (b_k - lam * d_k) * pl[k] * s[k + 1], (b_k.conjugate() - mu * d_k) * pl[k + 1] * s[k])
        res2 = residual(slice(0, k + 1), sl, p,
                        (b_k - lam * d_k) * sl[k] * p[k + 1], (b_k.conjugate() - mu * d_k) * sl[k + 1] * p[k])
    return res1, res2


def positivity_witness(pencil: Pencil, k: int, mu: float) -> float:
    """Value of the quadratic form (s^R)* J_{[0,k]} s^R at the eigenvalue mu, with s_0 = 1.

    s^R is the eigenvector at mu (eigenvector_components); the form is
    sum_{i<=k} c_i |s_i|^2 + 2 sum_{i<k} d_i Re(conj(s_i) s_{i+1}), O(k) and
    real by construction.  The paper writes it through the component
    derivatives: (b_k - mu d_k) conj(s_k) s'_{k+1} - (conj(b_k) - mu d_k)
    conj(s_{k+1}) s'_k - d_k conj(s_k) s_{k+1}.  Positive whenever the
    leading block of J is positive definite.  ValueError where mu is not an
    eigenvalue, or where the value leaves the double range.
    """
    n = pencil.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"split index {k} out of range 1..{n - 1}")
    s = _eigenvector(pencil, pivot_sweep(pencil, n + 1, mu), f"mu = {mu!r}")[:k + 1]
    c, d = np.asarray(pencil.J.c[:k + 1]), np.asarray(pencil.J.d[:k])
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(c @ (s.real ** 2 + s.imag ** 2) + 2.0 * (d @ (s[:-1].conj() * s[1:]).real))
    if not math.isfinite(val):
        raise ValueError(f"the positivity witness at mu = {mu!r} leaves the double range under s_0 = 1")
    return val


def _eigenvector(pencil: Pencil, sweep: PivotSweep, point: str) -> np.ndarray:
    """The eigenvector at sweep.z, v_0 = 1, from its full-order pivot sweep; ValueError where it is no eigenvalue."""
    v, margin = _twisted_eigenvector(pencil, sweep)
    if not margin < SPECTRUM_RTOL:
        raise ValueError(f"{point} must be an eigenvalue of the full pencil: its twisted margin "
                         f"{margin:.3e} is not below SPECTRUM_RTOL = {SPECTRUM_RTOL:g}")
    return v


def _tridiagonal_product(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray,
                         vec: np.ndarray) -> np.ndarray:
    """T @ vec for the tridiagonal T with these diagonals, in O(n)."""
    out = diag * vec
    out[:-1] += upper * vec[1:]
    out[1:] += lower * vec[:-1]
    return out


def _relative_residual(pencil: Pencil, z: float, vec: np.ndarray) -> float:
    """|(z*J - H) vec| / (|z*J - H|_F |vec|), both read from the three diagonals of z*J - H."""
    c, d = np.asarray(pencil.J.c), np.asarray(pencil.J.d)
    a, b = np.asarray(pencil.H.a), np.asarray(pencil.H.b, dtype=complex)
    diag, upper, lower = z * c - a, z * d - b, z * d - b.conj()
    denom = float(np.linalg.norm(np.concatenate((diag, upper, lower))) * np.linalg.norm(vec))
    return float(np.linalg.norm(_tridiagonal_product(diag, upper, lower, vec)) / (denom + 1e-300))


def _solver_head_margins(pencil: Pencil, k: int, z: float) -> tuple[PivotSweep, np.ndarray]:
    """The pivot sweep of rows 0..k at z and the twisted margins of head(k - 1) and head(k).

    These two heads are the only ones whose spectrum solve needs z to avoid:
    it raises on these margins, and the instance generator admits a draw by
    them, so both decide on the same numbers.  Rows past k are not read.
    """
    sweep = pivot_sweep(pencil, k + 1, z)
    return sweep, head_margins(pencil, sweep, k - 1)


def solve(instance: GiepInstance) -> ReconstructionResult:
    """Full reconstruction: entries of H, leading components, diagnostics."""
    k = instance.k
    lam, mu = instance.lam, instance.mu
    head = instance.head_pencil()
    # one head pass per eigenvalue: the spectrum test of head(k - 1) and head(k), then the leading components
    pivots = []
    for z in (lam, mu):
        sweep, margins = _solver_head_margins(head, k, z)
        _check_margins(margins, k - 1, sweep.z)
        pivots.append(sweep.pivots)
    pivots_lam, pivots_mu = pivots

    systems = pair_systems(instance, instance.tail_p, instance.tail_s)
    b_rec = tuple(system.solve()[0] for system in systems)
    a_rec = reconstruct_a(instance, b_rec, instance.tail_p)

    H = HermitianTridiagonal(instance.head_a + a_rec, instance.head_b + b_rec)
    full = Pencil(instance.J, H)
    flags = tuple(system.classify() for system in systems)

    # p_0..p_{k-1} upwards from p_{k+1}, through the head pivots and the recovered b_k
    b_head = instance.head_b + (b_rec[0],)
    head_p = instance.tail_p[1] * _rows_above(lam, instance.J.d, b_head, pivots_lam)[:k]
    head_s = instance.tail_s[1] * _rows_above(mu, instance.J.d, b_head, pivots_mu)[:k]

    p_full = np.concatenate([head_p, np.asarray(instance.tail_p, dtype=complex)])
    s_full = np.concatenate([head_s, np.asarray(instance.tail_s, dtype=complex)])
    res_l = _relative_residual(full, lam, p_full)
    res_m = _relative_residual(full, mu, s_full)

    return ReconstructionResult(
        H=H,
        head_p=tuple(head_p.tolist()),
        head_s=tuple(head_s.tolist()),
        deltas=tuple(system.det for system in systems),
        residual_lambda=res_l,
        residual_mu=res_m,
        imaginary_flags=flags,
    )
