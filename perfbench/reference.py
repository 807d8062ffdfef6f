"""Seeded inputs, dense references and output checks for the benchmark.

Nothing here imports ``tripencil``: inputs are drawn and admitted from
properties that dense numpy/scipy computations give, so a defect in the
library cannot change which inputs a workload runs or what counts as the
right answer.  Pencils are plain coefficient arrays ``(c, d, a, b)``; the
workload layer turns them into library types after admission.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

EPS = np.finfo(float).eps
# admission bounds: an exact output must sit well inside the double range,
# and the dense reference must resolve a 1e-6 relative perturbation
LOG10_RANGE = 250.0
DERIVATIVE_SLACK = 20.0
MAX_FLOOR = 1e-7
# output checks
ENTRY_RTOL = 1e-8          # relative error against a dense reference entry
RESIDUAL_RTOL = 1e-12      # recurrence row residual over the row's term scale
ACCEPT_ENTRY_TOL = 1e-8    # acceptance-suite bounds for the roundtrip flow
ACCEPT_RESIDUAL_TOL = 1e-7
EIGENVALUE_RTOL = 1e-8


@dataclass(frozen=True)
class Coeffs:
    c: np.ndarray
    d: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return len(self.c) - 1

    @cached_property
    def J(self) -> np.ndarray:
        return np.diag(self.c) + np.diag(self.d, 1) + np.diag(self.d, -1)

    @cached_property
    def H(self) -> np.ndarray:
        return np.diag(self.a.astype(complex)) + np.diag(self.b, 1) + np.diag(np.conj(self.b), -1)

    def dense_at(self, z: complex) -> np.ndarray:
        return complex(z) * self.J - self.H

    def eigenvalues(self) -> np.ndarray:
        """Generalized eigenvalues of (H, J), ascending; J must be positive definite."""
        return scipy.linalg.eigh(self.H, self.J, eigvals_only=True)


def draw_pencil(rng: np.random.Generator, n: int) -> Coeffs:
    """Positive-definite J (strictly diagonally dominant) and |Im(b_j/d_j)| >= 0.2."""
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    pads = np.concatenate([[0.0], np.abs(d)]) + np.concatenate([np.abs(d), [0.0]])
    c = pads + rng.uniform(0.3, 1.3, n + 1)
    a = rng.uniform(-1.0, 1.0, n + 1)
    im = (0.2 + rng.uniform(0.0, 0.8, n)) * d * rng.choice([-1.0, 1.0], n)
    return Coeffs(c, d, a, rng.uniform(-1.0, 1.0, n) + 1j * im)


def admissible_pencil(p: Coeffs) -> bool:
    """J positive definite, so the pencil spectrum is real."""
    try:
        np.linalg.cholesky(p.J)
    except np.linalg.LinAlgError:
        return False
    return True


def pole_margin(p: Coeffs, z: complex) -> float:
    """min_j |b_j - z d_j| (and its conjugate form) over its scale."""
    z = complex(z)
    scale = np.abs(p.b) + np.abs(z * p.d)
    return float(min((np.abs(p.b - z * p.d) / scale).min(),
                     (np.abs(np.conj(p.b) - z * p.d) / scale).min()))


# ---------------------------------------------------------------- magnitudes

def log10_minors(p: Coeffs, z: complex, shift: int = 0) -> np.ndarray:
    """log10 |minor| for orders 0..n+1-shift of the leading blocks of zJ - H.

    shift=1 drops row and column 0 (the Q sequence).  Computed from the
    elimination pivots in log form, so it never overflows; used only to
    decide which outputs are representable, never as a value reference.
    """
    z = complex(z)
    c, d, a, b = p.c[shift:], p.d[shift:], p.a[shift:], p.b[shift:]
    out = np.zeros(len(c) + 1)
    r = 1.0 + 0j
    for m in range(len(c)):
        piv = z * c[m] - a[m]
        if m > 0:
            piv -= (z * d[m - 1] - b[m - 1]) * (z * d[m - 1] - np.conj(b[m - 1])) / r
        r = piv if piv != 0 else EPS
        out[m + 1] = out[m] + np.log10(abs(r))
    return out


def log10_components(p: Coeffs, z: complex, conjugate_b: bool = False) -> np.ndarray:
    """log10 |p_m| for m = 0..n, from p_m = P_m / prod_{j<m} (b_j - z d_j)."""
    b = np.conj(p.b) if conjugate_b else p.b
    den = np.concatenate([[0.0], np.cumsum(np.log10(np.abs(b - complex(z) * p.d)))])
    return log10_minors(p, z)[:p.n + 1] - den


def representable(logs: np.ndarray, slack: float = 0.0) -> bool:
    return bool(np.all(np.abs(logs) < LOG10_RANGE - slack))


# ---------------------------------------------------------------- dense references

def _inverse_floor(A: np.ndarray, X: np.ndarray) -> float:
    """A-posteriori bound on max|X - inv(A)|: X - inv(A) = -inv(A)(AX - I)."""
    E = A @ X - np.eye(A.shape[0])
    return 10.0 * float(np.abs(X).sum(axis=1).max()) * float(np.abs(E).max())


@dataclass(frozen=True)
class DirectRef:
    """Dense complex128 inverse X of zJ - H and T of its trailing block X[k+1:, k+1:].

    The floors bound the absolute error the dense route itself may carry.
    """

    X: np.ndarray
    floor_X: float
    T: np.ndarray
    floor_T: float

    def resolves(self) -> bool:
        """Whether a 1e-6 relative change of the largest entry stands above the floors."""
        return bool(self.floor_X <= MAX_FLOOR * np.abs(self.X).max()
                    and self.floor_T <= MAX_FLOOR * np.abs(self.T).max())


def direct_reference(p: Coeffs, z: complex, k: int) -> DirectRef:
    z = complex(z)
    A = p.dense_at(z)
    X = np.linalg.inv(A)
    block = X[k + 1:, k + 1:]
    T = np.linalg.inv(block)
    # the same block by a second dense route, the Schur complement of the
    # leading block, bounds how far the errors of X propagate into T
    S = A[k + 1:, k + 1:].copy()
    S[0, 0] -= (z * p.d[k] - np.conj(p.b[k])) * (z * p.d[k] - p.b[k]) \
        * np.linalg.inv(A[:k + 1, :k + 1])[k, k]
    floor_T = 10.0 * float(np.abs(T - S).max()) + _inverse_floor(block, T)
    return DirectRef(X, _inverse_floor(A, X), T, floor_T)


@dataclass(frozen=True)
class Minor:
    """Dense determinant of one leading block, as log10 magnitude and phase."""

    order: int
    log10: float
    phase: complex
    rtol: float


def dense_minor(block: np.ndarray) -> Minor:
    m = block.shape[0]
    if m == 0:
        return Minor(0, 0.0, 1.0 + 0j, 0.0)
    lu, piv = scipy.linalg.lu_factor(block, check_finite=False)
    diag = np.diag(lu)
    swaps = int(np.count_nonzero(piv != np.arange(m)))
    phase = (-1.0) ** swaps * np.prod(diag / np.abs(diag))
    rcond = scipy.linalg.lapack.zgecon(lu, np.linalg.norm(block, 1), norm="1")[0]
    # first-order bound on the relative error of an LU determinant: m eps cond
    return Minor(m, float(np.sum(np.log10(np.abs(diag)))), complex(phase),
                 ENTRY_RTOL + 8.0 * m * EPS / max(rcond, 1e-300))


def check_orders(top: int) -> list[int]:
    """Orders of P/Q compared against dense determinants: 1, 2, 3, powers of two, top."""
    orders = {m for m in (1, 2, 3, top) if m <= top}
    m = 4
    while m < top:
        orders.add(m)
        m *= 2
    return sorted(orders)


def minors_reference(p: Coeffs, z: complex, top: int) -> tuple[dict[int, Minor], dict[int, Minor]]:
    """Dense P_m = det A[:m,:m] and Q_m = det A[1:m,1:m] at the check orders up to top.

    Only orders whose determinant the dense LU resolves to 1e-6 are kept.
    """
    A = p.dense_at(z)
    P, Q = {}, {}
    for m in check_orders(top):
        for table, block in ((P, A[:m, :m]), (Q, A[1:m, 1:m])):
            ref = dense_minor(block)
            if ref.rtol < 1e-6:
                table[m] = ref
    return P, Q


# ---------------------------------------------------------------- checks
# Each returns None on success or a failure reason.

def finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(x))) for x in arrays)


def check_entries(got, want: np.ndarray, floor: float) -> str | None:
    """Entry by entry; floor is the dense reference's own absolute error."""
    got = np.asarray(got, dtype=complex)
    if got.shape != want.shape:
        return "wrong_shape"
    if not finite(got):
        return "non_finite"
    ok = np.abs(got - want) <= ENTRY_RTOL * np.abs(want) + floor
    return None if bool(ok.all()) else "out_of_tolerance"


def check_scalar(got: complex, want: complex, floor: float = 0.0) -> str | None:
    if not finite(got):
        return "non_finite"
    ok = abs(complex(got) - complex(want)) <= ENTRY_RTOL * abs(want) + floor
    return None if ok else "out_of_tolerance"


def _row_terms(p: Coeffs, z: complex, v: np.ndarray, conjugate_b: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rows 0..n-1 of (zJ - H') v as (sum, sum of magnitudes); H' has b conjugated if asked.

    For the left sequence the transpose acts, which is the same as
    conjugating b in the row form.
    """
    z = complex(z)
    n = p.n
    b = np.conj(p.b) if conjugate_b else p.b
    diag = (z * p.c[:n] - p.a[:n]) * v[:n]
    sup = (z * p.d - b) * v[1:]
    sub = np.concatenate([[0.0], (z * p.d[:n - 1] - np.conj(b[:n - 1])) * v[:n - 1]])
    return diag + sup + sub, np.abs(diag) + np.abs(sup) + np.abs(sub)


def check_components(p: Coeffs, z: complex, v, conjugate_b: bool) -> str | None:
    v = np.asarray(v, dtype=complex)
    if v.shape != (p.n + 1,):
        return "wrong_shape"
    if not finite(v):
        return "non_finite"
    if v[0] != 1.0:
        return "out_of_tolerance"
    res, scale = _row_terms(p, z, v, conjugate_b)
    return None if bool(np.all(np.abs(res) <= RESIDUAL_RTOL * scale)) else "out_of_tolerance"


def check_derivative(p: Coeffs, z: complex, v, dv) -> str | None:
    """Rows 0..n-1 of the differentiated system J v + (zJ - H) v' = 0, with v'_0 = 0."""
    bad = check_components(p, z, v, conjugate_b=False)
    if bad:
        return bad
    dv = np.asarray(dv, dtype=complex)
    if dv.shape != v.shape:
        return "wrong_shape"
    if not finite(dv):
        return "non_finite"
    if dv[0] != 0.0:
        return "out_of_tolerance"
    n = p.n
    v = np.asarray(v, dtype=complex)
    jv = p.c[:n] * v[:n] + p.d * v[1:] + np.concatenate([[0.0], p.d[:n - 1] * v[:n - 1]])
    res, scale = _row_terms(p, z, dv, conjugate_b=False)
    jscale = np.abs(p.c[:n] * v[:n]) + np.abs(p.d * v[1:]) \
        + np.concatenate([[0.0], np.abs(p.d[:n - 1] * v[:n - 1])])
    ok = np.abs(res + jv) <= RESIDUAL_RTOL * (scale + jscale)
    return None if bool(ok.all()) else "out_of_tolerance"


def check_minors(P, Q, ref: tuple[dict[int, Minor], dict[int, Minor]], upto: int) -> str | None:
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if P.shape != (upto + 1,) or Q.shape != (upto + 1,):
        return "wrong_shape"
    if not finite(P, Q):
        return "non_finite"
    if P[0] != 1.0 or Q[0] != 0.0:
        return "out_of_tolerance"
    for got, table in ((P, ref[0]), (Q, ref[1])):
        for m, minor in table.items():
            if got[m] == 0:
                return "out_of_tolerance"
            # compare in log-magnitude and phase so huge minors stay exact
            rel_mag = abs(np.log10(abs(got[m])) - minor.log10) * np.log(10.0)
            rel_phase = abs(got[m] / abs(got[m]) - minor.phase)
            if rel_mag + rel_phase > minor.rtol:
                return "out_of_tolerance"
    return None


def relative_residual(matrix: np.ndarray, vec: np.ndarray) -> float:
    denom = float(np.linalg.norm(matrix) * np.linalg.norm(vec))
    return float(np.linalg.norm(matrix @ vec) / (denom + 1e-300))


def rel_err(value: complex, truth: complex) -> float:
    return abs(complex(value) - complex(truth)) / (1.0 + abs(complex(truth)))
