"""m-functions, the closed-form resolvent and its factorization.

The m-function of the order-(j-1) leading sub-pencil is m(w, j) = Q_j(w)/P_j(w),
with m(w, 0) = 0.  Writing g_t = m(w, t+1) - m(w, t) for the consecutive
differences, the inverse R(w) of (w*J - H) has entries

    R[i, j] = p_j^L * (m(w, n+1) - m(w, max(i, j))) * p_i^R

and factorizes as R = F * diag(g) * G where F is the upper-triangular
staircase with row i constant p_i^R and G the lower-triangular staircase with
column j constant p_j^L.  The orientation of the staircase, the max() in the
entry rule and the overall sign were fixed empirically against dense
inversion on 1x1 and 2x2 pencils and are locked by regression tests.

The inverse of a trailing block of R is tridiagonal with entries built from
1/g_t, which is what makes reconstruction of H from m-function data possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDifferenceError, NonRealDiagonalError, VanishingComponentError
from .pencil import Pencil, SymmetricTridiagonal
from .recurrence import assert_resolvent_point, left_components, pq_sweep, right_components
from .tolerances import COMPONENT_RTOL, DIFFERENCE_RTOL, IMAG_RTOL


@dataclass(frozen=True)
class MFunctionTable:
    """m(w, j) for j = 0..n+1 at a fixed resolvent point w.

    Consecutive differences decay geometrically (the convergents converge),
    so forming them by subtracting table values loses all relative accuracy
    once they fall below roundoff of the values.  m_table therefore also
    stores them in the cancellation-free product form
    g_t = prod_{s<t} w_s / (P_t P_{t+1}) that the Wronskian identity gives;
    a table built without diffs falls back to plain subtraction.
    """

    omega: complex
    values: tuple[complex, ...]
    diffs: tuple[complex, ...] | None = None

    def __post_init__(self):
        if not self.values or self.values[0] != 0:
            raise ValueError("m-function table must start with m(w, 0) = 0")
        if self.diffs is not None and len(self.diffs) != len(self.values) - 1:
            raise ValueError("diffs must hold one entry per consecutive pair")

    @property
    def top(self) -> complex:
        """m(w, n+1), the m-function of the full pencil."""
        return self.values[-1]

    def difference(self, t: int) -> complex:
        """g_t = m(w, t+1) - m(w, t)."""
        if self.diffs is not None:
            return self.diffs[t]
        return self.values[t + 1] - self.values[t]

    def shifted(self, t: int) -> complex:
        """m(w, t) - m(w, n+1), summed from the stable differences."""
        if self.diffs is not None:
            return -sum(self.diffs[t:], 0j)
        return self.values[t] - self.values[-1]


def m_function(pencil: Pencil, j: int, omega: complex) -> complex:
    """m(w, j) = Q_j(w)/P_j(w); zero for j = 0 by convention."""
    if not 0 <= j <= pencil.n + 1:
        raise ValueError(f"m-function index {j} out of range 0..{pencil.n + 1}")
    if j == 0:
        return 0j
    assert_resolvent_point(pencil, j, omega)
    P, Q = pq_sweep(pencil, j, omega)
    return Q[j] / P[j]


def m_table(pencil: Pencil, omega: complex) -> MFunctionTable:
    """All values m(w, 0)..m(w, n+1) in one recurrence pass."""
    omega = complex(omega)
    for j in range(1, pencil.n + 2):
        assert_resolvent_point(pencil, j, omega)
    P, Q = pq_sweep(pencil, pencil.n + 1, omega)
    vals = [0j] + [Q[j] / P[j] for j in range(1, pencil.n + 2)]
    diffs = []
    weight_prod = 1.0 + 0j
    for t in range(pencil.n + 1):
        diffs.append(weight_prod / (P[t] * P[t + 1]))
        if t < pencil.n:
            d_t, b_t = pencil.J.d[t], pencil.H.b[t]
            weight_prod *= (omega * d_t - b_t) * (omega * d_t - b_t.conjugate())
    return MFunctionTable(omega, tuple(vals), tuple(diffs))


def resolvent_matrix(pencil: Pencil, omega: complex) -> np.ndarray:
    """Dense inverse of (w*J - H) built from m-functions and components."""
    table = m_table(pencil, omega)
    pr = right_components(pencil, omega)
    pl = left_components(pencil, omega)
    n = pencil.n
    idx = np.arange(n + 1)
    shifted = np.asarray([table.shifted(t) for t in range(n + 2)])
    mmax = shifted[np.maximum.outer(idx, idx)]
    return -np.outer(pr, pl) * mmax


@dataclass(frozen=True)
class ResolventFactors:
    """Staircase factorization R = F * diag(g) * G of the resolvent.

    F[i, t] = p_i^R for t >= i (upper triangular), G[t, j] = p_j^L for j <= t
    (lower triangular), and diag holds the consecutive m-differences
    g_t = m(w, t+1) - m(w, t).  For real w, G is exactly the conjugate
    transpose of F.
    """

    omega: complex
    F: np.ndarray
    diag: tuple[complex, ...]
    G: np.ndarray

    def product(self) -> np.ndarray:
        return self.F @ np.diag(np.asarray(self.diag, dtype=complex)) @ self.G


def ldu_factors(pencil: Pencil, omega: complex) -> ResolventFactors:
    table = m_table(pencil, omega)
    n = pencil.n
    diffs = tuple(_checked_difference(table, t) for t in range(n + 1))
    pr = right_components(pencil, omega)
    pl = left_components(pencil, omega)
    F = np.triu(np.tile(pr[:, None], (1, n + 1)))
    G = np.tril(np.tile(pl[None, :], (n + 1, 1)))
    return ResolventFactors(complex(omega), F, diffs, G)


def _checked_difference(table: MFunctionTable, t: int) -> complex:
    g = table.difference(t)
    if abs(g) < DIFFERENCE_RTOL * (1.0 + abs(table.values[t]) + abs(table.values[t + 1])):
        raise DegenerateDifferenceError(t)
    return g


def _checked_component(values: np.ndarray, i: int, scale: float) -> complex:
    v = values[i]
    if abs(v) < COMPONENT_RTOL * (1.0 + scale):
        raise VanishingComponentError(i)
    return v


def trailing_inverse_from(table: MFunctionTable, pr: np.ndarray, pl: np.ndarray,
                          k: int, n: int) -> np.ndarray:
    """Inverse of the trailing block R[k+1.., k+1..] from precomputed data."""
    size = n - k
    out = np.zeros((size, size), dtype=complex)
    scale = float(np.max(np.abs(pr)) + np.max(np.abs(pl)))
    for i in range(k + 1, n + 1):
        gi = _checked_difference(table, i)
        pli = _checked_component(pl, i, scale)
        pri = _checked_component(pr, i, scale)
        io = i - (k + 1)
        out[io, io] += 1.0 / (gi * pli * pri)
        if i > k + 1:
            gprev = _checked_difference(table, i - 1)
            out[io, io] += 1.0 / (gprev * pli * pri)
        if i < n:
            out[io, io + 1] = -1.0 / (gi * pli * _checked_component(pr, i + 1, scale))
            out[io + 1, io] = -1.0 / (gi * _checked_component(pl, i + 1, scale) * pri)
    return out


def trailing_inverse(pencil: Pencil, k: int, omega: complex) -> np.ndarray:
    """Tridiagonal inverse of the trailing (n-k) x (n-k) block of the resolvent."""
    if not 0 <= k <= pencil.n - 1:
        raise ValueError(f"trailing split {k} out of range 0..{pencil.n - 1}")
    table = m_table(pencil, omega)
    pr = right_components(pencil, omega)
    pl = left_components(pencil, omega)
    return trailing_inverse_from(table, pr, pl, k, pencil.n)


@dataclass(frozen=True)
class MRouteEntries:
    """Entries of H recovered from m-function data: b_{k+1}..b_{n-1}, a_{k+1}..a_n."""

    k: int
    b: tuple[complex, ...]
    a: tuple[float, ...]

    def b_at(self, j: int) -> complex:
        return self.b[j - (self.k + 1)]

    def a_at(self, j: int) -> float:
        return self.a[j - (self.k + 1)]


def reconstruct_from_m(J: SymmetricTridiagonal, k: int, omega: complex,
                       table: MFunctionTable, right_comp: np.ndarray,
                       left_comp: np.ndarray, b_k: complex) -> MRouteEntries:
    """Recover b_{k+1}..b_{n-1} and a_{k+1}..a_n from an m-function table.

    The trailing block of w*J - H equals the tridiagonal inverse of the
    trailing resolvent block plus a rank-one correction at its (0, 0) corner
    coming from the coupling entry w*d_k - b_k through the head pencil, which
    is why b_k must be supplied.  Imaginary parts of the recovered diagonal
    entries are checked and discarded.
    """
    n = J.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"split index {k} out of range 1..{n - 1}")
    omega = complex(omega)
    c, d = J.c, J.d
    pr, pl = np.asarray(right_comp, dtype=complex), np.asarray(left_comp, dtype=complex)
    scale = float(np.max(np.abs(pr)) + np.max(np.abs(pl)))

    b_out: list[complex] = []
    for j in range(k + 1, n):
        gj = _checked_difference(table, j)
        b_out.append(omega * d[j] + 1.0 / (_checked_component(pl, j, scale) * gj
                                           * _checked_component(pr, j + 1, scale)))

    a_out: list[float] = []
    for j in range(k + 1, n + 1):
        gj = _checked_difference(table, j)
        plj = _checked_component(pl, j, scale)
        prj = _checked_component(pr, j, scale)
        val = omega * c[j] - 1.0 / (gj * plj * prj)
        if j == k + 1:
            gk = _checked_difference(table, k)
            schur = (omega * d[k] - complex(b_k).conjugate()) * (omega * d[k] - complex(b_k)) \
                * pl[k] * gk * pr[k]
            val -= schur
        else:
            gprev = _checked_difference(table, j - 1)
            val -= 1.0 / (gprev * plj * prj)
        a_out.append(val)

    reals = []
    for j, v in zip(range(k + 1, n + 1), a_out):
        if abs(v.imag) > IMAG_RTOL * (1.0 + abs(v)):
            raise NonRealDiagonalError(j, v.imag)
        reals.append(v.real)
    return MRouteEntries(k, tuple(b_out), tuple(reals))
