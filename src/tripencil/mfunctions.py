"""m-functions, the closed-form resolvent and its factorization.

The m-function of the order-(j-1) leading sub-pencil is m(w, j) = Q_j(w)/P_j(w),
with m(w, 0) = 0.  Writing g_t = m(w, t+1) - m(w, t) for the consecutive
differences, the inverse R(w) of (w*J - H) has entries

    R[i, j] = p_j^L * (m(w, n+1) - m(w, max(i, j))) * p_i^R

and factorizes as the staircase F0 * diag(g) * G0, where F0 is upper
triangular with row i constant p_i^R and G0 lower triangular with column j
constant p_j^L.  The orientation of the staircase, the max() in the entry
rule and the overall sign were fixed empirically against dense inversion on
1x1 and 2x2 pencils and are locked by regression tests.

Every direct operation here reads one pivot pass (recurrence.pivot_sweep)
and forms nothing that can overflow.  With D_t = P_{t+1}/P_t the LDL^T pivots
of w*J - H,

    g_0 = 1/D_0,   g_t = g_{t-1} w_{t-1} / (D_{t-1} D_t),   p_t^R g_t p_t^L = 1/D_t,

so the staircase is the unit LDU form R = U^-1 diag(1/D) L^-1 (ldu_factors),
whose unit factors hold the component ratios p_i^R/p_t^R and p_j^L/p_t^L.
The g_t themselves decay geometrically and underflow by n ~ 300.  The
diagonal of R is 1/gamma_t, from the twisted pivots (resolvent_matrix).

Each operation raises SpectrumCollisionError where what it returns does not
exist: m_table on the spectrum of any leading sub-pencil, m_function(j) on
that of rows 0..j-1, resolvent_matrix on that of the full pencil
(recurrence.check_spectrum; resolvent_matrix applies its test to the
twisted pivots it reads for its diagonal).  Next to a sub-pencil eigenvalue
the m-values, the Schur pivot and the resolvent stay within a small
multiple of their own conditioning (against dense inversion), so a small
pivot elsewhere costs them no accuracy.  The product of the unit factors
does not, and ldu_factors also raises at a pivot margin below FACTOR_RTOL.

The inverse of a trailing block of R is tridiagonal: the trailing block of
w*J - H with its corner replaced by a pivot (trailing_inverse).  Written in
m-function data its diagonals are built from 1/(g_t p^L_t p^R_t) = D_t and
neighbouring components, which is what makes reconstruction of H from
m-function data possible (reconstruct_from_m reads the diagonal and the
superdiagonal in one guarded pass, with no dense array).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDifferenceError, NonRealDiagonalError, SpectrumCollisionError,
                     VanishingComponentError)
from .pencil import Pencil, SymmetricTridiagonal
from .recurrence import _unit_steps, _unit_upper, check_spectrum, pivot_sweep, twisted_pivots, unit_factors
from .tolerances import COMPONENT_RTOL, DIFFERENCE_RTOL, FACTOR_RTOL, IMAG_RTOL, SPECTRUM_RTOL


@dataclass(frozen=True)
class MFunctionTable:
    """m(w, j) for j = 0..n+1 at a fixed resolvent point w, and diffs[t] = g_t = m(w, t+1) - m(w, t).

    Consecutive differences decay geometrically (the convergents converge),
    so forming them by subtracting table values loses all relative accuracy
    once they fall below roundoff of the values.  The table therefore holds
    them in the cancellation-free product form
    g_t = prod_{s<t} w_s / (P_t P_{t+1}) that the Wronskian identity gives,
    which m_table takes from the pivots as g_t = g_{t-1} w_{t-1}/(D_{t-1} D_t).
    """

    omega: complex
    values: tuple[complex, ...]
    diffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 0:
            raise ValueError("m-function table must start with m(w, 0) = 0")
        if len(self.diffs) != len(self.values) - 1:
            raise ValueError("diffs must hold one entry per consecutive pair")

    @property
    def top(self) -> complex:
        """m(w, n+1), the m-function of the full pencil."""
        return self.values[-1]


def m_function(pencil: Pencil, j: int, omega: complex) -> complex:
    """m(w, j) = Q_j(w)/P_j(w); zero for j = 0 by convention.

    Raises SpectrumCollisionError(j-1) on the spectrum of rows 0..j-1 only.
    """
    if not 0 <= j <= pencil.n + 1:
        raise ValueError(f"m-function index {j} out of range 0..{pencil.n + 1}")
    if j == 0:
        return 0j
    return check_spectrum(pencil, pivot_sweep(pencil, j, omega), j - 1).values[-1]


def m_table(pencil: Pencil, omega: complex) -> MFunctionTable:
    """All values m(w, 0)..m(w, n+1) and their differences in one pivot pass.

    The differences are g_0 = 1/D_0 and g_t = g_{t-1} w_{t-1}/(D_{t-1} D_t).
    """
    sweep = check_spectrum(pencil, pivot_sweep(pencil, pencil.n + 1, omega))
    D = np.asarray(sweep.pivots)
    ratios = np.asarray(sweep.weights, dtype=complex) / (D[:-1] * D[1:])
    diffs = np.cumprod(np.concatenate(([1.0 / D[0]], ratios)))
    return MFunctionTable(sweep.z, (0j,) + sweep.values, tuple(diffs.tolist()))


def resolvent_matrix(pencil: Pencil, omega: complex) -> np.ndarray:
    """Dense inverse of (w*J - H) from the forward and the twisted pivots.

    The diagonal is R[t, t] = 1/gamma_t from one twisted_pivots pass, whose
    margin is also the spectrum test of head_margins(·, n): below
    SPECTRUM_RTOL, w is on the spectrum of the full pencil and
    SpectrumCollisionError(n) is raised.  Off the diagonal
    R[i, j] = F[i, j] R[j, j] above it and G[i, j] R[i, i] below it, with F,
    G the unit factors of ldu_factors: the diagonal is folded into the pass
    that forms each factor, and G is formed straight into the lower
    triangle of the array that holds F.
    Both pivot passes are exact for coefficients perturbed by a few ulps, so
    small pivots on the way cost no accuracy beyond the conditioning of
    w*J - H.
    """
    sweep = pivot_sweep(pencil, pencil.n + 1, omega)
    gamma, margin, _ = twisted_pivots(pencil, sweep)
    if margin < SPECTRUM_RTOL:
        raise SpectrumCollisionError(pencil.n, sweep.z, margin, SPECTRUM_RTOL)
    diag = 1.0 / gamma
    right, left = _unit_steps(pencil, sweep)
    R = _unit_upper(right, diag)
    _unit_upper(left, diag, R.T)
    return R


@dataclass(frozen=True)
class ResolventFactors:
    """Unit factorization R = F * diag(1/D) * G of the resolvent, D the pivots.

    With w*J - H = L D U, F = U^-1 is unit upper triangular with
    F[i, t] = p_i^R/p_t^R, G = L^-1 is unit lower triangular with
    G[t, j] = p_j^L/p_t^L, and diag holds 1/D_t = p_t^R g_t p_t^L.  The
    staircase form of the paper, with constant rows p_i^R and the
    m-differences g_t on its diagonal, is F * diag(p_t^R) with diagonal
    diag_t/(p_t^R p_t^L); it is not stored because g_t underflows by n ~ 300.
    For real w, G is exactly the conjugate transpose of F.
    """

    omega: complex
    F: np.ndarray
    diag: tuple[complex, ...]
    G: np.ndarray

    def product(self) -> np.ndarray:
        return (self.F * np.asarray(self.diag, dtype=complex)) @ self.G


def ldu_factors(pencil: Pencil, omega: complex) -> ResolventFactors:
    """The unit factorization of the resolvent at w from one pivot pass.

    Raises SpectrumCollisionError(n) on the spectrum of the full pencil and
    SpectrumCollisionError(t) at the first pivot margin below FACTOR_RTOL:
    the factors then outgrow R about 1/margin times, and their product
    would lose that much accuracy.  Then DegenerateDifferenceError(t) where
    w_{t-1} vanishes (m(w, t+1) = m(w, t)), before the PoleCollisionError
    that the same point gives for the components.
    """
    sweep = check_spectrum(pencil, pivot_sweep(pencil, pencil.n + 1, omega), pencil.n)
    z = sweep.z
    low = np.flatnonzero(np.asarray(sweep.margins) < FACTOR_RTOL)
    if low.size:
        raise SpectrumCollisionError(int(low[0]), z, sweep.margins[low[0]], FACTOR_RTOL)
    terms = np.abs(z * np.asarray(pencil.J.d)) + np.abs(np.asarray(pencil.H.b))
    flat = np.flatnonzero(np.abs(np.asarray(sweep.weights, dtype=complex)) < DIFFERENCE_RTOL * terms ** 2)
    if flat.size:
        raise DegenerateDifferenceError(int(flat[0]) + 1)
    F, G = unit_factors(pencil, sweep)
    return ResolventFactors(z, F, tuple((1.0 / np.asarray(sweep.pivots)).tolist()), G)


def trailing_inverse(pencil: Pencil, k: int, omega: complex) -> np.ndarray:
    """Tridiagonal inverse of the trailing (n-k) x (n-k) block of the resolvent.

    It is the Schur complement of the leading block in w*J - H: the trailing
    block of w*J - H with its corner replaced by the pivot D_{k+1}.  Raises
    SpectrumCollisionError on the spectrum of that leading block (index k),
    where the pivot does not exist, and of the full pencil (index n).
    """
    if not 0 <= k <= pencil.n - 1:
        raise ValueError(f"trailing split {k} out of range 0..{pencil.n - 1}")
    sweep = pivot_sweep(pencil, pencil.n + 1, omega)
    check_spectrum(pencil, sweep.prefix(k + 1), k)
    check_spectrum(pencil, sweep, pencil.n)
    z = sweep.z
    c, d = np.asarray(pencil.J.c[k + 1:]), np.asarray(pencil.J.d[k + 1:])
    a, b = np.asarray(pencil.H.a[k + 1:]), np.asarray(pencil.H.b[k + 1:], dtype=complex)
    size = pencil.n - k
    out = np.zeros((size, size), dtype=complex)
    out.flat[::size + 1] = z * c - a
    out.flat[1::size + 1] = z * d - b
    out.flat[size::size + 1] = z * d - b.conj()
    out[0, 0] = sweep.pivots[k + 1]
    return out


def _trailing_diagonals(table: MFunctionTable, pr: np.ndarray, pl: np.ndarray,
                        k: int) -> tuple[list[complex], list[complex], complex]:
    """T's diagonal and superdiagonal over rows k+1..n, and e_k, in one pass.

    With e_t = g_t p^L_t p^R_t (= 1/D_t), T[i, i] = 1/e_i + 1/(g_{i-1} p^L_i p^R_i)
    (from i = k+2 on) and T[i, i+1] = -1/(g_i p^L_i p^R_{i+1}).  Each t = k+1..n
    is tested once: VanishingComponentError(t), then DegenerateDifferenceError(t)
    for a small e_t (g_t alone decays with the components); e_k is tested last.
    """
    g, m = table.diffs, table.values
    floor = COMPONENT_RTOL * (1.0 + float(np.max(np.abs(pr)) + np.max(np.abs(pl))))
    pr, pl = pr.tolist(), pl.tolist()
    diag, upper = [], []
    for t in (*range(k + 1, len(pr)), k):  # e_k is tested after every row of T
        if t > k and (abs(pl[t]) < floor or abs(pr[t]) < floor):
            raise VanishingComponentError(t)
        e = g[t] * pl[t] * pr[t]
        if abs(e) < DIFFERENCE_RTOL * (1.0 + abs(m[t]) + abs(m[t + 1])):
            raise DegenerateDifferenceError(t)
        if t == k + 1:
            diag.append(1.0 / e)
        elif t > k + 1:
            diag.append(1.0 / e + 1.0 / (g[t - 1] * pl[t] * pr[t]))
            upper.append(-1.0 / (g[t - 1] * pl[t - 1] * pr[t]))
    return diag, upper, e


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

    The trailing block of w*J - H equals the tridiagonal inverse T of the
    trailing resolvent block plus a rank-one correction at its (0, 0) corner
    coming from the coupling entry w*d_k - b_k through the head pencil,
    which is why b_k must be supplied: b_j = w d_j - T[j, j+1] and
    a_j = w c_j - T[j, j], less (w d_k - conj(b_k))(w d_k - b_k) e_k at
    j = k+1.  T's two diagonals and e_k come from _trailing_diagonals, with
    no dense array.  Imaginary parts of the recovered diagonal entries are
    checked and discarded.  The data must be of the order n of J: n+2
    m-values and n+1 components each.
    """
    n = J.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"split index {k} out of range 1..{n - 1}")
    if not (len(table.values) == n + 2 and len(right_comp) == len(left_comp) == n + 1):
        raise ValueError(f"{len(table.values)} m-values and {len(right_comp)}, {len(left_comp)} components "
                         f"do not fit J of order {n}: {n + 2} and {n + 1} expected")
    omega = complex(omega)
    pr, pl = np.asarray(right_comp, dtype=complex), np.asarray(left_comp, dtype=complex)
    diag, upper, e_k = _trailing_diagonals(table, pr, pl, k)
    b_out = [omega * d_j - t for d_j, t in zip(J.d[k + 1:], upper)]
    a_out = [omega * c_j - t for c_j, t in zip(J.c[k + 1:], diag)]
    b_k = complex(b_k)
    a_out[0] -= (omega * J.d[k] - b_k.conjugate()) * (omega * J.d[k] - b_k) * e_k

    reals = []
    for j, v in zip(range(k + 1, n + 1), a_out):
        if abs(v.imag) > IMAG_RTOL * (1.0 + abs(v)):
            raise NonRealDiagonalError(j, v.imag)
        reals.append(v.real)
    return MRouteEntries(k, tuple(b_out), tuple(reals))
