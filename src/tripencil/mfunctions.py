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
m-function data its entries are built from 1/g_t and the components
(trailing_inverse_from), which is what makes reconstruction of H from
m-function data possible.
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
        raise SpectrumCollisionError(pencil.n, sweep.z)
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
        raise SpectrumCollisionError(int(low[0]), z)
    terms = np.abs(z * np.asarray(pencil.J.d)) + np.abs(np.asarray(pencil.H.b))
    flat = np.flatnonzero(np.abs(np.asarray(sweep.weights, dtype=complex)) < DIFFERENCE_RTOL * terms ** 2)
    if flat.size:
        raise DegenerateDifferenceError(int(flat[0]) + 1)
    F, G = unit_factors(pencil, sweep)
    return ResolventFactors(z, F, tuple((1.0 / np.asarray(sweep.pivots)).tolist()), G)


def _checked_difference(table: MFunctionTable, t: int, pl_t: complex, pr_t: complex) -> complex:
    """g_t, after checking g_t p^L_t p^R_t = 1/D_t, the quantity the route divides by.

    g_t alone decays like the inverse square of the components, so it says
    nothing about coincident m-values once the components grow.
    """
    g = table.diffs[t]
    if abs(g * pl_t * pr_t) < DIFFERENCE_RTOL * (1.0 + abs(table.values[t]) + abs(table.values[t + 1])):
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
        pli = _checked_component(pl, i, scale)
        pri = _checked_component(pr, i, scale)
        gi = _checked_difference(table, i, pli, pri)
        io = i - (k + 1)
        out[io, io] += 1.0 / (gi * pli * pri)
        if i > k + 1:
            gprev = _checked_difference(table, i - 1, pl[i - 1], pr[i - 1])
            out[io, io] += 1.0 / (gprev * pli * pri)
        if i < n:
            out[io, io + 1] = -1.0 / (gi * pli * _checked_component(pr, i + 1, scale))
            out[io + 1, io] = -1.0 / (gi * _checked_component(pl, i + 1, scale) * pri)
    return out


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
    trailing resolvent block (trailing_inverse_from) plus a rank-one
    correction at its (0, 0) corner coming from the coupling entry
    w*d_k - b_k through the head pencil, which is why b_k must be supplied:
    b_j = w d_j - T[j, j+1], a_j = w c_j - T[j, j], less that correction at
    j = k+1.  Imaginary parts of the recovered diagonal entries are checked
    and discarded.
    """
    n = J.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"split index {k} out of range 1..{n - 1}")
    omega = complex(omega)
    pr, pl = np.asarray(right_comp, dtype=complex), np.asarray(left_comp, dtype=complex)
    T = trailing_inverse_from(table, pr, pl, k, n)
    b_out = [omega * d_j - t for d_j, t in zip(J.d[k + 1:], np.diagonal(T, 1))]
    a_out = [omega * c_j - t for c_j, t in zip(J.c[k + 1:], np.diagonal(T))]
    gk = _checked_difference(table, k, pl[k], pr[k])
    b_k = complex(b_k)
    a_out[0] -= (omega * J.d[k] - b_k.conjugate()) * (omega * J.d[k] - b_k) * pl[k] * gk * pr[k]

    reals = []
    for j, v in zip(range(k + 1, n + 1), a_out):
        if abs(v.imag) > IMAG_RTOL * (1.0 + abs(v)):
            raise NonRealDiagonalError(j, v.imag)
        reals.append(v.real)
    return MRouteEntries(k, tuple(b_out), tuple(reals))
