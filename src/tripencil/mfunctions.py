"""m-functions, the closed-form resolvent and its factorization.

The m-function of head(j-1), rows 0..j-1, is m(w, j) = Q_j(w)/P_j(w) = 1/gamma_0
of its twisted factorization, m(w, 0) = 0.  With g_t = m(w, t+1) - m(w, t) the
consecutive differences, the inverse R(w) of (w*J - H) has entries

    R[i, j] = p_j^L * (m(w, n+1) - m(w, max(i, j))) * p_i^R

and factorizes as the staircase F0 * diag(g) * G0, where F0 is upper
triangular with row i constant p_i^R and G0 lower triangular with column j
constant p_j^L.  The orientation of the staircase, the max() in the entry
rule and the overall sign were fixed empirically against dense inversion on
1x1 and 2x2 pencils and are locked by regression tests.  With D_t = P_{t+1}/P_t
the LDL^T pivots of w*J - H,

    g_0 = 1/D_0,   g_t = g_{t-1} w_{t-1} / (D_{t-1} D_t),   p_t^R g_t p_t^L = 1/D_t,

so the staircase is the unit LDU form R = U^-1 diag(1/D) L^-1 (ldu_factors),
whose unit factors hold the component ratios p_i^R/p_t^R and p_j^L/p_t^L.
The g_t themselves decay geometrically and underflow by n ~ 300.  The
diagonal of R is 1/gamma_t, from the twisted pivots (resolvent_matrix).

Every direct operation here reads the point object of recurrence
(_at_point) and forms nothing that can overflow.  Which of its parts are
formed, kept or shared, and whether w is real, is decided there: this
module tests neither.  At a real w the sweep's arrays are float64, so the
m-values and differences are formed in real arithmetic; the tables and
factors still hold Python complex numbers.  m_table hands the margin of
every head and the backward pivots of the full head over to the point, so
that m_table, resolvent_matrix, ldu_factors and trailing_inverse back to
back at one point run each O(n) loop once.

Each operation raises SpectrumCollisionError where what it returns does not
exist: m_table on the spectrum of any leading sub-pencil, m_function(j) on
that of rows 0..j-1, resolvent_matrix and ldu_factors on that of the full
pencil, trailing_inverse on that of head(k) or of the full pencil.  Next to
a sub-pencil eigenvalue the m-values, the Schur pivot and the resolvent
stay within a small multiple of their own conditioning (against dense
inversion), so a small pivot elsewhere costs them no accuracy.  The product
of the unit factors does not, and ldu_factors also raises at a pivot margin
below FACTOR_RTOL.  resolvent_matrix and ldu_factors raise
PoleCollisionError where a step of the unit factors has a pole.

The inverse of a trailing block of R is tridiagonal: the trailing block of
w*J - H with its corner replaced by a pivot (trailing_inverse).  Written in
m-function data its diagonals are built from 1/(g_t p^L_t p^R_t) = D_t and
neighbouring components, which is what makes reconstruction of H from
m-function data possible (reconstruct_from_m, one pass with no dense array,
guarded by giep's guards on the components and on the real part of a_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDifferenceError
from .giep import _check_component, _check_split, _real_part
from .pencil import Pencil, SymmetricTridiagonal
from .recurrence import (_at_point, _check_margins, _finite_point, _Point, _unit_upper, head_margins, pivot_sweep,
                         unit_factors)
from .tolerances import DIFFERENCE_RTOL, FACTOR_RTOL, SPECTRUM_RTOL


@dataclass(frozen=True)
class MFunctionTable:
    """m(w, j) for j = 0..n+1 at a fixed resolvent point w, and diffs[t] = g_t = m(w, t+1) - m(w, t).

    Consecutive differences decay geometrically (the convergents converge),
    so forming them by subtracting table values loses all relative accuracy
    once they fall below roundoff of the values.  The table therefore holds
    them in the cancellation-free product form
    g_t = prod_{s<t} w_s / (P_t P_{t+1}) that the Wronskian identity gives,
    which m_table takes from the pivots as g_t = g_{t-1} w_{t-1}/(D_{t-1} D_t).
    values[j] = 1/gamma_0 of head(j-1) (head_margins), so top is R[0, 0] of resolvent_matrix, bit for bit.
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
    """m(w, j) = R_head(j-1)[0, 0] = 1/gamma_0 of the head test's pass, m_table's values[j]; 0 for j = 0.

    Raises SpectrumCollisionError(j-1) on the spectrum of rows 0..j-1 only.
    """
    if not 0 <= j <= pencil.n + 1:
        raise ValueError(f"m-function index {j} out of range 0..{pencil.n + 1}")
    if j == 0:
        return 0j
    return complex(1.0 / _Point(pivot_sweep(pencil, j, omega)).check((j - 1,)).twisted[0][0])


def m_table(pencil: Pencil, omega: complex) -> MFunctionTable:
    """All values m(w, 0)..m(w, n+1), 1/gamma_0 of each head (head_margins), and their differences in one pivot pass.

    The differences are g_0 = 1/D_0 and g_t = g_{t-1} w_{t-1}/(D_{t-1} D_t).
    The head test steps the backward pivots of the full pencil too; the
    point keeps them with the margins of every head for the operations that
    follow at w (recurrence._Point.keep), which form the full-order twisted
    pass from them only if they read it.
    """
    point = _at_point(pencil, omega)
    sweep = point.sweep
    margins, corners, backward = head_margins(sweep)
    point.keep(margins, backward)
    _check_margins(sweep.z, margins, SPECTRUM_RTOL)
    D = sweep.pivots
    diffs = np.cumprod(np.concatenate(([1.0 / D[0]], sweep.weights / (D[:-1] * D[1:]))), dtype=complex)
    return MFunctionTable(sweep.z, tuple(np.concatenate(([0j], 1.0 / corners)).tolist()), tuple(diffs.tolist()))


def resolvent_matrix(pencil: Pencil, omega: complex) -> np.ndarray:
    """Dense inverse of (w*J - H) from the forward and the twisted pivots.

    The diagonal is R[t, t] = 1/gamma_t from the twisted pass of the head
    test, which raises SpectrumCollisionError(n) on the spectrum of the
    full pencil.  Off the diagonal
    R[i, j] = F[i, j] R[j, j] above it and G[i, j] R[i, i] below it, with F,
    G the unit factors of ldu_factors: the diagonal is folded into the pass
    that forms each factor, and G is formed straight into the lower
    triangle of the array that holds F (recurrence._unit_upper).
    Both pivot passes are exact for coefficients perturbed by a few ulps, so
    small pivots on the way cost no accuracy beyond the conditioning of
    w*J - H.
    """
    point = _at_point(pencil, omega).check((pencil.n,))
    diag = 1.0 / point.twisted[0]
    right, left = point.unit
    return _unit_upper(right, diag, left)


@dataclass(frozen=True)
class ResolventFactors:
    """Unit factorization R = F * diag(1/D) * G of the resolvent, D the pivots.

    With w*J - H = L D U, F = U^-1 is unit upper triangular with
    F[i, t] = p_i^R/p_t^R, G = L^-1 is unit lower triangular with
    G[t, j] = p_j^L/p_t^L, and diag holds 1/D_t = p_t^R g_t p_t^L.  The
    staircase form of the paper, with constant rows p_i^R and the
    m-differences g_t on its diagonal, is F * diag(p_t^R) with diagonal
    diag_t/(p_t^R p_t^L); it is not stored because g_t underflows by n ~ 300.
    For real w, G is the conjugate transpose of F, and ldu_factors forms it
    so: G == conj(F).T holds entry for entry, and a zero imaginary part may
    carry either sign.
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
    point = _at_point(pencil, omega).check((pencil.n,))
    sweep = point.sweep
    _check_margins(sweep.z, sweep.margins, FACTOR_RTOL)
    _, d, _, b = pencil._diagonals
    weights, scale = np.abs(sweep.weights), (np.abs(sweep.z * d) + np.abs(b)) ** 2
    flat = np.flatnonzero(weights < DIFFERENCE_RTOL * scale)
    if flat.size:
        t = int(flat[0])
        raise DegenerateDifferenceError(t + 1, float(weights[t]), float(scale[t]), DIFFERENCE_RTOL)
    F, G = unit_factors(point)
    return ResolventFactors(sweep.z, F, tuple((1.0 / sweep.pivots).astype(complex).tolist()), G)


def trailing_inverse(pencil: Pencil, k: int, omega: complex) -> np.ndarray:
    """Tridiagonal inverse of the trailing (n-k) x (n-k) block of the resolvent.

    It is the Schur complement of the leading block in w*J - H: the trailing
    block of w*J - H with its corner replaced by the pivot D_{k+1}.  Raises
    SpectrumCollisionError on the spectrum of that leading block (index k),
    where the pivot does not exist, and of the full pencil (index n): two
    twisted passes on one pivot sweep, which holds the block's entries too;
    after m_table at w, the head margins it kept instead.
    """
    if not 0 <= k <= pencil.n - 1:
        raise ValueError(f"trailing split {k} out of range 0..{pencil.n - 1}")
    sweep = _at_point(pencil, omega).check((k, pencil.n)).sweep
    size = pencil.n - k
    out = np.zeros((size, size), dtype=complex)
    out.flat[::size + 1] = sweep.u[k + 1:]
    out.flat[1::size + 1] = sweep.upper[k + 1:]
    out.flat[size::size + 1] = sweep.lower[k + 1:]
    out[0, 0] = sweep.pivots[k + 1]
    return out


def _trailing_diagonals(table: MFunctionTable, pr: np.ndarray, pl: np.ndarray,
                        k: int) -> tuple[list[complex], list[complex], complex]:
    """T's diagonal and superdiagonal over rows k+1..n, and e_k, in one pass.

    With e_t = g_t p^L_t p^R_t (= 1/D_t), T[i, i] = 1/e_i + 1/(g_{i-1} p^L_i p^R_i)
    (from i = k+2 on) and T[i, i+1] = -1/(g_i p^L_i p^R_{i+1}).  In ratios these
    read e_{i-1} (p^L_i/p^L_{i-1})(p^R_i/p^R_{i-1}) and e_i p^R_{i+1}/p^R_i, so each
    t = k+1..n is tested once, against its neighbours by giep._check_component:
    VanishingComponentError(t) where |p^L_t| or |p^R_t| is at most
    COMPONENT_RTOL times its larger neighbour (zero included, p_{n+1} = 0),
    then DegenerateDifferenceError(t) where |e_t| <= DIFFERENCE_RTOL (|m_t| + |m_{t+1}|),
    scale-free (g_t alone decays with the components); e_k is tested last.
    """
    g, m = table.diffs, table.values
    al, ar = np.abs(pl).tolist() + [0.0], np.abs(pr).tolist() + [0.0]  # |p_{n+1}| = 0 ends the last row
    pr, pl = pr.tolist(), pl.tolist()
    diag, upper = [], []
    for t in (*range(k + 1, len(pr)), k):  # e_k is tested after every row of T
        if t > k:
            _check_component(t, al, t)
            _check_component(t, ar, t)
        e = g[t] * pl[t] * pr[t]
        scale = abs(m[t]) + abs(m[t + 1])
        if abs(e) <= DIFFERENCE_RTOL * scale:
            raise DegenerateDifferenceError(t, abs(e), scale, DIFFERENCE_RTOL)
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
    checked against the terms that form them and discarded.  The data must
    be of the order n of J: n+2 m-values and n+1 components each.
    """
    n = J.n
    _check_split(k, n)
    if not (len(table.values) == n + 2 and len(right_comp) == len(left_comp) == n + 1):
        raise ValueError(f"{len(table.values)} m-values and {len(right_comp)}, {len(left_comp)} components "
                         f"do not fit J of order {n}: {n + 2} and {n + 1} expected")
    omega = _finite_point(omega)
    pr, pl = np.asarray(right_comp, dtype=complex), np.asarray(left_comp, dtype=complex)
    diag, upper, e_k = _trailing_diagonals(table, pr, pl, k)
    b_out = [omega * d_j - t for d_j, t in zip(J.d[k + 1:], upper)]
    zc = [omega * c_j for c_j in J.c[k + 1:]]
    a_out = [v - t for v, t in zip(zc, diag)]
    scales = [abs(v) + abs(t) for v, t in zip(zc, diag)]
    b_k = complex(b_k)
    coupling = (omega * J.d[k] - b_k.conjugate()) * (omega * J.d[k] - b_k) * e_k
    a_out[0] -= coupling
    scales[0] += abs(coupling)
    reals = tuple(_real_part(j, v, scale) for j, v, scale in zip(range(k + 1, n + 1), a_out, scales))
    return MRouteEntries(k, tuple(b_out), reals)
