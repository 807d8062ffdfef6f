"""Three-term recurrence machinery for the pencil z*J - H.

P_m is the order-m leading principal minor of (z*J - H); Q_m satisfies the
same recurrence started one index later, so that Q_{n+1} is the minor with
the first row and column removed and Q_m/P_m is the depth-m convergent of
the associated continued fraction:

    X_{m+1} = (z c_m - a_m) X_m - (z d_{m-1} - b_{m-1})(z d_{m-1} - conj(b_{m-1})) X_{m-1}

with P_{-1} = 0, P_0 = 1 and Q_0 = 0, Q_1 = 1.  The undefined m=0 coefficient
multiplying X_{-1} is taken to be 1, which forces Q_1 = 1 and makes Q_1/P_1
the first convergent 1/(z c_0 - a_0).  Sign convention, fixed once against
dense inversion and regression-tested: with these seeds

    P_{m+1} Q_m - P_m Q_{m+1} = - prod_{j<m} (z d_j - b_j)(z d_j - conj(b_j)).

The component sequences p^R / p^L solve the same recurrence, normalized to 1
at index 0: the right/left eigenvectors at an eigenvalue in exact arithmetic,
which the forward recurrence loses in floating point as n grows, so
eigenvector_components takes the eigenvector from a twisted factorization.
pq_sweep and the component sweeps step on plain Python complex numbers, as
numpy scalar arithmetic costs about twice as much per step, on coefficients
formed in one array pass, so that each loop does the step alone.  Their
values leave the double range by n ~ 300.

Every other operation reads the pivot pass (pivot_sweep): z*J - H at z with
its LDL^T pivots D_t = P_{t+1}/P_t, ratios that need no rescaling (Parlett &
Dhillon, LAA 267, 1997).  The operations at one (pencil, z) share one point
object (_Point), which the pencil keeps for the last point it was evaluated
at (_at_point), so that each O(n) loop runs once per point; a bare sweep
(m_function, solve, the generator) is a point of its own, not kept.  The
point holds the full-order sweep and, each formed on first read:

- the twisted pass (twisted_pivots): gamma_r = 1/(z*J - H)^-1[r, r], the
  backward pivots and the margin min_r |gamma_r|/(its terms), which is 0 at
  an eigenvalue whichever row its eigenvector lives on;
- the margin of every head and the backward pivots of the full head, handed
  over by m_table (_Point.keep), from which the twisted pass is then joined;
- the prefix products of the steps of both unit factors U^-1 and L^-1 of
  z*J - H = L D U (_Point.unit), one scale-free loop from which unit_factors
  and mfunctions.resolvent_matrix form their arrays in array passes alone
  (_unit_upper).

Whether z is real is decided once, in pivot_sweep.  At a real z (z.imag ==
0, of either sign) z*J - H is Hermitian, and off the spectrum its pivots,
twisted pivots and m-values are real: the sweep forms its arrays from
z.real, so that u, w = |z d - b|^2, x, the pivots, terms and margins are
float64 (the off-diagonals stay complex), and every pass that reads them
steps in real arithmetic, the head test's divides and moduli included.
R is then exactly Hermitian.  The other readers take the realness from the
sweep's dtype: _Point.unit takes the left prefix products as the
conjugates of the right ones, as L^-1 = conj(U^-1)^T, and unit_factors
takes G as conj(F)^T, which is cheaper than forming it.

A head's margin is read in one place, _Point.margin: the kept one, else
the full pass for the last row, else a pass on a prefix of the sweep.
head_margins gives every head at once, for m_table, and stops once the
bottom-up passes of neighbouring heads have joined, bit for bit, which off
the spectrum they do within a few dozen rows: O(n) work per row reached,
not O(n^2) per point.  twisted_pivots runs one head's pass on numpy
scalars, which round as head_margins' array steps do, so a margin has the
same bits whichever computes it.  The corner gamma_0 of head(j-1) is
1/m(z, j), so the same passes give the m-values.

The operations raise ValueError where z is not finite, an index is out of
range or an unscaled sweep leaves the double range; SpectrumCollisionError(t)
where the margin of head(t) falls below its tolerance (_check_margins);
PoleCollisionError(s) where b_s - z d_s or conj(b_s) - z d_s vanishes against
its terms (_check_poles), in the component sweeps and the unit factors; and
VanishingComponentError(0) where the twisted eigenvector's v_0 vanishes.
"""

from __future__ import annotations

import cmath
import math
import struct
from typing import NamedTuple

import numpy as np

from .errors import PoleCollisionError, SpectrumCollisionError, VanishingComponentError
from .pencil import Pencil
from .tolerances import POLE_RTOL, SPECTRUM_RTOL

_EPS = 2.0 ** -52  # an exactly zero forward or backward pivot takes this much of its terms as a stand-in
_LIFT = 2.0 ** 64  # _unit_upper's row factor 2^64/M_i, M_i in [2^-64, 2^63), lies in (2, 2^128]
_STEPS_HELD = 64  # head_margins lowers the margins every this many steps: O(n) memory where heads do not join


def _check_index(pencil: Pencil, m: int) -> None:
    if not 0 <= m <= pencil.n + 1:
        raise ValueError(f"recurrence index {m} out of range 0..{pencil.n + 1}")


def _finite_point(z: complex) -> complex:
    """z as a complex number; ValueError where it is NaN or infinite, at which no sweep has a value."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"the point z = {z!r} is not finite")
    return z


def _check_finite(**sequences) -> None:
    """Raise ValueError at the first entry, in argument order, that is not finite.

    Testing the last entry is enough: the unscaled recurrences never divide
    by a value they carry, so a value that leaves the double range stays out.
    """
    for name, values in sequences.items():
        if not cmath.isfinite(values[-1]):
            i = next(i for i, v in enumerate(values) if not cmath.isfinite(v))
            raise ValueError(f"{name}[{i}] = {values[i]} is not finite: "
                             "the unscaled recurrence leaves the double range at this point")


def pq_sweep(pencil: Pencil, upto: int, z: complex) -> tuple[list[complex], list[complex]]:
    """Values P_0..P_upto and Q_0..Q_upto at z in one pass; ValueError where they leave the double range."""
    _check_index(pencil, upto)
    return _pq_sweep(pencil, upto, _finite_point(z))[:2]


def _pq_sweep(pencil: Pencil, upto: int, z: complex) -> tuple[list[complex], list[complex], list[complex]]:
    """pq_sweep's P and Q, and the w_m = (z d_m - b_m)(z d_m - conj(b_m)), m < upto - 1, that it steps on.

    One array pass forms u_m = z c_m - a_m and w_m, each w_m as Python's
    complex product of its two factors: real part ur*lr - ui*li and
    imaginary part ur*li + ui*lr, each by its own real operation, for
    numpy's complex multiply rounds some products differently.  Entries past
    the double range come out infinite or NaN there, without a warning, and
    the check after the loop reports the first value they make non-finite.
    """
    c, d, a, b = pencil._diagonals
    cut = max(upto - 1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        u = z * c[:upto] - a[:upto]
        zd = z * d[:cut]
        upper, lower = zd - b[:cut], zd - b[:cut].conj()
        ur, ui, lr, li = upper.real, upper.imag, lower.real, lower.imag
        w = np.empty(cut, dtype=complex)
        w.real = ur * lr - ui * li
        w.imag = ur * li + ui * lr
    u, w = u.tolist(), w.tolist()
    P = [1.0 + 0j]
    Q = [0.0 + 0j]
    if u:
        p0, p1, q0, q1 = P[0], u[0], Q[0], 1.0 + 0j
        P.append(p1)
        Q.append(q1)
    for um, wl in zip(u[1:], w):  # w_{m-1}
        p0, p1 = p1, um * p1 - wl * p0
        q0, q1 = q1, um * q1 - wl * q0
        P.append(p1)
        Q.append(q1)
    _check_finite(P=P, Q=Q)
    return P, Q, w


def eval_p(pencil: Pencil, m: int, z: complex) -> complex:
    """P_m(z); for m = n+1 this is det(z*J - H)."""
    return pq_sweep(pencil, m, z)[0][m]


def eval_q(pencil: Pencil, m: int, z: complex) -> complex:
    """Q_m(z); for m = n+1 this is the minor of z*J - H without row/column 0."""
    return pq_sweep(pencil, m, z)[1][m]


class PivotSweep(NamedTuple):
    """z*J - H at the point z over rows 0..N-1, with its LDL^T pivots and their margins.

    The entries of z*J - H: the diagonal u_t = z c_t - a_t, the
    off-diagonals upper_t = z d_t - b_t (row t, column t+1) and lower_t =
    z d_t - conj(b_t), their product weights_t = w_t, and own_t = |z c_t| +
    |a_t|.  At a real z, u, weights, x, terms, pivots and margins are
    float64 and upper and lower complex128; elsewhere all but own, terms
    and margins are complex128 (pivot_sweep).  pivots[t] = P_{t+1}(z)/P_t(z)
    is the t-th pivot D_t of z*J - H = L D U: D_t = u_t - x_t, x_t = w_{t-1}/D_{t-1}
    (x_0 = 0).  margins[t] = |D_t| / terms_t, terms_t = own_t + |x_t|, says
    how far the terms of the pivot are from cancelling; it bounds how much
    the unit factors of z*J - H outgrow it.  The terms of u_t count apart,
    or the order-0 margin would read 1 at every inexact root of z c_0 - a_0.
    An exactly zero pivot reads margin 0 and holds a stand-in, and the two
    rows after it read the true zero minor (pivot_sweep).  m(z, t+1) =
    R_head(t)[0, 0] is 1/gamma_0 of the twisted pass of head(t)
    (_Point.check, head_margins), which also decides whether z is in the
    spectrum of a leading sub-pencil: the pivot misses an eigenvalue whose
    eigenvector nearly vanishes at the last row.  Every field but z is a
    numpy array; a named tuple builds in a fraction of a frozen dataclass's time.
    Readers take the dtype of u as the one test of whether z is real.
    """

    z: complex
    u: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    weights: np.ndarray
    own: np.ndarray
    x: np.ndarray
    terms: np.ndarray
    pivots: np.ndarray
    margins: np.ndarray

    def prefix(self, rows: int) -> "PivotSweep":
        """The sweep of the leading sub-pencil over rows 0..rows-1, in views; the sweep itself if that is all of it."""
        if rows >= len(self.pivots):
            return self
        cut = max(rows - 1, 0)
        return PivotSweep(self.z, self.u[:rows], self.upper[:cut], self.lower[:cut], self.weights[:cut],
                          self.own[:rows], self.x[:rows], self.terms[:rows], self.pivots[:rows], self.margins[:rows])


def pivot_sweep(pencil: Pencil, upto: int, z: complex) -> PivotSweep:
    """z*J - H at z over rows 0..upto-1, and the pivots and margins of P_1..P_upto, in one O(upto) pass.

    One array pass forms every entry of z*J - H and w.  The loop then
    steps x_t alone on plain Python numbers: the pivot recurrence
    D_t = u_t - x_t, x_t = w_{t-1}/D_{t-1} (x_0 = 0), the LDL^T form of the
    P recurrence, carries ratios only, so nothing overflows at any order,
    and D_t = P_{t+1}/P_t wherever pq_sweep's values are representable, to
    rounding.  The pivots follow in one array pass u - x, bit for bit the
    loop's, for a complex difference rounds each part alone.  At a real z
    (z.imag == 0) every array but upper and lower is formed from z.real in
    real arithmetic, w as |z d - b|^2, and the loop steps floats: the
    real parts of complex arithmetic, bit for bit (Python's complex division
    by a real-valued complex is the float division), with no imaginary parts
    to carry; numpy's complex product would leave a rounding error in the
    imaginary part of w, and R would not be exactly Hermitian.  Where D_t
    is exactly zero (margin 0) the pivot is a stand-in of 2^-52 times its
    terms, or 2^-52 where they vanish, as LAPACK's pivmin does; the recurrence and the margins use the true zero
    P_{t+1} = 0 (_pivot_row), whose pivots and margins replace those of the
    array passes after the loop.
    """
    _check_index(pencil, upto)
    z = _finite_point(z)
    c, d, a, b = pencil._diagonals
    cut = max(upto - 1, 0)
    real = z.imag == 0
    at = z.real if real else z
    zc, zd, a, b = at * c[:upto], at * d[:cut], a[:upto], b[:cut]
    u, upper, lower = zc - a, zd - b, zd - b.conj()
    weights = upper.real ** 2 + upper.imag ** 2 if real else upper * lower
    own = np.abs(zc) + np.abs(a)
    D, after, xs, rows = 1.0, 0, [], {}
    for ut, wt in zip(u.tolist(), [0.0, *weights.tolist()]):
        x = wt / D
        D = ut - x
        if after or not D:
            t = len(xs)
            D, margin, after = rows[t] = _pivot_row(after, D, ut, x, own[t])
        xs.append(x)
    x = np.fromiter(xs, u.dtype, upto)
    pivots, terms = u - x, own + np.abs(x)
    if rows:  # the terms vanish only where the pivot is exactly zero, on a patched row
        index, (D, margin, _) = list(rows), zip(*rows.values())
        pivots[index] = D
        margins = np.abs(pivots) / np.where(terms > 0, terms, 1.0)
        margins[index] = margin
    else:
        margins = np.abs(pivots) / terms
    return PivotSweep(z, u, upper, lower, weights, own, x, terms, pivots, margins)


def _pivot_row(after: int, D: complex, u: complex, x: complex, own: float) -> tuple[complex, float, int]:
    """(pivot, margin, after) of a pivot_sweep row on or past an exactly zero pivot, own = |z c_t| + |a_t|.

    after counts the rows since the last exactly zero pivot D_s that still
    see the true zero P_{s+1} = 0: on row s + 1 (after = 1) u P_{s+1} drops
    out, so D = -x and only |x| counts in the margin; on row s + 2
    (after = 2) x = 0 and D = u exactly.  Two zero minors in a row make
    every later one zero (after = 3): margin 0 from there on.  An exactly
    zero pivot reads margin 0, and its stand-in is 2^-52 times its terms.
    """
    if after == 1:
        D, terms = -x, abs(x)
    elif after == 2:
        D, terms = u, own
    elif after == 3:
        D, terms = 0.0, 0.0
    else:
        terms = own + abs(x)
    if D:
        return D, abs(D) / terms, 2 if after == 1 else 0
    return type(u)(_EPS * (terms or 1.0)), 0.0, 3 if after in (1, 3) else 1


def unit_factors(point: _Point) -> tuple[np.ndarray, np.ndarray]:
    """F = U^-1 and G = L^-1 for the unit factors of z*J - H = L D U at the point, D = diag(pivots).

    F[i, t] = p^R_i/p^R_t = prod_{s=i}^{t-1} (b_s - z d_s)/D_s for i <= t (unit
    upper triangular) and G[t, j] = p^L_j/p^L_t, the same with conj(b_s)
    (unit lower triangular), from the point's prefix products (_Point.unit).
    At a real z, G is taken as conj(F)^T, which costs less than forming it
    by a second _unit_upper.
    """
    right, left = point.unit
    F = _unit_upper(right)
    return F, (_unit_upper(left) if np.iscomplexobj(point.sweep.u) else F.conj()).T


def _unit_steps(diagonals: tuple[np.ndarray, ...], sweep: PivotSweep) -> tuple[np.ndarray, np.ndarray]:
    """The steps (b_s - z d_s)/D_s of U^-1 and (conj(b_s) - z d_s)/D_s of L^-1 (unit_factors).

    One array pass on the sweep's off-diagonals: the pole test of the
    component sweeps on every s at once, on the smaller of the two moduli
    (equal bit for bit at a real z), raising PoleCollisionError(s) at the
    first s that fails it (its scale |b_s| + |z d_s| reads the pencil's
    diagonals), then the divisions.
    """
    _, d, _, b = diagonals
    upper, lower = sweep.upper, sweep.lower
    _check_poles(np.minimum(np.abs(upper), np.abs(lower)), b, sweep.z * d)
    D = -sweep.pivots[:-1]  # (b_s - z d_s)/D_s = upper_s/(-D_s)
    return upper / D, lower / D


def _check_poles(value: np.ndarray, b: np.ndarray, zd: np.ndarray) -> None:
    """Raise PoleCollisionError(s) at the first s with value[s] <= POLE_RTOL (|b_s| + |z d_s|); an exact zero too.

    The test is scale-free: 2^s (J, H) has its poles where (J, H) has them.
    """
    scale = np.abs(b) + np.abs(zd)
    poles = value <= POLE_RTOL * scale
    if np.count_nonzero(poles):
        s = int(np.argmax(poles))
        raise PoleCollisionError(s, float(value[s]), float(scale[s]), POLE_RTOL)


def _unit_upper(steps: _Prefix, scale: np.ndarray | None = None, lower: _Prefix | None = None) -> np.ndarray:
    """S[i, t] = steps[i] * ... * steps[t-1] * scale[t] for i <= t, zero below the diagonal.

    steps and lower are given by their prefix products (_prefix_products).
    No scale means ones.  With lower, of the same length, the part below
    the diagonal is that of _unit_upper(lower, scale).T instead:
    S[t, i] = lower[i] * ... * lower[t-1] * scale[t] for i < t, which is how
    resolvent_matrix forms R in one array.  The prefix products C_t are
    carried as mantissa * 2^exponent, and the exponent changes only where
    the mantissa is rescaled, so the indices fall into runs of one exponent
    (a dozen at n = 640).  Each run of rows i is one outer product of
    2^64/M_i with the column mantissas M_t scale[t] shifted by
    2^(E_t - E_run - 64) (_runs): S[i, t] = C_t/C_i with no n^2 exponent
    matrix.  The mantissas lie in [2^-64, 2^63), so the row factor lies in
    (2, 2^128] and the column factor never outgrows its entry: every entry
    below the overflow threshold comes back finite, and every entry above
    2^-894 (~1e-269) with full relative accuracy.

    S is allocated empty.  Each run's outer product goes in place into its
    rows from the diagonal on, so its diagonal block is written whole; below
    the block's diagonal that writes C_t/C_i, t < i in one run, which is
    below 2^128 |scale[t]| and so finite.  Without lower, the rows are then
    zeroed left of the block and the block below its diagonal.  With lower,
    the runs of lower write the strictly lower part of S over them, each
    diagonal block through a mask of its lower triangle, so that the upper
    triangle of S stays as written.
    """
    size = len(steps.mantissas)
    S = np.empty((size, size), dtype=complex)
    runs = _runs(steps, scale)
    masked = runs if lower is None else _runs(lower, scale)  # the runs whose blocks are cut at the diagonal
    below = np.tri(max(hi - lo for lo, hi, _, _ in masked), k=-1, dtype=bool)
    for lo, hi, lift, shifted in runs:
        np.multiply.outer(lift, shifted, out=S[lo:hi, lo:])
        if lower is None:
            S[lo:hi, :lo] = 0
            np.copyto(S[lo:hi, lo:hi], 0, where=below[:hi - lo, :hi - lo])
    if lower is not None:
        T = S.T
        for lo, hi, lift, shifted in masked:
            width = hi - lo
            np.multiply.outer(lift, shifted[width:], out=T[lo:hi, hi:])
            np.copyto(T[lo:hi, lo:hi], np.multiply.outer(lift, shifted[:width]), where=below[:width, :width].T)
    np.fill_diagonal(S, 1.0 if scale is None else scale)
    return S


class _Prefix(NamedTuple):
    """The prefix products C_t = steps[0] * ... * steps[t-1], t = 0..N, as M_t 2^E_t (_prefix_products)."""

    mantissas: np.ndarray  # M_t, in [2^-64, 2^63) in modulus
    exponents: np.ndarray  # E_t, one per row of a column
    bounds: tuple[int, ...]  # lo of each run of one exponent, then N + 1


def _prefix_products(steps: np.ndarray) -> _Prefix:
    """The scale-free half of _runs, in one loop over the steps: the mantissas, exponents and runs of the C_t.

    The loop multiplies plain Python complex numbers, as numpy's complex
    multiply rounds some products differently.  The mantissa is rescaled by
    a power of 2, exactly, where it leaves [2^-64, 2^64), and a new run
    starts there.  The arrays are read-only.
    """
    mant, expo, runs = [1 + 0j], [0], [0]
    m, e = 1 + 0j, 0
    for t, q in enumerate(steps.tolist(), start=1):
        m *= q
        k = math.frexp(abs(m))[1]
        if not -64 < k < 64:
            m, e = m * math.ldexp(1.0, -k), e + k
            runs.append(t)
        mant.append(m)
        expo.append(e)
    M, E = np.asarray(mant), np.asarray(expo)[:, None]
    _read_only((M, E))
    return _Prefix(M, E, (*runs, len(mant)))


def _runs(steps: _Prefix, scale: np.ndarray | None) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """(lo, hi, 2^64/M_i for i in lo..hi-1, M_t scale[t] 2^(E_t - E_lo - 64) for t >= lo) of each run of steps.

    The half of _unit_upper's runs that depends on the scale: array passes on the prefix products alone.
    """
    M, E, bounds = steps
    # ldexp on the (real, imaginary) rows of the column mantissas shifts them exactly
    cols = (M if scale is None else M * scale).view(float).reshape(-1, 2)
    return [(lo, hi, _LIFT / M[lo:hi], np.ldexp(cols[lo:], E[lo:] - (E[lo] + 64)).view(complex)[:, 0])
            for lo, hi in zip(bounds, bounds[1:])]


def twisted_pivots(sweep: PivotSweep) -> tuple[np.ndarray, float, np.ndarray]:
    """gamma_r = 1/(z*J - H)^-1[r, r] over rows 0..N-1, N = len(sweep.pivots), their margin and D-_r.

    gamma_r = u_r - x_r - y_r joins the forward term x_r = w_{r-1}/D_{r-1}
    (x_0 = 0) of the sweep with the backward term y_r = w_r/D-_{r+1}
    (y_{N-1} = 0) of the pivots taken from row N-1 up, as in a twisted
    factorization: D-_{N-1} = u_{N-1} and D-_r = u_r - y_r, each exactly
    zero one replaced by _stand_in.  The margin is the pivot margin on row
    N-1, which sees a true zero minor, and min_r |gamma_r| / (|z c_r| +
    |a_r| + |x_r| + |y_r|) above it (_twisted_margins): 0 at an eigenvalue
    of the order-(N-1) leading sub-pencil, whichever row its eigenvector
    lives on.  It is head_margins' margin of head(N-1), bit for bit: the
    pass is its vector step on numpy scalars of the sweep's dtype, float64 at
    a real z and complex128 elsewhere, which round as its array operations
    do (Python's complex division and abs() do not).  The backward pivots
    D-_r are returned as well, head_margins' third array.
    """
    u, w, own = sweep.u, sweep.weights, sweep.own
    scalar = u.dtype.type
    Y = u[-1] or scalar(_stand_in(own[-1]))
    backward = [Y]
    for ur, wr in zip(list(u[-2::-1]), list(w[::-1])):
        y = wr / Y
        Y = ur - y
        if not Y:  # on row N - 1 - len(backward)
            Y = scalar(_stand_in(own[-1 - len(backward)] + np.abs(y)))
        backward.append(Y)
    backward = np.array(backward[::-1])
    gamma, y = _joined(sweep, backward)
    above = _twisted_margins(gamma[:-1], sweep.terms[:-1], y)
    return gamma, float(above.min(initial=sweep.margins[-1])), backward


def _joined(sweep: PivotSweep, backward: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gamma_r = u_r - x_r - y_r of twisted_pivots and y_r = w_r/D-_{r+1}, from the backward pivots D-_r."""
    y = sweep.weights / backward[1:]
    gamma = sweep.u - sweep.x  # u - x - y, with y_{N-1} = 0
    gamma[:-1] -= y
    return gamma, y


def _twisted_margins(gamma: np.ndarray, terms: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|gamma_r|/(terms_r + |y_r|) on rows above a head's last; 0, not 0/0, on a row whose terms all vanish."""
    scale = terms + np.abs(y)
    if not scale.all():
        scale[scale == 0] = 1.0
    return np.divide(np.abs(gamma), scale, out=out)


def _stand_in(terms):
    """What stands in for an exactly zero backward pivot: 2^-52 times its terms, or 2^-52 where those are zero."""
    return _EPS * np.where(terms > 0, terms, 1.0)


def head_margins(sweep: PivotSweep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twisted margins at sweep.z of the leading sub-pencils head(t), t = 0..N-1, their gamma_0, and D-_r of head(N-1).

    N = len(sweep.pivots).  Entry t is twisted_pivots' margin of head(t),
    rows 0..t, bit for bit: 0 at one of its eigenvalues, whichever row the
    eigenvector lives on; at r = t it is the pivot margin.  The backward
    pivots of all heads advance together, one vector step per row, head t
    on row t - s at step s.  Each step is a function of the row and the
    pivot below it alone, so once the pivot of head(t) equals, bit for bit,
    the one head(t - 1) had on the same row a step before, the two heads
    read the same values on every row further up.  Off the spectrum the
    passes are tails of a convergent continued fraction and join within a
    few dozen rows (the join depth L: 23-32 at the benchmark's points).
    Once every head has joined the next shorter one, the rows left to each
    head are those the shorter heads have just read, and the loop stops
    with the margins of all N heads: O(N L) flops in L steps.  Near an
    eigenvalue of a sub-pencil the passes may not join, and it takes all N.
    The loop carries the backward pivots, the corners and the join test
    alone, and writes the y of each step into a row of one block; the
    margins of the block follow in one array pass per _STEPS_HELD steps
    (_lower_margins).  Entry t of the second array is twisted_pivots'
    gamma_0 = 1/m(z, t + 1) of head(t), bit for bit: head s reaches row 0
    at step s, and the longer heads that have joined it there read its rows
    above the join.  The third array is twisted_pivots' backward pivots of
    the full head(N-1), bit for bit, so that its twisted pass needs no loop
    of its own (_Point.keep): row N-1-s at step s, and at the join step
    every row left, which each longer head reads as the shorter ones have.
    Every step runs in the sweep's dtype: at a real z, float divides and
    fabs rather than complex divides and hypot.
    """
    N = len(sweep.pivots)
    u, w, own, terms = sweep.u, sweep.weights, sweep.own, sweep.terms
    ux = u - sweep.x
    corners = u.copy()  # corners[s]: gamma_0 of head(s), set at step s; head(0) is row 0 alone
    Y = u.copy()  # Y[t]: backward pivot of head(t) at the current row
    if not Y.all():
        Y = np.where(Y == 0, _stand_in(own), Y)
    back = np.empty(N, dtype=u.dtype)  # D-_r of head(N-1)
    back[-1] = Y[-1]
    best = sweep.margins.copy()
    held = np.zeros((min(_STEPS_HELD, N - 1), N), dtype=u.dtype)  # row i: the y of step first + i, rows 0..N-1-first-i
    first = 1  # the first step held
    for s in range(1, N):
        rows = N - s  # heads s..N-1 have a row s above their last one, rows 0..N-1-s
        y = np.divide(w[:rows], Y[s:], out=held[s - first, :rows])
        new = u[:rows] - y
        corners[s] = new[0]
        if np.count_nonzero(new) < rows:
            new = np.where(new == 0, _stand_in(own[:rows] + np.abs(y)), new)
        # head s is on row 0 and every longer head has joined the next shorter one, bit for bit:
        # the rows j - 1..0 left to head s + j are those heads s + j - 1..s have just read
        if new[-1] == Y[-2] and new[1:].tobytes() == Y[s:-1].tobytes():
            corners[s + 1:] = corners[s]
            back[:rows] = new
            _lower_margins(best, held[:s + 1 - first], first, ux, terms, joined=True)
            return best, corners, back
        back[rows - 1] = new[-1]
        if s + 1 - first == len(held):
            _lower_margins(best, held, first, ux, terms, joined=False)
            first = s + 1
        Y[s:] = new
    _lower_margins(best, held[:N - first], first, ux, terms, joined=False)
    return best, corners, back


def _lower_margins(best: np.ndarray, held: np.ndarray, first: int, ux: np.ndarray, terms: np.ndarray,
                   joined: bool) -> None:
    """Lower head_margins' best by |u - x - y|/(|z c| + |a| + |x| + |y|) of steps first..first+len(held)-1, in place.

    Row i of held is the y of step first + i on rows 0..N-1-first-i, for
    heads first + i..N-1, and the block takes one array pass, with u - x and
    the terms broadcast over its rows.  In the margins, row i is shifted i
    columns right by its strides, so that column h holds the margins of
    head first + h and the rest of the column reads +inf padding: the least
    per head is one reduction.  At the step the heads joined (joined, the
    last), head s + j takes the least of heads s..s + j, whose rows it reads.
    """
    count = len(held)
    if not count:
        return
    rows = len(best) - first  # those of step first, the most any step held reads
    y = held[:, :rows]
    margins = np.empty((count, rows + count))
    margins[:, rows:] = np.inf
    _twisted_margins(ux[:rows] - y, terms[:rows], y, out=margins[:, :rows])
    if joined:
        last = margins[-1, :rows + 1 - count]
        np.minimum.accumulate(last, out=last)
    row, col = margins.strides
    heads = np.ndarray((count, rows), float, margins, 0, (row - col, col))  # [i, h]: margins[i, h - i]
    np.minimum(best[first:], heads.min(axis=0), out=best[first:])


class _Point:
    """One point z of a pencil, or a bare sweep: its pivot sweep, the parts read from it, and its head test.

    The pencil keeps one (_at_point).  twisted and unit are formed on first
    read; m_table hands over its head margins and the backward pivots of
    the full head in one assignment (keep), which margin and twisted then
    read rather than a loop of their own.  Each part is set in one
    assignment, to the same bits whichever thread or order sets it, so a
    point shared across threads reads as a fresh one.  Every array is
    read-only.
    """

    __slots__ = ("key", "sweep", "diagonals", "kept", "_twisted", "_unit")

    def __init__(self, sweep: PivotSweep, key: bytes = b"", diagonals: tuple[np.ndarray, ...] = ()):
        self.key, self.sweep, self.diagonals = key, sweep, diagonals  # the bits of z; the pencil's, for unit
        self.kept = self._twisted = self._unit = None

    def keep(self, margins: np.ndarray, backward: np.ndarray) -> None:
        """Keep head_margins' margins of the sweep and the backward pivots of its full head, m_table's hand-over."""
        _read_only((margins, backward))
        self.kept = margins, backward

    @property
    def twisted(self) -> tuple[np.ndarray, float, np.ndarray]:
        """twisted_pivots of the sweep: from the margins and backward pivots kept, bit for bit, where there are some."""
        twisted = self._twisted
        if twisted is None:
            kept = self.kept
            if kept is None:
                twisted = twisted_pivots(self.sweep)
            else:
                twisted = _joined(self.sweep, kept[1])[0], float(kept[0][-1]), kept[1]
            _read_only(twisted[::2])
            self._twisted = twisted
        return twisted

    @property
    def unit(self) -> tuple[_Prefix, _Prefix]:
        """The prefix products of the steps of U^-1 and of L^-1 (_unit_steps).

        At a real z the left ones are the conjugates of the right ones, as
        L^-1 = conj(U^-1)^T there: conjugation commutes with each rounded
        product and keeps the modulus that frexp reads, so only the sign of a
        zero imaginary part may differ from a loop of their own.  Raises
        PoleCollisionError(s) where b_s - z d_s or conj(b_s) - z d_s
        vanishes, as the component sweeps do.
        """
        unit = self._unit
        if unit is None:
            right, left = _unit_steps(self.diagonals, self.sweep)
            right = _prefix_products(right)
            left = (_prefix_products(left) if np.iscomplexobj(self.sweep.u)
                    else right._replace(mantissas=right.mantissas.conj()))
            _read_only((left.mantissas,))
            self._unit = unit = right, left
        return unit

    def margin(self, t: int) -> float:
        """The twisted margin of head(t), the one place a head's margin is read.

        It is the margin m_table kept, else that of the full pass (twisted)
        for the sweep's last row, else that of twisted_pivots on
        sweep.prefix(t + 1): the same bits each way.
        """
        if self.kept is not None:
            return float(self.kept[0][t])
        if t == len(self.sweep.pivots) - 1:
            return self.twisted[1]
        return twisted_pivots(self.sweep.prefix(t + 1))[1]

    def check(self, heads: tuple[int, ...], tol: float = SPECTRUM_RTOL) -> "_Point":
        """The head test: SpectrumCollisionError(t, z, margin(t), tol) at the first t in heads below tol; the point."""
        for t in heads:
            _check_margins(self.sweep.z, np.array((self.margin(t),)), tol, first=t)
        return self


def _at_point(pencil: Pencil, z: complex) -> _Point:
    """The point z of pencil: the full-order pivot sweep there, and what is read from it (_Point).

    Every full-order reader takes it from here, so the operations at one
    (pencil, z) run each O(n) loop once.  The pencil holds one slot, a
    _Point keyed on the exact bits of z so that a signed zero in either part
    is a point of its own, and replaced whole in one assignment: a pencil
    shared across threads sees one point or another, never a mix.  Outside
    J and H, the slot is no part of the value (Pencil.__getstate__, ==, hash).
    """
    z = _finite_point(z)
    key = struct.pack("2d", z.real, z.imag)
    point = pencil.__dict__.get("_point")
    if point is None or point.key != key:
        sweep = pivot_sweep(pencil, pencil.n + 1, z)
        _read_only(sweep[1:])  # every field but z
        point = _Point(sweep, key, pencil._diagonals)
        object.__setattr__(pencil, "_point", point)
    return point


def _read_only(arrays: tuple[np.ndarray, ...]) -> None:
    """Make each array read-only in place (setflags costs half of assigning flags.writeable)."""
    for x in arrays:
        x.setflags(write=False)


def _check_margins(z: complex, margins: np.ndarray, tol: float, first: int = 0) -> None:
    """SpectrumCollisionError(first + t, z, margins[t], tol) at the first t with margins[t] < tol."""
    low = (margins < tol).nonzero()[0]
    if low.size:
        raise SpectrumCollisionError(first + int(low[0]), z, float(margins[low[0]]), tol)


def eigenvalue_margin(pencil: Pencil, z: complex) -> float:
    """How close z is to an eigenvalue of the pencil, relative to the terms (0 at one).

    The twisted margin of the full order (twisted_pivots): unlike the last
    pivot alone it is small at every eigenvalue, whichever index its
    eigenvector lives on.  eigenvalue_margin(pencil.head(m), z) is that of
    the leading sub-pencil over rows 0..m.
    """
    return _at_point(pencil, z).margin(pencil.n)


def liouville_ostrogradsky_residual(pencil: Pencil, m: int, z: complex) -> float:
    """Relative residual of P_{m+1} Q_m - P_m Q_{m+1} = -prod_{j<m} w_j(z)."""
    if not 0 <= m <= pencil.n:
        raise ValueError(f"index {m} out of range 0..{pencil.n}")
    P, Q, w = _pq_sweep(pencil, m + 1, _finite_point(z))
    lhs = P[m + 1] * Q[m] - P[m] * Q[m + 1]
    rhs = -1.0 + 0j
    for wj in w:
        rhs *= wj
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _component_sweep(pencil: Pencil, z: complex,
                     with_derivative: bool) -> tuple[np.ndarray, np.ndarray | None]:
    z = _finite_point(z)
    c, d, a, b = pencil._diagonals
    zd = z * d
    den = b - zd
    _check_poles(np.abs(den), b, zd)
    # step m is p_{m+1} = (u_m p_m + f_m p_{m-1})/den_m with u_m = z c_m - a_m, den_m = b_m - z d_m
    # and f_m = z d_{m-1} - conj(b_{m-1}), f_0 = 0; zip stops after the n steps of den
    u, f, den = (z * c - a).tolist(), [0j] + (zd - b.conj()).tolist(), den.tolist()
    p = [1 + 0j]
    p0, p1 = 0j, 1 + 0j  # p_{m-1}, p_m; p_{-1} = 0
    for um, fm, dn in zip(u, f, den):
        p0, p1 = p1, (um * p1 + fm * p0) / dn
        p.append(p1)
    _check_finite(components=p)
    p = np.array(p, dtype=complex)
    if not with_derivative:
        return p, None
    # step m is dp_{m+1} = (c_m p_m + u_m dp_m + (d_{m-1} p_{m-1} + f_m dp_{m-1}) + d_m p_{m+1})/den_m, d_{-1} = 0;
    # each forcing term has one real factor, so numpy's product rounds as Python's does
    with np.errstate(over="ignore", invalid="ignore"):
        here, before, after = (c[:-1] * p[:-1]).tolist(), [0j] + (d[:-1] * p[:-2]).tolist(), (d * p[1:]).tolist()
    dp = [0j]
    dp0, dp1 = 0j, 0j  # dp_{m-1}, dp_m
    for hm, bm, am, um, fm, dn in zip(here, before, after, u, f, den):
        dp0, dp1 = dp1, (hm + um * dp1 + (bm + fm * dp0) + am) / dn
        dp.append(dp1)
    _check_finite(derivatives=dp)
    return p, np.array(dp, dtype=complex)


def right_components(pencil: Pencil, z: complex) -> np.ndarray:
    """Right component sequence p^R_0..p^R_n at z, normalized to p^R_0 = 1.

    Equals P_m(z) / prod_{j<m} (b_j - z d_j) for every m, so the residual of
    (z*J - H) p^R is supported on the last row only; in exact arithmetic it
    vanishes at an eigenvalue of the pencil.  In floating point the forward
    recurrence amplifies the error of a computed eigenvalue geometrically
    (up to 1e-7 off the eigenvector at n = 20, wrong from n ~ 80 on); the
    eigenvector itself comes from eigenvector_components.  One array pass
    tests every index for a pole, raising PoleCollisionError at the first,
    and forms the coefficients of each step; the loop then steps
    p_{m+1} = (u_m p_m + f_m p_{m-1})/(b_m - z d_m), f_m = z d_{m-1} -
    conj(b_{m-1}).  Raises ValueError where an entry leaves the double
    range, as pq_sweep does.
    """
    return _component_sweep(pencil, z, with_derivative=False)[0]


def eigenvector_components(pencil: Pencil, z: complex) -> np.ndarray:
    """Right eigenvector v_0..v_n of the pencil at an eigenvalue z, normalized to v_0 = 1; O(n).

    Twisted factorization (Parlett & Dhillon, LAA 267, 1997): at the row
    r = argmin |gamma_r| (twisted_pivots) set v_r = 1, then the rows above
    follow from the forward pivots, v_i = (b_i - z d_i) v_{i+1}/D+_i, and
    the rows below from the backward ones, v_i = -(z d_{i-1} - conj(b_{i-1}))
    v_{i-1}/D-_i.  The residual (z*J - H) v is gamma_r v_r at row r alone,
    the smallest any twist gives, so the vector is as accurate as z allows on
    whichever row it lives.  At a point that is not an eigenvalue it is the
    solution with that one-row residual, not right_components.  Raises
    VanishingComponentError(0) where v_0 is zero in floating point or so
    small against the other entries that normalizing overflows them.
    """
    return _twisted_eigenvector(_at_point(pencil, z))[0]


def _twisted_eigenvector(point: _Point) -> tuple[np.ndarray, float]:
    """eigenvector_components at the point from its full-order sweep and twisted pass, and the margin of that pass."""
    sweep, (gamma, margin, backward) = point.sweep, point.twisted
    r = int(np.argmin(np.abs(gamma)))
    down = -sweep.lower[r:] / backward[r + 1:]  # v_i/v_{i-1} below the twist
    v = np.concatenate((_rows_above(sweep.upper[:r], sweep.pivots[:r]), [1.0 + 0j], np.cumprod(down)))
    if v[0] == 0:
        raise VanishingComponentError(0)
    with np.errstate(over="ignore", invalid="ignore"):
        v /= v[0]
    # a v_0 that is subnormal, or far below the largest entry, overflows the others
    if not np.isfinite(v).all():
        raise VanishingComponentError(0)
    v[0] = 1.0
    return v, margin


def _rows_above(upper: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """v_0/v_r..v_{r-1}/v_r, r = len(pivots): v_i = (b_i - z d_i) v_{i+1}/D_i, from upper_i = z d_i - b_i and D_i."""
    return np.cumprod((upper / -pivots)[::-1])[::-1]


def left_components(pencil: Pencil, z: complex) -> np.ndarray:
    """Left component sequence p^L: the recurrence with b conjugated.

    That recurrence at z is the conjugate of the right one at conj(z), so
    p^L(z) = conj(p^R(conj(z))); for real z it is the entrywise conjugate of
    right_components, and at an eigenvalue the row vector annihilates
    (z*J - H) from the left.
    """
    pl = np.conj(right_components(pencil, complex(z).conjugate()))
    pl[0] = 1.0  # the normalization, without the -0.0 imaginary part conj gives it
    return pl


def right_components_with_derivative(pencil: Pencil, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Right components together with their z-derivatives.

    The derivative sequence is propagated through the differentiated
    recurrence, avoiding finite-difference step tuning.  The values come
    from right_components' loop and are tested first, so an entry that
    leaves the double range is named among the components; the forcing
    terms c_m p_m, d_{m-1} p_{m-1} and d_m p_{m+1} are then formed in one
    array pass, and a second loop steps p'_{m+1} = (c_m p_m + u_m p'_m +
    (d_{m-1} p_{m-1} + f_m p'_{m-1}) + d_m p_{m+1})/(b_m - z d_m) alone.
    """
    return _component_sweep(pencil, z, with_derivative=True)
