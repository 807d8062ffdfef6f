"""Three-term recurrence machinery for the pencil z*J - H.

P_m is the order-m leading principal minor of (z*J - H); Q_m satisfies the
same recurrence started one index later, so that Q_{n+1} is the minor with
the first row and column removed and Q_m/P_m is the depth-m convergent of
the associated continued fraction:

    X_{m+1} = (z c_m - a_m) X_m - (z d_{m-1} - b_{m-1})(z d_{m-1} - conj(b_{m-1})) X_{m-1}

with P_{-1} = 0, P_0 = 1 and Q_0 = 0, Q_1 = 1.  The undefined m=0 coefficient
multiplying X_{-1} is taken to be 1, which forces Q_1 = 1 and makes Q_1/P_1
the first convergent 1/(z c_0 - a_0).

Sign convention, fixed once against dense inversion and regression-tested:
with these seeds the Wronskian-type identity reads

    P_{m+1} Q_m - P_m Q_{m+1} = - prod_{j<m} (z d_j - b_j)(z d_j - conj(b_j)).

Component sequences p^R / p^L are the rational eigenvector solutions of the
same recurrence, normalized to 1 at index 0; at a spectral point they are
right/left eigenvectors of the pencil in exact arithmetic, while in floating
point the forward recurrence loses them as n grows.  eigenvector_components
takes the eigenvector from a twisted factorization instead, and whatever
the library evaluates at an eigenvalue reads it; the sweep with
z-derivatives has no caller left and stays for the benchmark.  pq_sweep and
the component sweeps step on plain Python complex numbers, carrying the last
two values in locals: numpy scalar arithmetic costs about twice as much per step.

The minors and components grow or decay geometrically and leave the double
range by n ~ 300.  pivot_sweep carries their ratios instead, in one O(n)
pass that never overflows: the LDL^T pivots D_t = P_{t+1}/P_t of z*J - H,
the m-values Q_t/P_t, and a relative margin per pivot.  Every direct
operation of mfunctions reads this pass.  The component ratios follow from
the pivots, p^R_{t+1}/p^R_t = D_t/(b_t - z d_t) and p^L the same with
conj(b_t); unit_factors turns them into the inverses of the unit factors of
z*J - H = L D U.  Joined with the pivots taken from the bottom up, by a
pass that reads the forward weights and carries only the pivots, they give
the twisted pivots gamma_r = 1/(z*J - H)^-1[r, r] (twisted_pivots), and
their margin min_r |gamma_r|/(its terms) is the spectrum guard: head_margins
for the leading sub-pencils, check_spectrum to raise on it and
eigenvalue_margin for the full pencil.  The margin has one formula in one
arithmetic: twisted_pivots runs the bottom-up pass of one head on numpy
scalars, head_margins those of all heads together as one vector step per
row, and both give the same bits.  head_margins stops once the passes have
joined, bit for bit, which off the spectrum they do within a few dozen
rows: O(n) work per row reached, not O(n^2) per point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleCollisionError, SpectrumCollisionError, VanishingComponentError
from .pencil import Pencil
from .tolerances import POLE_RTOL, SPECTRUM_RTOL

_TINY, _HUGE = 2.0 ** -256, 2.0 ** 256  # pivot_sweep rescales P and Q outside this range
_EPS = 2.0 ** -52  # pivot_sweep stands in this much of its terms for an exactly zero minor
_LIFT = 2.0 ** 64  # _unit_upper's row factor 2^64/M_i, M_i in [2^-64, 2^63), lies in (2, 2^128]


def _check_index(pencil: Pencil, m: int) -> None:
    if not 0 <= m <= pencil.n + 1:
        raise ValueError(f"recurrence index {m} out of range 0..{pencil.n + 1}")


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


def _weight(d: float, b: complex, z: complex) -> complex:
    """(z d - b)(z d - conj(b)); real coefficients as a polynomial in z."""
    return (z * d - b) * (z * d - b.conjugate())


def pq_sweep(pencil: Pencil, upto: int, z: complex) -> tuple[list[complex], list[complex]]:
    """Values P_0..P_upto and Q_0..Q_upto at z in one pass; ValueError where they leave the double range."""
    _check_index(pencil, upto)
    z = complex(z)
    c, d = pencil.J.c, pencil.J.d
    a, b = pencil.H.a, pencil.H.b
    P = [1.0 + 0j]
    Q = [0.0 + 0j]
    if upto >= 1:
        p0, p1, q0, q1 = P[0], z * c[0] - a[0], Q[0], 1.0 + 0j
        P.append(p1)
        Q.append(q1)
    for cm, am, dl, bl in zip(c[1:upto], a[1:upto], d, b):
        u = z * cm - am
        zd = z * dl
        w = (zd - bl) * (zd - bl.conjugate())  # w_{m-1}: _weight, inlined
        p0, p1 = p1, u * p1 - w * p0
        q0, q1 = q1, u * q1 - w * q0
        P.append(p1)
        Q.append(q1)
    _check_finite(P=P, Q=Q)
    return P, Q


def eval_p(pencil: Pencil, m: int, z: complex) -> complex:
    """P_m(z); for m = n+1 this is det(z*J - H)."""
    return pq_sweep(pencil, m, z)[0][m]


def eval_q(pencil: Pencil, m: int, z: complex) -> complex:
    """Q_m(z); for m = n+1 this is the minor of z*J - H without row/column 0."""
    return pq_sweep(pencil, m, z)[1][m]


@dataclass(frozen=True)
class PivotSweep:
    """LDL^T pivots of z*J - H up to some order, their margins and the m-values.

    pivots[t] = P_{t+1}(z)/P_t(z) is the t-th pivot D_t of z*J - H = L D U
    (D_t = u_t - w_{t-1}/D_{t-1}, with u_t = z c_t - a_t and
    w_t = (z d_t - b_t)(z d_t - conj(b_t))).  margins[t] =
    |D_t| / (|z c_t| + |a_t| + |w_{t-1}/D_{t-1}|) says how far the terms of
    the pivot are from cancelling; it bounds how much the unit factors of
    z*J - H outgrow it.  The terms of u_t count apart, or the order-0 margin
    would read 1 at every inexact root of z c_0 - a_0.  values[t] =
    Q_{t+1}/P_{t+1} = m(z, t+1), and weights holds the w_0, w_1, ... that
    entered the pivots.  Whether z is in the spectrum of a leading
    sub-pencil is head_margins' decision, not the pivot margin's: the pivot
    misses an eigenvalue whose eigenvector nearly vanishes at the last row.
    """

    z: complex
    pivots: tuple[complex, ...]
    margins: tuple[float, ...]
    values: tuple[complex, ...]
    weights: tuple[complex, ...]

    def prefix(self, rows: int) -> "PivotSweep":
        """The sweep of the leading sub-pencil over rows 0..rows-1."""
        return PivotSweep(self.z, self.pivots[:rows], self.margins[:rows],
                          self.values[:rows], self.weights[:max(rows - 1, 0)])


def pivot_sweep(pencil: Pencil, upto: int, z: complex) -> PivotSweep:
    """Pivots, margins and m-values of P_1..P_upto at z in one O(upto) pass.

    Runs the P/Q recurrence of pq_sweep on values rescaled by powers of two
    whenever |P| leaves [2^-256, 2^256], so nothing overflows and every
    ratio is the one pq_sweep would give where its values are representable.
    Where P_{t+1} is exactly zero (margin 0) the pivots and values use a
    stand-in of 2^-52 times its terms, as LAPACK's pivmin does, so they stay
    finite and D_t D_{t+1} = P_{t+2}/P_t keeps its value; the recurrence and
    the margins use the true zero.
    """
    _check_index(pencil, upto)
    z = complex(z)
    c, d, a, b = pencil.J.c, pencil.J.d, pencil.H.a, pencil.H.b
    pivots, margins, values, weights = [], [], [], []
    # P_{-1} = 0, P_0 = 1, and Q_{-1} = -1, Q_0 = 0 with w_{-1} = 1, which gives Q_1 = 1;
    # den is P_t, or its stand-in where P_t is exactly zero
    p0, p1, q0, q1, w, den = 0j, 1 + 0j, -1 + 0j, 0j, 1 + 0j, 1 + 0j
    for t in range(upto):
        zc = z * c[t]
        u = zc - a[t]
        if t:
            w = _weight(d[t - 1], b[t - 1], z)
            weights.append(w)
        up, wp = u * p1, w * p0
        p2, q2 = up - wp, u * q1 - w * q0
        scale = (abs(zc) + abs(a[t])) * abs(p1) + abs(wp)
        margins.append(abs(p2) / scale if scale else 0.0)
        stand = p2 or _EPS * (scale or abs(den))
        pivots.append(stand / den)
        values.append(q2 / stand)
        size = abs(stand)
        if not _TINY < size < _HUGE:
            s = math.ldexp(1.0, -math.frexp(size)[1])
            p2, p1, q2, q1, stand = p2 * s, p1 * s, q2 * s, q1 * s, stand * s
        p0, p1, q0, q1, den = p1, p2, q1, q2, stand
    return PivotSweep(z, tuple(pivots), tuple(margins), tuple(values), tuple(weights))


def unit_factors(pencil: Pencil, sweep: PivotSweep) -> tuple[np.ndarray, np.ndarray]:
    """F = U^-1 and G = L^-1 for the unit factors of z*J - H = L D U, D = diag(pivots).

    F[i, t] = p^R_i/p^R_t = prod_{s=i}^{t-1} (b_s - z d_s)/D_s for i <= t (unit
    upper triangular) and G[t, j] = p^L_j/p^L_t, the same with conj(b_s)
    (unit lower triangular); sweep must hold the pivots of the full order.
    Raises PoleCollisionError(s) where b_s - z d_s or conj(b_s) - z d_s
    vanishes, as the component sweeps do.
    """
    right, left = _unit_steps(pencil, sweep)
    return _unit_upper(right), _unit_upper(left).T


def _unit_steps(pencil: Pencil, sweep: PivotSweep) -> tuple[list[complex], list[complex]]:
    """The steps (b_s - z d_s)/D_s of U^-1 and (conj(b_s) - z d_s)/D_s of L^-1 (unit_factors).

    One array pass: the pole test of the component sweeps on every s at
    once, raising PoleCollisionError(s) at the first s that fails it, then
    the two divisions.
    """
    zd = sweep.z * np.asarray(pencil.J.d)
    b = np.asarray(pencil.H.b, dtype=complex)
    right, left = b - zd, b.conj() - zd
    value, scale = np.minimum(np.abs(right), np.abs(left)), 1.0 + np.abs(b) + np.abs(zd)
    poles = value < POLE_RTOL * scale
    if poles.any():
        s = int(np.argmax(poles))
        raise PoleCollisionError(s, float(value[s]), float(scale[s]), POLE_RTOL)
    D = np.asarray(sweep.pivots[:len(b)])
    return (right / D).tolist(), (left / D).tolist()


def _unit_upper(steps: list[complex], scale: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """S[i, t] = steps[i] * ... * steps[t-1] * scale[t] for i <= t, zero below the diagonal.

    No scale means ones.  With out, S goes into the diagonal and the upper
    triangle of out, which is returned, and the rest of out is left as it
    is: out = R.T puts S^T into the lower triangle of R.  The prefix
    products C_t are carried as
    mantissa * 2^exponent, and the exponent changes only where the mantissa
    is rescaled, so the indices fall into runs of one exponent (a dozen at
    n = 640).  Each run of rows i is one outer product of 2^64/M_i with the
    column mantissas M_t scale[t] shifted by 2^(E_t - E_run - 64): S[i, t] =
    C_t/C_i with no n^2 exponent matrix, and only the diagonal block of the
    run is written through a mask of its upper triangle.  The mantissas lie in
    [2^-64, 2^63), so the row factor lies in (2, 2^128] and the column
    factor never outgrows its entry: every entry below the overflow
    threshold comes back finite, and every entry above 2^-894 (~1e-269)
    with full relative accuracy.
    """
    mant, expo, runs = [1 + 0j], [0], [0]
    m, e = 1 + 0j, 0
    for t, q in enumerate(steps, start=1):
        m *= q
        k = math.frexp(abs(m))[1]
        if not -64 < k < 64:
            m, e = m * math.ldexp(1.0, -k), e + k
            runs.append(t)
        mant.append(m)
        expo.append(e)
    M = np.asarray(mant)
    # ldexp on the (real, imaginary) rows of the column mantissas shifts them exactly
    cols = (M if scale is None else M * scale).view(float).reshape(-1, 2)
    shifts = np.asarray(expo)[:, None] - 64
    size = len(mant)
    bounds = list(zip(runs, runs[1:] + [size]))
    index = np.arange(max(hi - lo for lo, hi in bounds))
    above = index[:, None] < index  # the part of a diagonal block to write
    S = np.zeros((size, size), dtype=complex) if out is None else out
    for lo, hi in bounds:
        shifted = np.ldexp(cols[lo:], shifts[lo:] - expo[lo]).view(complex)[:, 0]
        lift, width = _LIFT / M[lo:hi], hi - lo
        np.multiply.outer(lift, shifted[width:], out=S[lo:hi, hi:])
        np.copyto(S[lo:hi, lo:hi], np.multiply.outer(lift, shifted[:width]), where=above[:width, :width])
    np.fill_diagonal(S, 1.0 if scale is None else scale)
    return S


def twisted_pivots(pencil: Pencil, sweep: PivotSweep) -> tuple[np.ndarray, float, np.ndarray]:
    """gamma_r = 1/(z*J - H)^-1[r, r] over rows 0..N-1, N = len(sweep.pivots), their margin and D-_r.

    gamma_r = u_r - x_r - y_r joins the forward term x_r = w_{r-1}/D_{r-1}
    (x_0 = 0) with the backward term y_r = w_r/D-_{r+1} (y_{N-1} = 0) of the
    pivots taken from row N-1 up, as in a twisted factorization: D-_{N-1} =
    u_{N-1} and D-_r = u_r - y_r, each exactly zero one replaced by
    _stand_in.  The margin is the pivot margin on row N-1, which sees a true
    zero minor, and min_r |gamma_r| / (|z c_r| + |a_r| + |x_r| + |y_r|) above
    it (0 on a row whose terms all vanish): 0 at an eigenvalue of the
    order-(N-1) leading sub-pencil, whichever row its eigenvector lives on.
    It is head_margins' margin of head(N-1), bit for bit: the pass is its
    vector step on numpy complex128 scalars, which round as its array
    operations do (Python's complex division and abs() do not).  The
    backward pivots D-_r are returned as well.
    """
    u, w, ux, own, sx = _row_terms(pencil, sweep)
    Y = u[-1] or np.complex128(_stand_in(own[-1]))
    backward = [Y]
    for ur, wr in zip(list(u[-2::-1]), list(w[::-1])):
        y = wr / Y
        Y = ur - y
        if not Y:  # on row N - 1 - len(backward)
            Y = np.complex128(_stand_in(own[-1 - len(backward)] + np.abs(y)))
        backward.append(Y)
    backward = np.array(backward[::-1])
    y = w / backward[1:]
    gamma = ux  # u - x - y, with y_{N-1} = 0
    gamma[:-1] -= y
    above = np.abs(gamma[:-1]) / (sx[:-1] + np.abs(y))
    return gamma, float(above.min(initial=sweep.margins[-1])), backward


def _row_terms(pencil: Pencil, sweep: PivotSweep) -> tuple[np.ndarray, ...]:
    """u = z c - a, w, u - x, |z c| + |a| and |z c| + |a| + |x| on rows 0..N-1, x_r = w_{r-1}/D_{r-1}, x_0 = 0.

    The last is 1 on a row above the bottom whose terms are all zero (w_r = 0 too), so its margin reads 0, not 0/0.
    """
    N = len(sweep.pivots)
    zc, av = sweep.z * np.asarray(pencil.J.c[:N]), np.asarray(pencil.H.a[:N])
    u = zc - av
    w = np.asarray(sweep.weights, dtype=complex)
    x = np.concatenate(([0j], w / np.asarray(sweep.pivots[:-1])))
    own = np.abs(zc) + np.abs(av)
    sx = own + np.abs(x)
    if not sx.all():
        sx[:-1][(sx[:-1] == 0) & (w == 0)] = 1.0
    return u, w, u - x, own, sx


def _stand_in(terms):
    """What stands in for an exactly zero backward pivot: 2^-52 times its terms, or 2^-52 where those are zero."""
    return _EPS * np.where(terms > 0, terms, 1.0)


def head_margins(pencil: Pencil, sweep: PivotSweep, first: int = 0) -> np.ndarray:
    """Twisted margins at sweep.z of the leading sub-pencils head(t), t = first..N-1.

    N = len(sweep.pivots).  Entry t - first is twisted_pivots' margin of
    head(t), rows 0..t, bit for bit: 0 at one of its eigenvalues, whichever
    row the eigenvector lives on; at r = t it is the pivot margin.  A single
    head costs one scalar backward pass (twisted_pivots).  For several,
    their backward pivots advance together, one vector step per row, head
    t on row t - s at step s.  Each step is a function of the row and the
    pivot below it alone, so once the pivot of head(t) equals, bit for bit,
    the one head(t - 1) had on the same row a step before, the two heads
    read the same values on every row further up.  Off the spectrum the
    passes are tails of a convergent continued fraction and join within a
    few dozen rows (the join depth L: 23-32 at the benchmark's points).
    Once every head has joined the next shorter one and the shortest has
    reached row 0, the rows left to each head are those the shorter heads
    have just read, and the loop stops with the margins of all N steps:
    O((N - first) max(first, L)) flops in max(first, L) steps.  Near an
    eigenvalue of a sub-pencil the passes may not join, and it takes all N.
    """
    N = len(sweep.pivots)
    if not 0 <= first < N:
        raise ValueError(f"first order {first} out of range 0..{N - 1}")
    if first == N - 1:
        return np.array([twisted_pivots(pencil, sweep)[1]])
    u, w, ux, own, sx = _row_terms(pencil, sweep)
    best = np.asarray(sweep.margins[first:])
    Y = u[first:].copy()  # Y[i]: backward pivot of head(first + i) at the current row
    if not Y.all():
        Y = np.where(Y == 0, _stand_in(own[first:]), Y)
    for s in range(1, N):
        h = max(s - first, 0)  # the heads with a row s above their last one
        rows = slice(first + h - s, N - s)
        y = w[rows] / Y[h:]
        ay = np.abs(y)
        step = np.abs(ux[rows] - y) / (sx[rows] + ay)
        new = u[rows] - y
        if not new.all():
            new = np.where(new == 0, _stand_in(own[rows] + ay), new)
        # head h is on row 0 and every longer head has joined the next shorter one:
        # the rows j - 1..0 left to head h + j are those heads h + j - 1..h have just read
        if s >= first and new[-1] == Y[-2] and np.array_equal(new[1:], Y[h:-1]):
            best[h:] = np.minimum(best[h:], np.minimum.accumulate(step))
            return best
        best[h:] = np.minimum(best[h:], step)
        Y[h:] = new
    return best


def check_spectrum(pencil: Pencil, sweep: PivotSweep, first: int = 0) -> PivotSweep:
    """Raise SpectrumCollisionError(t) at the first t >= first whose head(t) margin is below SPECTRUM_RTOL."""
    _check_margins(head_margins(pencil, sweep, first), first, sweep.z)
    return sweep


def _check_margins(margins: np.ndarray, first: int, z: complex) -> None:
    """check_spectrum's test on margins head_margins(·, first) already gave."""
    hit = np.flatnonzero(margins < SPECTRUM_RTOL)
    if hit.size:
        raise SpectrumCollisionError(first + int(hit[0]), z, float(margins[hit[0]]), SPECTRUM_RTOL)


def eigenvalue_margin(pencil: Pencil, z: complex) -> float:
    """How close z is to an eigenvalue of the pencil, relative to the terms (0 at one).

    The twisted margin of the full order (twisted_pivots): unlike the last
    pivot alone it is small at every eigenvalue, whichever index its
    eigenvector lives on.  eigenvalue_margin(pencil.head(m), z) is that of
    the leading sub-pencil over rows 0..m.
    """
    return twisted_pivots(pencil, pivot_sweep(pencil, pencil.n + 1, z))[1]


def liouville_ostrogradsky_residual(pencil: Pencil, m: int, z: complex) -> float:
    """Relative residual of P_{m+1} Q_m - P_m Q_{m+1} = -prod_{j<m} w_j(z)."""
    if not 0 <= m <= pencil.n:
        raise ValueError(f"index {m} out of range 0..{pencil.n}")
    z = complex(z)
    P, Q = pq_sweep(pencil, m + 1, z)
    lhs = P[m + 1] * Q[m] - P[m] * Q[m + 1]
    rhs = -1.0 + 0j
    for j in range(m):
        rhs *= _weight(pencil.J.d[j], pencil.H.b[j], z)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _component_sweep(pencil: Pencil, z: complex,
                     with_derivative: bool) -> tuple[np.ndarray, np.ndarray | None]:
    z = complex(z)
    p, dp = [1 + 0j], [0j]
    # p_{m-1}, p_m and their derivatives; p_{-1} = 0 makes step 0 read no sub-diagonal
    p0, p1, dp0, dp1 = 0j, 1 + 0j, 0j, 0j
    dl, f = 0.0, 0j  # d_{m-1} and the sub-diagonal factor z d_{m-1} - conj(b_{m-1})
    for m, (cm, dm, am, bm) in enumerate(zip(pencil.J.c, pencil.J.d, pencil.H.a, pencil.H.b)):
        zd = z * dm
        den = bm - zd
        scale = 1.0 + abs(bm) + abs(zd)
        if abs(den) < POLE_RTOL * scale:
            raise PoleCollisionError(m, abs(den), scale, POLE_RTOL)
        u = z * cm - am
        p2 = (u * p1 + f * p0) / den
        p.append(p2)
        if with_derivative:
            dp2 = (cm * p1 + u * dp1 + (dl * p0 + f * dp0) + dm * p2) / den
            dp.append(dp2)
            dp0, dp1 = dp1, dp2
        p0, p1, dl, f = p1, p2, dm, zd - bm.conjugate()
    _check_finite(components=p, derivatives=dp)
    return np.array(p), np.array(dp) if with_derivative else None


def right_components(pencil: Pencil, z: complex) -> np.ndarray:
    """Right component sequence p^R_0..p^R_n at z, normalized to p^R_0 = 1.

    Equals P_m(z) / prod_{j<m} (b_j - z d_j) for every m, so the residual of
    (z*J - H) p^R is supported on the last row only; in exact arithmetic it
    vanishes at an eigenvalue of the pencil.  In floating point the forward
    recurrence amplifies the error of a computed eigenvalue geometrically
    (up to 1e-7 off the eigenvector at n = 20, wrong from n ~ 80 on); the
    eigenvector itself comes from eigenvector_components.  Raises ValueError
    where an entry leaves the double range, as pq_sweep does.
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
    return _twisted_eigenvector(pencil, pivot_sweep(pencil, pencil.n + 1, z))[0]


def _twisted_eigenvector(pencil: Pencil, sweep: PivotSweep) -> tuple[np.ndarray, float]:
    """eigenvector_components at sweep.z from its full-order sweep, and the twisted margin of that one pass."""
    gamma, margin, backward = twisted_pivots(pencil, sweep)
    z = sweep.z
    r = int(np.argmin(np.abs(gamma)))
    d, b = np.asarray(pencil.J.d), np.asarray(pencil.H.b, dtype=complex)
    # v_i/v_{i-1} below the twist
    down = -(z * d[r:] - b[r:].conj()) / backward[r + 1:]
    v = np.concatenate((_rows_above(z, d, b, sweep.pivots[:r]), [1.0 + 0j], np.cumprod(down)))
    if v[0] == 0:
        raise VanishingComponentError(0)
    with np.errstate(over="ignore", invalid="ignore"):
        v /= v[0]
    # a v_0 that is subnormal, or far below the largest entry, overflows the others
    if not np.isfinite(v).all():
        raise VanishingComponentError(0)
    v[0] = 1.0
    return v, margin


def _rows_above(z: complex, d, b, pivots) -> np.ndarray:
    """v_0/v_r..v_{r-1}/v_r, r = len(pivots): v_i = (b_i - z d_i) v_{i+1}/D_i, forward pivots D_0..D_{r-1}."""
    r = len(pivots)
    steps = (np.asarray(b[:r], dtype=complex) - z * np.asarray(d[:r])) / np.asarray(pivots)
    return np.cumprod(steps[::-1])[::-1]


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
    recurrence alongside the values, avoiding finite-difference step tuning.
    """
    return _component_sweep(pencil, z, with_derivative=True)
