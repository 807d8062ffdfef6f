"""Shared builders and dense oracles for the test suite."""

from __future__ import annotations

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import scipy.linalg

import tripencil as tp
from tripencil import recurrence
from tripencil.tolerances import (COMPONENT_RTOL, DELTA_RTOL, DIFFERENCE_RTOL, HERMITIAN_RTOL, IMAG_RTOL,
                                  POLE_RTOL, RATIO_RTOL)


def build_pencil(rng, n, pd_J=True, min_im=0.2, real_b_at=(), pure_imag=False):
    """Random pencil with nonzero off-diagonals and non-real pole ratios.

    real_b_at forces a real b_j at the named indices; pure_imag zeroes every
    Re(b_j).
    """
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    if pd_J:
        pads = np.concatenate([[0.0], np.abs(d)]) + np.concatenate([np.abs(d), [0.0]])
        c = pads + rng.uniform(0.3, 1.3, n + 1)
    else:
        c = rng.uniform(0.5, 2.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
    a = rng.uniform(-1.0, 1.0, n + 1)
    re = np.zeros(n) if pure_imag else rng.uniform(-1.0, 1.0, n)
    im = (min_im + rng.uniform(0.0, 0.8, n)) * d * rng.choice([-1.0, 1.0], n)
    b = re + 1j * im
    for j in real_b_at:
        b[j] = complex(rng.uniform(0.3, 1.0) * np.sign(d[j]), 0.0)
    return tp.Pencil(tp.SymmetricTridiagonal(tuple(c), tuple(d)),
                     tp.HermitianTridiagonal(tuple(a), tuple(b)))


def seeded_pencil(seed, n, **kwargs):
    return build_pencil(np.random.default_rng(seed), n, **kwargs)


def dense_eigenpairs(pencil):
    """Generalized eigenpairs of (H, J) by the dense LAPACK solver, sorted by Re."""
    w, v = scipy.linalg.eig(pencil.H.dense(), pencil.J.dense().astype(complex))
    order = np.argsort(w.real)
    return w[order], v[:, order]


def dense_matrix(pencil, z):
    """z*J - H assembled with numpy from the coefficients alone."""
    c, d = np.asarray(pencil.J.c), np.asarray(pencil.J.d)
    a, b = np.asarray(pencil.H.a), np.asarray(pencil.H.b, dtype=complex)
    return np.diag(z * c - a).astype(complex) + np.diag(z * d - b, 1) + np.diag(z * d - b.conj(), -1)


def dense_spectrum(pencil):
    """Sorted eigenvalues of a PD-J pencil: Cholesky J = L L^T, then eigvalsh of L^-1 H L^-H (numpy only)."""
    c, d = np.asarray(pencil.J.c), np.asarray(pencil.J.d)
    L = np.linalg.cholesky(np.diag(c) + np.diag(d, 1) + np.diag(d, -1))
    H = -dense_matrix(pencil, 0.0)
    return np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, H).conj().T))


def toeplitz_pencil(n, c, d, a, b):
    """Constant coefficients on every diagonal, order n."""
    return tp.Pencil(tp.SymmetricTridiagonal((c,) * (n + 1), (d,) * n),
                     tp.HermitianTridiagonal((a,) * (n + 1), (b,) * n))


def delocalised_pencil(seed, n, eps=1e-3):
    """c = 2.5, d = 1, a = 0.3, b = 0.4+0.3i, each entry times 1 + eps u, u uniform on [-1, 1].

    Near-constant coefficients: the eigenvectors spread over all rows.
    """
    rng = np.random.default_rng(seed)

    def jitter(base, size):
        return tuple(base * (1.0 + eps * rng.uniform(-1.0, 1.0, size)))

    return tp.Pencil(tp.SymmetricTridiagonal(jitter(2.5, n + 1), jitter(1.0, n)),
                     tp.HermitianTridiagonal(jitter(0.3, n + 1), jitter(0.4 + 0.3j, n)))


def extreme_pair(pencil):
    """Largest and smallest real eigenvalue of a PD-J pencil."""
    w, _ = dense_eigenpairs(pencil)
    return float(w[-1].real), float(w[0].real)


def far_points(pencil):
    """Real points 1.5 outside each end of the spectrum and a complex one mid-band."""
    eigs = dense_spectrum(pencil)
    return eigs[-1] + 1.5, eigs[0] - 1.5, complex(0.5 * (eigs[0] + eigs[-1]), 0.5)


def two_pole_pencil(z):
    """Order 5 with the real pole ratios b_1/d_1 = b_3/d_3 = z, so w_1(z) = w_3(z) = 0 exactly."""
    d = (0.8, 0.7, 0.6, 0.9, 0.5)
    return tp.Pencil(tp.SymmetricTridiagonal((1.2, 0.9, 1.1, 1.3, 1.0, 0.8), d),
                     tp.HermitianTridiagonal((0.1, -0.2, 0.3, -0.4, 0.2, 0.6),
                                             (0.2 + 0.6j, z * d[1], 0.3 - 0.5j, z * d[3], 0.1 + 0.4j)))


def hand_pencil():
    """c=[1,1], d=[1], a=[0,0], b=[i]: P_2 = z^2 - (z^2+1) = -1."""
    return tp.Pencil(tp.SymmetricTridiagonal((1.0, 1.0), (1.0,)),
                     tp.HermitianTridiagonal((0.0, 0.0), (1j,)))


def corpus_shape(seed):
    """(n, k) of acceptance-corpus seed: orders 2..10, split 1 + 7 seed mod (n - 1)."""
    n = 2 + seed % 9
    return n, 1 + (seed * 7) % (n - 1)


def rel_err(value, truth):
    return abs(value - truth) / (1.0 + abs(truth))


def dense_eigenvectors(pencil):
    """Eigenvalues and J-orthonormal eigenvectors (columns) of a PD-J pencil, by numpy eigh."""
    c, d = np.asarray(pencil.J.c), np.asarray(pencil.J.d)
    L = np.linalg.cholesky(np.diag(c) + np.diag(d, 1) + np.diag(d, -1))
    H = -dense_matrix(pencil, 0.0)
    w, Y = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, H).conj().T))
    return w, np.linalg.solve(L.T, Y)


def max_normalized(v):
    """v divided by its entry of largest modulus, which fixes scale and phase."""
    v = np.asarray(v)
    return v / v[np.argmax(np.abs(v))]


def bits(values):
    """The uint64 words of a float or complex array or sequence: equal only where every bit is."""
    return np.ascontiguousarray(np.asarray(values)).view(np.uint64)


def scaled_pencil(pencil, s):
    """2^s (J, H), exact in binary floating point: each real and imaginary part is shifted, its sign kept."""
    def times(values):
        return tuple(math.ldexp(x, s) for x in values)
    b = tuple(complex(math.ldexp(x.real, s), math.ldexp(x.imag, s)) for x in pencil.H.b)
    return tp.Pencil(tp.SymmetricTridiagonal(times(pencil.J.c), times(pencil.J.d)),
                     tp.HermitianTridiagonal(times(pencil.H.a), b))


def reference_unit_upper(steps, scale=None, out=None):
    """The zero-filled, masked assembly of recurrence._unit_upper, kept as the reference for its bits.

    S[i, t] = steps[i] * ... * steps[t-1] * scale[t] for i <= t, zero below the diagonal, from a zeroed
    array whose diagonal blocks go in through a mask of their upper triangle; with out, S goes into the
    diagonal and the upper triangle of out and the rest of out is left as it is.
    """
    mant, expo, runs = [1 + 0j], [0], [0]
    m, e = 1 + 0j, 0
    for t, q in enumerate(np.asarray(steps).tolist(), start=1):  # in Python complex arithmetic
        m *= q
        k = math.frexp(abs(m))[1]
        if not -64 < k < 64:
            m, e = m * math.ldexp(1.0, -k), e + k
            runs.append(t)
        mant.append(m)
        expo.append(e)
    M = np.asarray(mant)
    cols = (M if scale is None else M * scale).view(float).reshape(-1, 2)
    shifts = np.asarray(expo)[:, None] - 64
    size = len(mant)
    bounds = list(zip(runs, runs[1:] + [size]))
    index = np.arange(max(hi - lo for lo, hi in bounds))
    above = index[:, None] < index
    S = np.zeros((size, size), dtype=complex) if out is None else out
    for lo, hi in bounds:
        shifted = np.ldexp(cols[lo:], shifts[lo:] - expo[lo]).view(complex)[:, 0]
        lift, width = 2.0 ** 64 / M[lo:hi], hi - lo
        np.multiply.outer(lift, shifted[width:], out=S[lo:hi, hi:])
        np.copyto(S[lo:hi, lo:hi], np.multiply.outer(lift, shifted[:width]), where=above[:width, :width])
    np.fill_diagonal(S, 1.0 if scale is None else scale)
    return S


def reference_left_steps(pencil, sweep):
    """The steps (conj(b_s) - z d_s)/D_s of L^-1, formed apart from recurrence._unit_steps."""
    _, d, _, b = pencil._diagonals
    return (b.conj() - sweep.z * d) / np.asarray(sweep.pivots[:len(b)])


def _reference_difference(table, t, pl_t, pr_t):
    g = table.diffs[t]
    e, scale = abs(g * pl_t * pr_t), abs(table.values[t]) + abs(table.values[t + 1])
    if e <= DIFFERENCE_RTOL * scale:
        raise tp.DegenerateDifferenceError(t, e, scale, DIFFERENCE_RTOL)
    return g


def _reference_component(values, i):
    """values[i], or VanishingComponentError(i) where it is at most COMPONENT_RTOL times its larger neighbour."""
    v = values[i]
    after = abs(values[i + 1]) if i + 1 < len(values) else 0.0
    scale = max(abs(values[i - 1]), after)
    if abs(v) <= COMPONENT_RTOL * scale:
        raise tp.VanishingComponentError(i, abs(v), scale, COMPONENT_RTOL)
    return v


def reference_trailing_inverse_from(table, pr, pl, k, n):
    """Dense inverse of the trailing resolvent block from m-function data, one guarded numpy entry at a time.

    The m-route's earlier formula, kept as the reference for its diagonals and the order of its guards.
    """
    size = n - k
    out = np.zeros((size, size), dtype=complex)
    for i in range(k + 1, n + 1):
        pli = _reference_component(pl, i)
        pri = _reference_component(pr, i)
        gi = _reference_difference(table, i, pli, pri)
        io = i - (k + 1)
        out[io, io] += 1.0 / (gi * pli * pri)
        if i > k + 1:
            gprev = _reference_difference(table, i - 1, pl[i - 1], pr[i - 1])
            out[io, io] += 1.0 / (gprev * pli * pri)
        if i < n:
            out[io, io + 1] = -1.0 / (gi * pli * _reference_component(pr, i + 1))
            out[io + 1, io] = -1.0 / (gi * _reference_component(pl, i + 1) * pri)
    return out


def reference_m_route(J, k, omega, table, right_comp, left_comp, b_k):
    """(b, a) of reconstruct_from_m, read off reference_trailing_inverse_from, with the same errors."""
    n = J.n
    omega = complex(omega)
    pr, pl = np.asarray(right_comp, dtype=complex), np.asarray(left_comp, dtype=complex)
    T = reference_trailing_inverse_from(table, pr, pl, k, n)
    b_out = [omega * d_j - t for d_j, t in zip(J.d[k + 1:], np.diagonal(T, 1))]
    a_out = [omega * c_j - t for c_j, t in zip(J.c[k + 1:], np.diagonal(T))]
    scales = [abs(omega * c_j) + abs(t) for c_j, t in zip(J.c[k + 1:], np.diagonal(T))]
    gk = _reference_difference(table, k, pl[k], pr[k])
    b_k = complex(b_k)
    coupling = (omega * J.d[k] - b_k.conjugate()) * (omega * J.d[k] - b_k) * pl[k] * gk * pr[k]
    a_out[0] -= coupling
    scales[0] += abs(coupling)
    for j, v, scale in zip(range(k + 1, n + 1), a_out, scales):
        if abs(v.imag) > IMAG_RTOL * scale:  # against the terms that form a_j: scale-free
            raise tp.NonRealDiagonalError(j, v.imag)
    return b_out, [v.real for v in a_out]


def reference_pair_system(j, d_j, lam, mu, p_pair, s_pair):
    """The 2x2 system at j from (p_j, p_{j+1}) at lam and (s_j, s_{j+1}) at mu, in eight component values.

    PairSystem's earlier algebra, the left values being the conjugates of the right ones, kept as the
    reference for its form in the neighbour products: det, scale (the largest of the four monomials of
    det), the solved (u, v), the closed form and the classification (x, y, ratio_ok), with the same errors.
    """
    pr_j, pr_j1 = complex(p_pair[0]), complex(p_pair[1])
    sr_j, sr_j1 = complex(s_pair[0]), complex(s_pair[1])
    pl_j, pl_j1, sl_j, sl_j1 = pr_j.conjugate(), pr_j1.conjugate(), sr_j.conjugate(), sr_j1.conjugate()
    det = pl_j1 * pr_j * (sl_j * sr_j1 - sl_j1 * sr_j) - sl_j1 * sr_j * (pl_j * pr_j1 - pl_j1 * pr_j)
    scale = max(abs(pl_j1 * pr_j * sl_j * sr_j1), abs(pl_j1 * pr_j * sl_j1 * sr_j),
                abs(sl_j1 * sr_j * pl_j * pr_j1), abs(sl_j1 * sr_j * pl_j1 * pr_j))
    if abs(det) <= DELTA_RTOL * scale:
        raise tp.SingularDeltaError(j, abs(det), scale, DELTA_RTOL)
    a11, a12, a21, a22 = pl_j * pr_j1, -pl_j1 * pr_j, sl_j * sr_j1, -sl_j1 * sr_j
    wp, ws = pl_j * pr_j1 - pl_j1 * pr_j, sl_j * sr_j1 - sl_j1 * sr_j
    vp, vs = pl_j * pr_j1 + pl_j1 * pr_j, sl_j * sr_j1 + sl_j1 * sr_j
    r1, r2 = lam * d_j * wp, mu * d_j * ws
    u = (r1 * a22 - r2 * a12) / det
    v = (a11 * r2 - a21 * r1) / det
    if abs(v - u.conjugate()) > HERMITIAN_RTOL * (1.0 + abs(u)):
        raise tp.HermitianInconsistentError(j, abs(v - u.conjugate()), 1.0 + abs(u), HERMITIAN_RTOL)
    closed = ((lam + mu) * d_j + (d_j / det) * (mu * sl_j1 * sr_j * wp - lam * pl_j1 * pr_j * ws),
              (lam + mu) * d_j + (d_j / det) * (mu * sl_j * sr_j1 * wp - lam * pl_j * pr_j1 * ws))
    x = d_j * (mu * vp * ws - lam * vs * wp) / (2.0 * det)
    y = (lam - mu) * d_j * wp * ws / (2j * det)
    lhs, rhs = lam * vs * wp, mu * vp * ws
    ratio_ok = abs(lhs - rhs) <= RATIO_RTOL * (abs(lhs) + abs(rhs))
    return SimpleNamespace(det=det, scale=scale, u=u, v=v, closed=closed, x=x.real, y=y.real,
                           ratio_ok=bool(ratio_ok))


def reference_positivity_witness(pencil, k, mu):
    """The paper's form of the positivity witness, from the forward components at mu and their z-derivatives.

    (b_k - mu d_k) conj(s_k) s'_{k+1} - (conj(b_k) - mu d_k) conj(s_{k+1}) s'_k - d_k conj(s_k) s_{k+1},
    with s_0 = 1: positivity_witness's earlier formula, kept as its small-n cross-check.  Complex, real up
    to roundoff; the forward recurrence loses the eigenvector as n grows.
    """
    s, ds = tp.right_components_with_derivative(pencil, mu)
    d_k, b_k = pencil.J.d[k], pencil.H.b[k]
    sl = np.conj(s)
    return ((b_k - mu * d_k) * sl[k] * ds[k + 1] - (b_k.conjugate() - mu * d_k) * sl[k + 1] * ds[k]
            - d_k * sl[k] * s[k + 1])


def reference_pq(pencil, upto, z):
    """P_0..P_upto and Q_0..Q_upto indexed through their own lists, one step per index on the coefficient tuples.

    pq_sweep's earlier loop, kept as the reference for the sweep on coefficients prepared by one array pass:
    each step forms u_m and the product w_{m-1} = (z d_{m-1} - b_{m-1})(z d_{m-1} - conj(b_{m-1})) in Python
    complex arithmetic.  The values are not checked for leaving the double range.
    """
    c, d = pencil.J.c, pencil.J.d
    a, b = pencil.H.a, pencil.H.b
    P, Q = [1.0 + 0j], [0.0 + 0j]
    if upto >= 1:
        P.append(z * c[0] - a[0])
        Q.append(1.0 + 0j)
    for m in range(1, upto):
        u = z * c[m] - a[m]
        w = (z * d[m - 1] - b[m - 1]) * (z * d[m - 1] - b[m - 1].conjugate())
        P.append(u * P[m] - w * P[m - 1])
        Q.append(u * Q[m] - w * Q[m - 1])
    return P, Q


def reference_liouville(pencil, m, z):
    """liouville_ostrogradsky_residual's earlier form: reference_pq's values and the product of w_j, one j at a
    time, re-formed from the coefficient tuples.  The values are not checked for leaving the double range."""
    P, Q = reference_pq(pencil, m + 1, z)
    lhs = P[m + 1] * Q[m] - P[m] * Q[m + 1]
    rhs = -1.0 + 0j
    for d, b in zip(pencil.J.d[:m], pencil.H.b[:m]):
        rhs *= (z * d - b) * (z * d - b.conjugate())
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def reference_components(pencil, z):
    """Right components p_0..p_n at z and their z-derivatives, one step per index on the coefficient tuples.

    The component sweep's earlier loop, kept as the reference for the sweep on coefficients prepared by
    one array pass: each step tests its pole, raising PoleCollisionError(m), then forms z d_m, u_m and the
    next values, in the same operation order.  The values are not checked for leaving the double range.
    """
    z = complex(z)
    p, dp = [1 + 0j], [0j]
    p0, p1, dp0, dp1 = 0j, 1 + 0j, 0j, 0j
    dl, f = 0.0, 0j  # d_{m-1} and the sub-diagonal factor z d_{m-1} - conj(b_{m-1})
    for m, (cm, dm, am, bm) in enumerate(zip(pencil.J.c, pencil.J.d, pencil.H.a, pencil.H.b)):
        zd = z * dm
        den = bm - zd
        scale = float(np.abs(bm) + np.abs(zd))  # numpy's complex abs, as the array pass takes it
        if abs(den) <= POLE_RTOL * scale:
            raise tp.PoleCollisionError(m, abs(den), scale, POLE_RTOL)
        u = z * cm - am
        p2 = (u * p1 + f * p0) / den
        dp2 = (cm * p1 + u * dp1 + (dl * p0 + f * dp0) + dm * p2) / den
        p.append(p2)
        dp.append(dp2)
        p0, p1, dp0, dp1, dl, f = p1, p2, dp1, dp2, dm, zd - bm.conjugate()
    return np.array(p), np.array(dp)


def worst_relative(values, reference):
    """The largest |v - r|/|r| of values against mpmath_reference's entries r, over those that are not zero."""
    with mpmath.workdps(60):
        return max(float(abs(mpmath.mpc(complex(v)) - r) / abs(r)) for v, r in zip(values, reference) if r)


def mpmath_reference(pencil, z, dps=60):
    """Every value of the direct problem at z in dps-digit arithmetic, on the coefficients as given.

    P_0..P_{n+1} and Q_0..Q_{n+1} of the three-term recurrence, the pivots D_t = P_{t+1}/P_t (t = 0..n), the
    m-values m(z, j) = Q_j/P_j (j = 0..n+1, m(z, 0) = 0; both infinite where P_t or P_j is zero), the diagonal R[t, t] = P_t B_{t+1}/P_{n+1} of the
    resolvent, B_t the minor of rows t..n (B_{n+1} = 1), and the right and left component sequences p_0..p_n
    with their z-derivatives, the left ones from the recurrence with b conjugated.  Each is a list of mpc, to
    be compared inside mpmath.workdps(dps): the exponent range of mpmath is unbounded, so nothing overflows.
    """
    with mpmath.workdps(dps):
        z = mpmath.mpc(complex(z).real, complex(z).imag)
        c, d, a = pencil.J.c, pencil.J.d, pencil.H.a
        b = [mpmath.mpc(x.real, x.imag) for x in pencil.H.b]
        u = [z * cm - am for cm, am in zip(c, a)]
        w = [(z * dm - bm) * (z * dm - mpmath.conj(bm)) for dm, bm in zip(d, b)]
        P, Q = [mpmath.mpc(1), u[0]], [mpmath.mpc(0), mpmath.mpc(1)]
        for m in range(1, pencil.n + 1):
            P.append(u[m] * P[m] - w[m - 1] * P[m - 1])
            Q.append(u[m] * Q[m] - w[m - 1] * Q[m - 1])
        B = [mpmath.mpc(1), u[-1]]  # B_{n+1}, B_n, ..., B_0, reversed after the loop
        for m in range(pencil.n - 1, -1, -1):
            B.append(u[m] * B[-1] - w[m] * B[-2])
        B.reverse()
        right = _mpmath_components(z, c, d, u, b)
        left = _mpmath_components(z, c, d, u, [mpmath.conj(x) for x in b])
        return SimpleNamespace(P=P, Q=Q, pivots=[P[t + 1] / P[t] if P[t] else mpmath.inf for t in range(pencil.n + 1)],
                               m=[mpmath.mpc(0)] + [Q[j] / P[j] if P[j] else mpmath.inf for j in range(1, pencil.n + 2)],
                               resolvent_diagonal=[P[t] * B[t + 1] / P[-1] for t in range(pencil.n + 1)],
                               right=right[0], right_derivative=right[1], left=left[0], left_derivative=left[1])


def _mpmath_components(z, c, d, u, b):
    """p_0..p_n and p'_0..p'_n of p_{m+1} = (u_m p_m + (z d_{m-1} - conj(b_{m-1})) p_{m-1})/(b_m - z d_m), p_0 = 1."""
    p, dp = [mpmath.mpc(1)], [mpmath.mpc(0)]
    for m in range(len(b)):
        num, dnum = u[m] * p[m], c[m] * p[m] + u[m] * dp[m]
        if m:
            f = z * d[m - 1] - mpmath.conj(b[m - 1])
            num += f * p[m - 1]
            dnum += d[m - 1] * p[m - 1] + f * dp[m - 1]
        den = b[m] - z * d[m]
        p.append(num / den)
        dp.append((dnum + d[m] * p[m + 1]) / den)
    return p, dp


def reference_draw_truth(config, rng):
    """oracle._draw_truth as it was, its signs drawn by rng.choice: the stream and the pencil the generator keeps."""
    n = config.n
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    pads = np.concatenate([[0.0], np.abs(d)]) + np.concatenate([np.abs(d), [0.0]])
    c = pads + rng.uniform(0.3, 1.3, n + 1)
    a = rng.uniform(-1.0, 1.0, n + 1)
    b_re = rng.uniform(-1.0, 1.0, n)
    mags = 0.05 + rng.uniform(0.0, 0.95, n)
    mags[config.k:] = config.min_im_ratio * 1.001 + rng.uniform(0.0, 0.9, n - config.k)
    b_im = rng.choice([-1.0, 1.0], n) * mags * d
    b = b_re + 1j * b_im
    return tp.Pencil(tp.SymmetricTridiagonal(tuple(c), tuple(d)), tp.HermitianTridiagonal(tuple(a), tuple(b)))


def reference_minor_sweep(J):
    """The pivot sweep of the pencil z*J - 0 at z = 1, whose pivots are J's and whose margins the degree-drop
    test read before J took its own (SymmetricTridiagonal._pivots)."""
    zero = tp.HermitianTridiagonal((0.0,) * len(J.c), (0j,) * len(J.d))
    return recurrence.pivot_sweep(tp.Pencil(J, zero), J.n + 1, 1.0)


def sweep_prefix(sweep, rows):
    """The pivot sweep of the leading sub-pencil over rows 0..rows-1, in views of sweep; sweep itself at full length."""
    if rows >= len(sweep.pivots):
        return sweep
    cut = max(rows - 1, 0)
    return recurrence.PivotSweep(sweep.z, sweep.u[:rows], sweep.upper[:cut], sweep.lower[:cut], sweep.weights[:cut],
                                 sweep.own[:rows], sweep.x[:rows], sweep.terms[:rows], sweep.pivots[:rows],
                                 sweep.margins[:rows])
