"""Shared builders and dense oracles for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.linalg

import tripencil as tp
from tripencil.tolerances import (COMPONENT_RTOL, DELTA_RTOL, DIFFERENCE_RTOL, HERMITIAN_RTOL, IMAG_RTOL,
                                  RATIO_RTOL)


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


def _reference_difference(table, t, pl_t, pr_t):
    g = table.diffs[t]
    if abs(g * pl_t * pr_t) < DIFFERENCE_RTOL * (1.0 + abs(table.values[t]) + abs(table.values[t + 1])):
        raise tp.DegenerateDifferenceError(t)
    return g


def _reference_component(values, i, scale):
    v = values[i]
    if abs(v) < COMPONENT_RTOL * (1.0 + scale):
        raise tp.VanishingComponentError(i)
    return v


def reference_trailing_inverse_from(table, pr, pl, k, n):
    """Dense inverse of the trailing resolvent block from m-function data, one guarded numpy entry at a time.

    The m-route's earlier formula, kept as the reference for its diagonals and the order of its guards.
    """
    size = n - k
    out = np.zeros((size, size), dtype=complex)
    scale = float(np.max(np.abs(pr)) + np.max(np.abs(pl)))
    for i in range(k + 1, n + 1):
        pli = _reference_component(pl, i, scale)
        pri = _reference_component(pr, i, scale)
        gi = _reference_difference(table, i, pli, pri)
        io = i - (k + 1)
        out[io, io] += 1.0 / (gi * pli * pri)
        if i > k + 1:
            gprev = _reference_difference(table, i - 1, pl[i - 1], pr[i - 1])
            out[io, io] += 1.0 / (gprev * pli * pri)
        if i < n:
            out[io, io + 1] = -1.0 / (gi * pli * _reference_component(pr, i + 1, scale))
            out[io + 1, io] = -1.0 / (gi * _reference_component(pl, i + 1, scale) * pri)
    return out


def reference_m_route(J, k, omega, table, right_comp, left_comp, b_k):
    """(b, a) of reconstruct_from_m, read off reference_trailing_inverse_from, with the same errors."""
    n = J.n
    omega = complex(omega)
    pr, pl = np.asarray(right_comp, dtype=complex), np.asarray(left_comp, dtype=complex)
    T = reference_trailing_inverse_from(table, pr, pl, k, n)
    b_out = [omega * d_j - t for d_j, t in zip(J.d[k + 1:], np.diagonal(T, 1))]
    a_out = [omega * c_j - t for c_j, t in zip(J.c[k + 1:], np.diagonal(T))]
    gk = _reference_difference(table, k, pl[k], pr[k])
    b_k = complex(b_k)
    a_out[0] -= (omega * J.d[k] - b_k.conjugate()) * (omega * J.d[k] - b_k) * pl[k] * gk * pr[k]
    for j, v in zip(range(k + 1, n + 1), a_out):
        if abs(v.imag) > IMAG_RTOL * (1.0 + abs(v)):
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
        raise tp.SingularDeltaError(j)
    a11, a12, a21, a22 = pl_j * pr_j1, -pl_j1 * pr_j, sl_j * sr_j1, -sl_j1 * sr_j
    wp, ws = pl_j * pr_j1 - pl_j1 * pr_j, sl_j * sr_j1 - sl_j1 * sr_j
    vp, vs = pl_j * pr_j1 + pl_j1 * pr_j, sl_j * sr_j1 + sl_j1 * sr_j
    r1, r2 = lam * d_j * wp, mu * d_j * ws
    u = (r1 * a22 - r2 * a12) / det
    v = (a11 * r2 - a21 * r1) / det
    if abs(v - u.conjugate()) > HERMITIAN_RTOL * (1.0 + abs(u)):
        raise tp.HermitianInconsistentError(j)
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
