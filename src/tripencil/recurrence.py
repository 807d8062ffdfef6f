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
genuine right/left eigenvectors of the pencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleCollisionError, SpectrumCollisionError
from .pencil import Pencil, RealPolynomial
from .tolerances import DEGREE_DROP_RTOL, POLE_RTOL, SPECTRUM_RTOL


def _check_index(pencil: Pencil, m: int) -> None:
    if not 0 <= m <= pencil.n + 1:
        raise ValueError(f"recurrence index {m} out of range 0..{pencil.n + 1}")


def _weight(d: float, b: complex, z: complex) -> complex:
    """(z d - b)(z d - conj(b)); real coefficients as a polynomial in z."""
    return (z * d - b) * (z * d - b.conjugate())


def pq_sweep(pencil: Pencil, upto: int, z: complex) -> tuple[list[complex], list[complex]]:
    """Values P_0..P_upto and Q_0..Q_upto at z in one recurrence pass."""
    _check_index(pencil, upto)
    z = complex(z)
    c, d = pencil.J.c, pencil.J.d
    a, b = pencil.H.a, pencil.H.b
    P = [1.0 + 0j]
    Q = [0.0 + 0j]
    if upto >= 1:
        P.append(z * c[0] - a[0])
        Q.append(1.0 + 0j)
    for m in range(1, upto):
        u = z * c[m] - a[m]
        w = _weight(d[m - 1], b[m - 1], z)
        P.append(u * P[m] - w * P[m - 1])
        Q.append(u * Q[m] - w * Q[m - 1])
    return P, Q


def eval_p(pencil: Pencil, m: int, z: complex) -> complex:
    """P_m(z); for m = n+1 this is det(z*J - H)."""
    return pq_sweep(pencil, m, z)[0][m]


def eval_q(pencil: Pencil, m: int, z: complex) -> complex:
    """Q_m(z); for m = n+1 this is the minor of z*J - H without row/column 0."""
    return pq_sweep(pencil, m, z)[1][m]


def _poly_pair(pencil: Pencil, m: int) -> tuple[RealPolynomial, RealPolynomial]:
    c, d = pencil.J.c, pencil.J.d
    a, b = pencil.H.a, pencil.H.b
    P: list[np.ndarray] = [np.array([1.0])]
    Q: list[np.ndarray] = [np.array([0.0])]
    if m >= 1:
        P.append(np.array([-a[0], c[0]]))
        Q.append(np.array([1.0]))
    for j in range(1, m):
        u = np.array([-a[j], c[j]])
        bj = b[j - 1]
        dj = d[j - 1]
        # (z d - b)(z d - conj(b)) = d^2 z^2 - 2 d Re(b) z + |b|^2
        w = np.array([abs(bj) ** 2, -2.0 * dj * bj.real, dj * dj])
        nxt_p = np.convolve(u, P[j])
        nxt_q = np.convolve(u, Q[j])
        wp = np.convolve(w, P[j - 1])
        wq = np.convolve(w, Q[j - 1])
        L = max(len(nxt_p), len(wp))
        P.append(np.pad(nxt_p, (0, L - len(nxt_p))) - np.pad(wp, (0, L - len(wp))))
        Lq = max(len(nxt_q), len(wq))
        Q.append(np.pad(nxt_q, (0, Lq - len(nxt_q))) - np.pad(wq, (0, Lq - len(wq))))
    return RealPolynomial(tuple(P[m])), RealPolynomial(tuple(Q[m]))


def poly_p(pencil: Pencil, m: int) -> RealPolynomial:
    """Coefficient vector of P_m, via the recurrence run in coefficient space."""
    _check_index(pencil, m)
    return _poly_pair(pencil, m)[0]


def poly_q(pencil: Pencil, m: int) -> RealPolynomial:
    """Coefficient vector of Q_m."""
    _check_index(pencil, m)
    return _poly_pair(pencil, m)[1]


@dataclass(frozen=True)
class KappaSequence:
    """Leading coefficients kappa_0..kappa_{n+1} of the P_m and degree-drop flags.

    degraded[m] is True when kappa_m vanishes, i.e. the degree condition
    kappa_m / kappa_{m-1} != d_{m-1}^2 / c_m failed one step earlier and P_m
    has degree below m.
    """

    values: tuple[float, ...]
    degraded: tuple[bool, ...]


def kappa_sequence(pencil: Pencil) -> KappaSequence:
    c, d = pencil.J.c, pencil.J.d
    kappas = [1.0, c[0]]
    for m in range(1, pencil.n + 1):
        kappas.append(c[m] * kappas[m] - d[m - 1] ** 2 * kappas[m - 1])
    flags = []
    for m, km in enumerate(kappas):
        if m < 2:
            scale = 1.0
        else:
            scale = abs(c[m - 1] * kappas[m - 1]) + abs(d[m - 2] ** 2 * kappas[m - 2])
        flags.append(abs(km) <= DEGREE_DROP_RTOL * (1.0 + scale))
    return KappaSequence(tuple(kappas), tuple(flags))


def spectrum_margin(pencil: Pencil, m: int, z: complex) -> float:
    """|P_m(z)| normalized by the coefficient magnitude of P_m at |z|.

    Small when z is near the spectrum of the order-(m-1) leading sub-pencil.
    """
    return abs(eval_p(pencil, m, z)) / (1.0 + poly_p(pencil, m).magnitude_at(z))


def in_spectrum(pencil: Pencil, m: int, z: complex) -> bool:
    """Whether z lies in the spectrum of the order-(m-1) leading sub-pencil."""
    _check_index(pencil, m)
    if m == 0:
        return False
    return spectrum_margin(pencil, m, z) < SPECTRUM_RTOL


def assert_resolvent_point(pencil: Pencil, m: int, z: complex) -> None:
    if in_spectrum(pencil, m, z):
        raise SpectrumCollisionError(m - 1, complex(z))


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
    c, d = pencil.J.c, pencil.J.d
    a, b = pencil.H.a, pencil.H.b
    n = pencil.n
    p = np.empty(n + 1, dtype=complex)
    p[0] = 1.0
    dp = np.zeros(n + 1, dtype=complex) if with_derivative else None
    for m in range(n):
        den = b[m] - z * d[m]
        if abs(den) < POLE_RTOL * (1.0 + abs(b[m]) + abs(z * d[m])):
            raise PoleCollisionError(m)
        num = (z * c[m] - a[m]) * p[m]
        if m > 0:
            num += (z * d[m - 1] - b[m - 1].conjugate()) * p[m - 1]
        p[m + 1] = num / den
        if with_derivative:
            dnum = c[m] * p[m] + (z * c[m] - a[m]) * dp[m]
            if m > 0:
                dnum += d[m - 1] * p[m - 1] + (z * d[m - 1] - b[m - 1].conjugate()) * dp[m - 1]
            dp[m + 1] = (dnum + d[m] * p[m + 1]) / den
    return p, dp


def right_components(pencil: Pencil, z: complex) -> np.ndarray:
    """Right component sequence p^R_0..p^R_n at z, normalized to p^R_0 = 1.

    Equals P_m(z) / prod_{j<m} (b_j - z d_j) for every m, so the residual of
    (z*J - H) p^R is supported on the last row only and vanishes when z is an
    eigenvalue of the pencil.
    """
    return _component_sweep(pencil, z, with_derivative=False)[0]


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
