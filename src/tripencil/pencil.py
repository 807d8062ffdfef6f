"""Value types for tridiagonal matrix pencils z*J - H.

J is real symmetric tridiagonal (diagonal c, off-diagonal d), H is Hermitian
tridiagonal (real diagonal a, super-diagonal b, sub-diagonal conj(b)).  Both
are stored as immutable coefficient tuples, which are the value: equality,
hashing, repr, pickling and copies read them alone.  The constructors raise
ValueError on an entry that is not finite, on lengths that do not fit and on
a zero d_j.  Outside the value, each formed on first use: a pencil keeps its
four diagonals as read-only arrays for the array passes to slice, one slot
for the point object of the last point it was evaluated at
(recurrence._at_point, which says what the point holds), so that the
operations at one point share it, and its eigenvalues
(oracle.pencil_eigenvalues); J keeps its LDL^T pivots up to the first
leading minor that cancels (SymmetricTridiagonal._pivots), which is the
degree-drop test.  Every type here is safe to share across threads:
what is kept is read-only, the same bits as a fresh computation, and set in
one assignment, so a reader sees one point or another, each whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .tolerances import DEGREE_DROP_RTOL


def _finite_floats(xs: Sequence[float], name: str) -> tuple[float, ...]:
    out = tuple(float(x) for x in xs)
    if any(not math.isfinite(x) for x in out):
        raise ValueError(f"{name} entries must be finite")
    return out


def _finite_complexes(xs: Sequence[complex], name: str) -> tuple[complex, ...]:
    out = tuple(complex(x) for x in xs)
    if any(not (math.isfinite(z.real) and math.isfinite(z.imag)) for z in out):
        raise ValueError(f"{name} entries must be finite")
    return out


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Real symmetric tridiagonal matrix of order n+1: diagonal c, off-diagonal d."""

    c: tuple[float, ...]
    d: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", _finite_floats(self.c, "c"))
        object.__setattr__(self, "d", _finite_floats(self.d, "d"))
        if len(self.d) != len(self.c) - 1:
            raise ValueError("off-diagonal length must be one less than diagonal length")
        if any(x == 0.0 for x in self.d):
            raise ValueError("off-diagonal entries d_j must be nonzero")

    @property
    def n(self) -> int:
        return len(self.c) - 1

    def dense(self) -> np.ndarray:
        m = np.diag(np.asarray(self.c, dtype=float))
        if self.d:
            m += np.diag(self.d, 1) + np.diag(self.d, -1)
        return m

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Dense principal block over rows/columns lo..hi inclusive."""
        return self.dense()[lo:hi + 1, lo:hi + 1]

    @cached_property
    def _pivots(self) -> tuple[tuple[float, ...], float | None]:
        """The LDL^T pivots of 2^-e J, up to the first whose margin is at most DEGREE_DROP_RTOL, and that margin.

        D_t = c_t - x_t, x_t = d_{t-1}^2/D_{t-1} (x_0 = 0), is the ratio of
        the leading minors of orders t + 1 and t, and its margin
        |D_t|/(|c_t| + |x_t|) says how far that minor is from cancelling:
        0 at an exactly zero pivot, where the loop stops before dividing by
        it.  The margin is None where no pivot cancels; then the pivots are
        all n + 1, and their signs are the inertia of J (of each leading
        block J_[0,t] too).  2^e sits within a factor 2 of the largest
        entry, so every step stays in the double range, and the pivots and
        margins are those of J times 2^-e and 1 wherever these are normal:
        the margins of the pencil z*J - 0 at z = 1 (recurrence.pivot_sweep),
        bit for bit.  Formed on first use and kept.
        """
        lift = math.ldexp(1.0, math.frexp(max(map(abs, self.c + self.d)))[1] - 1)
        pivots, D = [], 1.0
        for t, c in enumerate(self.c):
            c /= lift
            x = (e := self.d[t - 1] / lift) * e / D if t else 0.0
            D = c - x
            pivots.append(D)
            margin = abs(D) / (abs(c) + abs(x)) if D else 0.0
            if margin <= DEGREE_DROP_RTOL:
                return tuple(pivots), margin
        return tuple(pivots), None

    def __getstate__(self) -> dict:
        """Pickle and copy the value alone: a copy takes its own pivots."""
        return {"c": self.c, "d": self.d}


@dataclass(frozen=True)
class HermitianTridiagonal:
    """Hermitian tridiagonal matrix: real diagonal a, super-diagonal b."""

    a: tuple[float, ...]
    b: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", _finite_floats(self.a, "a"))
        object.__setattr__(self, "b", _finite_complexes(self.b, "b"))
        if len(self.b) != len(self.a) - 1:
            raise ValueError("super-diagonal length must be one less than diagonal length")

    @property
    def n(self) -> int:
        return len(self.a) - 1

    def dense(self) -> np.ndarray:
        m = np.diag(np.asarray(self.a, dtype=complex))
        if self.b:
            bb = np.asarray(self.b, dtype=complex)
            m += np.diag(bb, 1) + np.diag(np.conj(bb), -1)
        return m


@dataclass(frozen=True)
class Pencil:
    """The linear pencil z*J - H of two tridiagonal matrices of equal order."""

    J: SymmetricTridiagonal
    H: HermitianTridiagonal

    def __post_init__(self):
        if self.J.n != self.H.n:
            raise ValueError("J and H must have the same order")

    @property
    def n(self) -> int:
        return self.J.n

    @cached_property
    def _diagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """c, d, a and b (complex) as read-only arrays, converted on first use and kept."""
        arrays = (np.array(self.J.c), np.array(self.J.d), np.array(self.H.a), np.array(self.H.b, dtype=complex))
        for x in arrays:
            x.flags.writeable = False
        return arrays

    def __getstate__(self) -> dict:
        """Pickle and copy the value alone: a copy converts its own read-only arrays."""
        return {"J": self.J, "H": self.H}

    def dense_at(self, z: complex) -> np.ndarray:
        return complex(z) * self.J.dense().astype(complex) - self.H.dense()

    def head(self, k: int) -> "Pencil":
        """Leading sub-pencil over indices 0..k."""
        if not 0 <= k <= self.n:
            raise ValueError("head index out of range")
        return Pencil(
            SymmetricTridiagonal(self.J.c[:k + 1], self.J.d[:k]),
            HermitianTridiagonal(self.H.a[:k + 1], self.H.b[:k]),
        )
