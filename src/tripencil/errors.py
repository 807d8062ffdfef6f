"""Exception hierarchy.

``MathPreconditionError`` subclasses signal that a mathematical hypothesis
required by an operation does not hold for the given data; the CLI maps
them to exit code 2.  ``SchemaError`` covers malformed serialized input
(exit code 1).
"""

from __future__ import annotations

from typing import Mapping


class PencilError(Exception):
    """Base class for all library errors."""


class SchemaError(PencilError):
    """Malformed or internally inconsistent serialized data."""


class MathPreconditionError(PencilError):
    """A hypothesis required by the requested operation is violated."""


class _IndexedError(MathPreconditionError):
    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class PoleCollisionError(_IndexedError):
    """Evaluation point hits a component pole b_j/d_j (or its conjugate).

    value is |b_j - z d_j| (or the smaller of it and |conj(b_j) - z d_j|),
    scale is 1 + |b_j| + |z d_j| and tol the relative tolerance that
    value < tol * scale failed.
    """

    def __init__(self, index: int, value: float, scale: float, tol: float):
        self.value, self.scale, self.tol = value, scale, tol
        super().__init__(index, f"evaluation point collides with pole at off-diagonal index {index}: "
                                f"|b_j - z d_j| = {value:.3e} < tol {tol:.1e} x scale {scale:.3e}")


class SpectrumCollisionError(MathPreconditionError):
    """Evaluation point lies in the spectrum of a leading sub-pencil.

    value is its twisted margin, below tol = SPECTRUM_RTOL, or in ldu_factors
    the pivot margin, below tol = FACTOR_RTOL.
    """

    def __init__(self, order: int, point: complex, value: float, tol: float):
        self.order, self.point, self.value, self.tol = order, point, value, tol
        super().__init__(f"point {point} lies in the spectrum of the order-{order} leading sub-pencil: "
                         f"margin {value:.3e} < tol {tol:.1e}")


class SingularDeltaError(_IndexedError):
    """The 2x2 reconstruction system is singular: Delta_j vanishes.

    Signals a real pole ratio b_j/d_j or corrupted spectral data.
    """

    def __init__(self, index: int):
        super().__init__(index, f"singular reconstruction system: Delta at index {index} vanishes "
                                f"(pole ratio at {index} is real or data violates the spectrum hypotheses)")


class HermitianInconsistentError(_IndexedError):
    """The conjugate unknown of the 2x2 solve is not the conjugate of b_j."""

    def __init__(self, index: int):
        super().__init__(index, f"inconsistent spectral data: recovered pair at index {index} "
                                f"is not conjugate-symmetric")


class VanishingComponentError(_IndexedError):
    """An eigenvector component appearing in a denominator is (near) zero."""

    def __init__(self, index: int):
        super().__init__(index, f"eigenvector component at index {index} vanishes")


class NonRealDiagonalError(_IndexedError):
    """A recovered diagonal entry has a non-negligible imaginary part."""

    def __init__(self, index: int, imag: float):
        self.imag = imag
        super().__init__(index, f"recovered diagonal entry a_{index} has imaginary part {imag:.3e}; "
                                f"spectral data is inconsistent")


class DegenerateDifferenceError(_IndexedError):
    """Two m-function values that must differ coincide."""

    def __init__(self, index: int):
        super().__init__(index, f"degenerate m-function difference at index {index}")


class DegreeDropError(_IndexedError):
    """The order-m leading minor of J (the leading coefficient of P_m) cancels, so P_m drops degree."""

    def __init__(self, index: int):
        super().__init__(index, f"degree drop: the order-{index} leading minor of J vanishes")


class NearSingularError(MathPreconditionError):
    """Dense linear solve rejected: matrix is numerically singular."""


class GenerationFailedError(PencilError):
    """Instance generator exhausted its rejection-sampling budget.

    rejections maps each admission test, in the order the generator runs
    them, to the number of attempts it rejected; the counts sum to the budget.
    """

    def __init__(self, seed: int, rejections: Mapping[str, int]):
        self.seed = seed
        self.rejections = dict(rejections)
        counts = ", ".join(f"{test} {count}" for test, count in self.rejections.items())
        super().__init__(f"no admissible instance after {sum(self.rejections.values())} attempts "
                         f"(seed={seed}); rejected by {counts}")
