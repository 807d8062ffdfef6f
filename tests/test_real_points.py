"""The direct problem at a real point: real arithmetic where z.imag == 0, and what that leaves exact.

At a real z the pencil z*J - H is Hermitian, so off the spectrum its pivots, twisted pivots and m-values
are real.  pivot_sweep forms its arrays from z.real there, so that every pass that reads them steps in
real arithmetic; the public types stay complex.  That R is then exactly Hermitian, with a real diagonal, is
test_mfunctions.test_resolvent_is_exactly_hermitian_at_real_points.
"""

import mpmath
import numpy as np
import pytest

import tripencil as tp
from tripencil import recurrence
from support import bits, delocalised_pencil, far_points, mpmath_reference, seeded_pencil

REAL_FIELDS = ("u", "weights", "own", "x", "terms", "pivots", "margins")


def _signed_zero_points(x):
    """x + 0j and x - 0j: one real point, two keys of the point slot."""
    return complex(x, 0.0), complex(x, -0.0)


@pytest.mark.parametrize("n", [1, 12, 160])
def test_the_sweep_is_real_at_a_real_point_and_complex_elsewhere(n):
    pencil = seeded_pencil(n, n)
    above, below, band = far_points(pencil)
    for z in (above, float(below), *_signed_zero_points(below)):
        sweep = recurrence.pivot_sweep(pencil, n + 1, z)
        assert all(getattr(sweep, field).dtype == np.float64 for field in REAL_FIELDS), z
        assert sweep.upper.dtype == sweep.lower.dtype == np.complex128, z
    sweep = recurrence.pivot_sweep(pencil, n + 1, band)
    assert all(getattr(sweep, field).dtype == np.complex128 for field in ("u", "upper", "lower", "weights", "x",
                                                                          "pivots"))
    assert all(getattr(sweep, field).dtype == np.float64 for field in ("own", "terms", "margins"))


def _outputs(pencil, z):
    """The bits of every direct output at z, from a fresh copy of the pencil, and the types of the public tuples."""
    pencil = tp.Pencil(pencil.J, pencil.H)
    n = pencil.n
    table = tp.m_table(pencil, z)
    factors = tp.ldu_factors(pencil, z)
    parts = (table.values, table.diffs, tp.resolvent_matrix(pencil, z), factors.F, factors.diag, factors.G,
             tp.trailing_inverse(pencil, n // 2, z), tp.eigenvalue_margin(pencil, z))
    types = {type(v) for v in (*table.values, *table.diffs, *factors.diag)}
    return [bits(part).tobytes() for part in parts], types


@pytest.mark.parametrize("n", [1, 40, 640])
def test_both_signs_of_a_zero_imaginary_part_give_the_same_bits(n):
    """m_table, ldu_factors, resolvent_matrix, trailing_inverse and eigenvalue_margin: one real point at
    x + 0j and x - 0j, whose public tuples hold Python complex numbers."""
    pencil = seeded_pencil(n + 2, n)
    for x in far_points(pencil)[:2]:
        plus, minus = (_outputs(pencil, z) for z in _signed_zero_points(x))
        assert plus[0] == minus[0], x
        assert plus[1] == minus[1] == {complex}, x


@pytest.mark.parametrize("family, n", [(seeded_pencil, 40), (seeded_pencil, 640), (delocalised_pencil, 160),
                                       (delocalised_pencil, 640)])
def test_real_point_outputs_match_a_60_digit_reference(family, n):
    """At the far real points: the pivots within 2 eps of their terms, as at a complex point
    (test_pivots_match_a_60_digit_pivot_recurrence), and the m-values and diag(R) within 2e-15 relative,
    the bound of test_m_values_match_a_60_digit_recurrence_at_far_points.

    Measured worst over these pencils: pivots 1.21 eps, m-values 4.2e-16, diag(R) 9.0e-16; in complex
    arithmetic at the same points they read 1.21 eps, 5.0e-16 and 9.5e-16.
    """
    eps = np.finfo(float).eps
    for seed in range(3):
        pencil = family(seed, n)
        for z in far_points(pencil)[:2]:
            exact = mpmath_reference(pencil, z)
            sweep = recurrence.pivot_sweep(pencil, n + 1, z)
            values = tp.m_table(pencil, z).values[1:]
            diagonal = tp.resolvent_matrix(pencil, z).diagonal()
            with mpmath.workdps(60):
                pivots = max(float(abs(mpmath.mpf(v) - r)) / t
                             for v, r, t in zip(sweep.pivots, exact.pivots, sweep.terms))
                m = max(float(abs(mpmath.mpc(v) - r) / abs(r)) for v, r in zip(values, exact.m[1:]))
                diag = max(float(abs(mpmath.mpc(v) - r) / abs(r))
                           for v, r in zip(diagonal, exact.resolvent_diagonal))
            assert pivots <= 2 * eps and m <= 2e-15 and diag <= 2e-15, (seed, z, pivots / eps, m, diag)
