"""Every tolerance the library decides with, one line of reason each.

``*_RTOL`` values are relative to a scale the deciding function computes
from the same data; the others bound quantities that are already normalized.
Floors that only keep a division away from zero are not tolerances.
"""

# Recurrences and components (recurrence.py)
POLE_RTOL = 1e-12           # |b_m - z d_m| this small against its terms: z is a component pole
SPECTRUM_RTOL = 1e-10       # twisted margin below this: z is in the (sub-)pencil spectrum

# Eigenpair reconstruction (giep.py)
DELTA_RTOL = 1e-10          # tails with ~1e-14 relative error smear a zero Delta_j to ~1e-11 of scale
HERMITIAN_RTOL = 1e-8       # the solved conjugate unknown must match conj(b_j) this closely
COMPONENT_RTOL = 1e-12      # a component this far below its neighbours is not divided by (both routes)
IMAG_RTOL = 1e-8            # a larger imaginary part of a recovered a_j means inconsistent data
RATIO_RTOL = 1e-8           # lam/mu matches the determinant ratio that forces Re(b_j) = 0

# m-function route (mfunctions.py)
DIFFERENCE_RTOL = 1e-12     # m-values (or w_t against its terms) this close are taken as coincident
FACTOR_RTOL = 1e-5          # pivot margin below this: the unit LDU product loses > ~5e-10 (~25 eps/margin)

# Dense oracle and verification (oracle.py)
DEGREE_DROP_RTOL = 1e-13    # pivot margin of J (the pencil z*J - 0 at z = 1) this small: a leading minor cancels
NEAR_SINGULAR_RTOL = 1e-12  # det(wJ - H) against the Hadamard bound: numerically singular
DENSE_RESIDUAL_RTOL = 1e-10 # |A X - I| of the dense inverse, relative to |A| |X|
ENTRY_TOL = 1e-7            # worst relative error of a recovered entry that verify accepts
RESIDUAL_TOL = 1e-6         # worst relative eigenpair residual that verify accepts

# Instance generator admission (oracle.py): wider than the solver's guards they
# mirror, so an admitted instance never trips one of those; the component guard
# (COMPONENT_RTOL) has no admission test, so that generated data shows where it fires
EIGENVALUE_GAP_TOL = 1e-6   # smallest |lam - mu|
ADMIT_SPECTRUM_MARGIN = 1e-6  # smallest twisted margin of head(k - 1) and head(k) at lam or mu, as solve reads them
ADMIT_DELTA_RTOL = 1e-8     # smallest |Delta_j| / scale_j, against scale alone as solve's DELTA_RTOL test
