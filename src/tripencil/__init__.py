"""Tridiagonal linear pencils z*J - H: recurrences, m-functions, reconstruction."""

from .errors import (
    DegenerateDifferenceError,
    DegreeDropError,
    GenerationFailedError,
    HermitianInconsistentError,
    MathPreconditionError,
    NearSingularError,
    NonRealDiagonalError,
    PencilError,
    PoleCollisionError,
    SchemaError,
    SingularDeltaError,
    SpectrumCollisionError,
    VanishingComponentError,
)
from .giep import (
    GiepInstance,
    ImaginaryClassification,
    PairSystem,
    ReconstructionResult,
    delta,
    head_components,
    pair_systems,
    positivity_witness,
    reconstruct_a,
    solve,
    trace_identity_residuals,
)
from .mfunctions import (
    MFunctionTable,
    MRouteEntries,
    ResolventFactors,
    ldu_factors,
    m_function,
    m_table,
    reconstruct_from_m,
    resolvent_matrix,
    trailing_inverse,
)
from .oracle import (
    GeneratorConfig,
    VerificationReport,
    dense_resolvent,
    generate_instance,
    instance_from_truth,
    pencil_eigenvalues,
    verify,
)
from .pencil import HermitianTridiagonal, Pencil, SymmetricTridiagonal
from .recurrence import (
    eigenvalue_margin,
    eigenvector_components,
    eval_p,
    eval_q,
    left_components,
    liouville_ostrogradsky_residual,
    right_components,
    right_components_with_derivative,
)

__version__ = "0.1.0"
