"""cryptoherm: operator machinery for quasi-Hermitian models at finite dimension.

Construct biorthogonal eigensystems of a non-Hermitian matrix with real
spectrum, rescale them, build the quasiparity/charge operators and the
positive-definite metric family they factorize, and verify every
symmetry identity numerically.
"""
from .biortho import (
    BiorthogonalSystem,
    biorthonormality_residual,
    completeness_residual,
    renormalize,
    solve_biorthogonal,
)
from .errors import (
    ComplexSpectrum,
    ConvergenceFailure,
    CryptoHermError,
    DegenerateSpectrum,
    DimensionMismatch,
    MatrixFileError,
    NonRealQuasiparity,
    NotHermitian,
    NotPositiveDefinite,
    SingularMatrix,
    VanishingOverlap,
    ZeroKappa,
)
from .linalg import (
    Tolerance,
    adjoint,
    commutator_residual,
    eig,
    frobenius,
    is_hermitian,
    is_positive_definite,
)
from .metric import (
    CoefficientSet,
    MetricBundle,
    build_bundle,
    build_metric,
    involutive_normalization,
    quasiparity_coeffs,
    verify_factorizations,
)
from .models import (
    DomainClass,
    PseudoMetric,
    build_h2,
    build_h3,
    classify_h2,
    cyclic_p,
    discriminant_h2,
    hermitian_rotation,
    hermitian_sum,
    parity2,
    swap2,
    sweep_h2,
)
from .symmetry import (
    Diagnosis,
    SymmetryVerdict,
    diagnose,
    pseudo_hermiticity_residual,
    pt_commutant_check,
    quasi_hermiticity_residual,
    weak_triplet_check,
)

__version__ = "0.1.0"

__all__ = [
    "BiorthogonalSystem",
    "CoefficientSet",
    "ComplexSpectrum",
    "ConvergenceFailure",
    "CryptoHermError",
    "DegenerateSpectrum",
    "Diagnosis",
    "DimensionMismatch",
    "DomainClass",
    "MatrixFileError",
    "MetricBundle",
    "NonRealQuasiparity",
    "NotHermitian",
    "NotPositiveDefinite",
    "PseudoMetric",
    "SingularMatrix",
    "SymmetryVerdict",
    "Tolerance",
    "VanishingOverlap",
    "ZeroKappa",
    "adjoint",
    "biorthonormality_residual",
    "build_bundle",
    "build_h2",
    "build_h3",
    "build_metric",
    "classify_h2",
    "commutator_residual",
    "completeness_residual",
    "cyclic_p",
    "diagnose",
    "discriminant_h2",
    "eig",
    "frobenius",
    "hermitian_rotation",
    "hermitian_sum",
    "involutive_normalization",
    "is_hermitian",
    "is_positive_definite",
    "parity2",
    "pseudo_hermiticity_residual",
    "pt_commutant_check",
    "quasi_hermiticity_residual",
    "quasiparity_coeffs",
    "renormalize",
    "solve_biorthogonal",
    "swap2",
    "sweep_h2",
    "verify_factorizations",
    "weak_triplet_check",
]
