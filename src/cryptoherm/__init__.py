"""cryptoherm: operator machinery for quasi-Hermitian models at finite dimension.

Construct biorthogonal eigensystems of a non-Hermitian matrix with real
spectrum, rescale them, build the quasiparity/charge operators and the
positive-definite metric family they factorize, and verify every
symmetry identity numerically.

``import cryptoherm`` loads nothing but this file, so neither numpy nor
the library modules are imported until they are needed (PEP 562).  The
first library name or submodule asked for imports every library module,
the same set an eager import would load, and binds every exported name
here from the module that defines it: from then on the package holds
the same bindings an eager import gives, and reading one costs a
dictionary lookup.  (A module ``__getattr__`` on every read would cost
about 1 us each on CPython 3.11, where a missed module attribute first
raises and formats an AttributeError, and some callers read names such
as ``cryptoherm.classify_h2`` once per grid point, where the call itself
costs about 1.8 us: the read would add more than half to each point.)
"""
import importlib

__version__ = "0.1.0"

#: every exported name, by the library module that defines it
_EXPORTS = {
    "biortho": (
        "BiorthogonalSystem",
        "biorthonormality_residual",
        "completeness_residual",
        "renormalize",
        "solve_biorthogonal",
    ),
    "errors": (
        "ComplexSpectrum",
        "ConvergenceFailure",
        "CryptoHermError",
        "DegenerateSpectrum",
        "DimensionMismatch",
        "MatrixFileError",
        "NonRealQuasiparity",
        "NotHermitian",
        "NotPositiveDefinite",
        "SingularMatrix",
        "VanishingOverlap",
        "ZeroKappa",
    ),
    "linalg": (
        "Tolerance",
        "adjoint",
        "commutator_residual",
        "eig",
        "frobenius",
        "is_hermitian",
        "is_positive_definite",
    ),
    "metric": (
        "CoefficientSet",
        "MetricBundle",
        "build_bundle",
        "build_metric",
        "involutive_normalization",
        "quasiparity_coeffs",
        "verify_factorizations",
    ),
    "models": (
        "DomainClass",
        "PseudoMetric",
        "build_h2",
        "build_h3",
        "classify_h2",
        "cyclic_p",
        "discriminant_h2",
        "hermitian_rotation",
        "hermitian_sum",
        "parity2",
        "swap2",
        "sweep_h2",
    ),
    "symmetry": (
        "Diagnosis",
        "SymmetryVerdict",
        "diagnose",
        "pseudo_hermiticity_residual",
        "pt_commutant_check",
        "quasi_hermiticity_residual",
        "weak_triplet_check",
    ),
}

#: the name -> home-module table; a module's own copy of a name
#: (``biortho`` holds ``eig``, for one) is never the one bound
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

#: the modules an eager ``import cryptoherm`` would load (``cli`` is not one)
_LIBRARY = ("biortho", "errors", "io", "linalg", "metric", "models", "symmetry")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME and name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not "from . import x": that statement would ask this
    # function for x again before the submodule is bound
    for module in _LIBRARY:
        importlib.import_module(f"{__name__}.{module}")
    namespace = globals()
    for exported, home in _HOME.items():
        namespace[exported] = getattr(namespace[home], exported)
    # importing a submodule bound it here, so submodules resolve too
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
