"""Exception hierarchy for cryptoherm.

Every failure mode that callers are expected to branch on gets its own
class so the CLI can translate exceptions into stable exit codes.
"""
from __future__ import annotations


class CryptoHermError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(CryptoHermError, ValueError):
    """Operands do not share the required square shape."""


class NotHermitian(CryptoHermError):
    """A matrix required to be self-adjoint is not."""


class NotPositiveDefinite(CryptoHermError):
    """A matrix required to be positive definite is not."""


class SingularMatrix(CryptoHermError):
    """Inversion refused: the condition number is above the trust cap, or the
    candidate is ``negligible`` (zero up to rounding, whatever its condition)."""

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(message)
        self.condition = condition


class SpectrumObstruction(CryptoHermError):
    """No biorthogonal system exists for this spectrum.

    ``eigenvalues`` holds the values the eigensolver returned when the
    refusal came after it ran, and None when the eigensolver itself
    failed.
    """

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class ConvergenceFailure(SpectrumObstruction):
    """The eigensolver did not converge, or its eigenvectors are defective."""


class ComplexSpectrum(SpectrumObstruction):
    """Eigenvalues carry imaginary parts beyond tolerance."""


class DegenerateSpectrum(SpectrumObstruction):
    """Two eigenvalues sit closer than the degeneracy threshold."""

    def __init__(
        self, message: str, gap: float = 0.0, threshold: float = 0.0, eigenvalues=None
    ):
        super().__init__(message, eigenvalues)
        self.gap = gap
        self.threshold = threshold


class ZeroKappa(CryptoHermError, ValueError):
    """A rescaling coefficient is zero or non-finite."""


class VanishingOverlap(CryptoHermError):
    """<v|P|v> vanished, so the quasiparity coefficient is undefined."""

    def __init__(self, message: str, index: int = -1, overlap: complex = 0j):
        super().__init__(message)
        self.index = index
        self.overlap = overlap


class NonRealQuasiparity(CryptoHermError):
    """Quasiparity coefficients are not real, so no involutive scaling exists."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class MatrixFileError(CryptoHermError, ValueError):
    """A matrix/coefficient file does not follow the documented layout."""
