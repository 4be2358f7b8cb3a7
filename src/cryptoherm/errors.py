"""Exception hierarchy for cryptoherm.

Every failure mode that callers are expected to branch on gets its own
class so the CLI can translate exceptions into stable exit codes.  A
raise site passes the quantities that decided the refusal as keywords
after the message; the one constructor, on ``CryptoHermError``, keeps
each as an attribute of the same name, and each class declares its
attributes with the defaults read when a raise site leaves one out.
"""
from __future__ import annotations


class CryptoHermError(Exception):
    """Base class for all package-specific failures."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        vars(self).update(context)


class DimensionMismatch(CryptoHermError, ValueError):
    """Operands do not share the required square shape."""


class NotHermitian(CryptoHermError):
    """A matrix required to be self-adjoint is not."""


class NotPositiveDefinite(CryptoHermError):
    """A matrix required to be positive definite is not."""


class SingularMatrix(CryptoHermError):
    """Inversion refused by ``models.invertibility_refusal`` with floor 0, as
    ``PseudoMetric.check_condition`` applies it: the condition number is above
    the trust cap, or the candidate's inverse leaves float64."""

    condition = float("inf")


class SpectrumObstruction(CryptoHermError):
    """No biorthogonal system exists for this spectrum.

    ``eigenvalues`` holds the values the eigensolver returned when the
    refusal came after it ran, and None when the eigensolver itself
    failed.
    """

    eigenvalues = None


class ConvergenceFailure(SpectrumObstruction):
    """The eigensolver did not converge, or its eigenvectors are defective."""


class ComplexSpectrum(SpectrumObstruction):
    """Eigenvalues carry imaginary parts beyond tolerance."""


class DegenerateSpectrum(SpectrumObstruction):
    """Two eigenvalues sit closer than the degeneracy threshold."""

    gap = threshold = 0.0


class ZeroKappa(CryptoHermError, ValueError):
    """A rescaling coefficient is zero or non-finite, or the metric operators leave float64."""


class VanishingOverlap(CryptoHermError):
    """<v|P|v> vanished, so the quasiparity coefficient is undefined."""

    index = -1
    overlap = 0j


class NonRealQuasiparity(CryptoHermError):
    """Quasiparity coefficients are not real, so no involutive scaling exists."""

    indices = ()


class MatrixFileError(CryptoHermError, ValueError):
    """A matrix/coefficient file does not follow the documented layout."""
