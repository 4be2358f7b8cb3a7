"""Dense complex linear-algebra primitives.

Everything downstream (model builders, biorthogonal solver, metric
factory) funnels through this module, so the conventions are pinned
here once:

* matrices are square ``complex128`` arrays with finite entries,
* residuals are Frobenius norms,
* residual predicates compare a residual against
  ``tol.abs + tol.rel * scale`` so verdicts do not depend on the overall
  scale of the operator; positivity is judged against the eigensolver's
  own accuracy instead (see ``is_positive_definite``),
* inverses are refused above one condition cap, whether the condition
  number is measured here (``inverse``) or taken from an SVD the caller
  already has (``models.PseudoMetric``),
* eigenvalues are sorted ascending by real part, ties by imaginary
  part, and eigenvector columns are returned with unit Euclidean norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    SingularMatrix,
)

ComplexMatrix = NDArray[np.complex128]

#: refuse to invert anything with a 2-norm condition estimate above this
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used by every verdict."""

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self) -> None:
        if not (np.isfinite(self.rel) and np.isfinite(self.abs)):
            raise ValueError("tolerances must be finite")
        if self.rel < 0 or self.abs < 0:
            raise ValueError("tolerances must be non-negative")

    def bound(self, scale: float) -> float:
        """Largest residual still accepted at the given problem scale."""
        return self.abs + self.rel * float(scale)


DEFAULT_TOL = Tolerance()


def as_complex_matrix(m, name: str = "matrix") -> ComplexMatrix:
    """Coerce to a square complex128 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be non-empty")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(a)


def frobenius(m: ComplexMatrix) -> float:
    """Frobenius norm, the only norm used for residuals."""
    return float(np.linalg.norm(m))


def adjoint(m) -> ComplexMatrix:
    """Conjugate transpose."""
    return as_complex_matrix(m).conj().T


def _same_shape(a: ComplexMatrix, b: ComplexMatrix) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def commutator_residual(a, b) -> float:
    """Frobenius norm of ``a @ b - b @ a``."""
    am = as_complex_matrix(a, "a")
    bm = as_complex_matrix(b, "b")
    _same_shape(am, bm)
    return frobenius(am @ bm - bm @ am)


def is_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when ``m`` equals its adjoint up to tolerance."""
    a = as_complex_matrix(m)
    return frobenius(a - a.conj().T) <= tol.bound(frobenius(a))


def is_positive_definite(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when ``m`` is Hermitian and its smallest eigenvalue is resolved positive.

    ``tol`` governs only the Hermiticity pre-check.  The smallest
    eigenvalue must exceed ``n * eps * lambda_max``, the backward-error
    limit of the Hermitian eigensolver: anything above it is a positive
    eigenvalue, however ill-conditioned the matrix (a metric close to
    an exceptional point has lambda_min ~ disc * ||m||).  Non-Hermitian
    input reports False rather than raising; callers that need a hard
    failure wrap this themselves.
    """
    a = as_complex_matrix(m)
    if not is_hermitian(a, tol):
        return False
    # eigvalsh sees only one triangle, so symmetrize the tiny residual away
    h = 0.5 * (a + a.conj().T)
    w = np.linalg.eigvalsh(h)
    return bool(w[0] > a.shape[0] * np.finfo(np.float64).eps * w[-1])


def eig(m) -> tuple[NDArray[np.complex128], ComplexMatrix]:
    """Full eigendecomposition with a deterministic ordering.

    Returns ``(values, vectors)`` where eigenvalues come ascending by
    (real, imaginary) and ``vectors[:, k]`` is the unit-norm eigenvector
    for ``values[k]``.
    """
    a = as_complex_matrix(m)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    return values, np.ascontiguousarray(vectors)


def inverse(m) -> ComplexMatrix:
    """Matrix inverse, refused when the condition estimate exceeds the cap."""
    a = as_complex_matrix(m)
    return _inverse_within_cap(a, float(np.linalg.cond(a)))


def _inverse_within_cap(a: ComplexMatrix, cond: float) -> ComplexMatrix:
    """inv(a), or SingularMatrix when its 2-norm condition number ``cond`` is too large."""
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise SingularMatrix(
            f"condition estimate {cond:.3e} exceeds cap {CONDITION_CAP:.0e}",
            condition=cond,
        )
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cond cap hits first
        raise SingularMatrix(f"inversion failed: {exc}") from exc
