"""Dense complex linear-algebra primitives.

Everything downstream (model builders, biorthogonal solver, metric
factory) funnels through this module, so the conventions are pinned
here once:

* matrices are square ``complex128`` arrays with finite entries,
* residuals are Frobenius norms, and a relative residual is the one
  quotient ``_relative``, ||R||_F / scale taken at unit scale, which
  the factorization and symmetry residuals all go through,
* there is one tolerance, ``tol.rel``: a relative residual is held to
  it, and an absolute quantity to ``tol.rel`` times its own scale, so
  no verdict depends on the overall scale of the operator; positivity
  is judged against the eigensolver's own accuracy instead, by the one
  rule in ``resolved_positive`` (see there for why),
* eigenvalues are sorted ascending by real part, ties by imaginary
  part, and eigenvector columns are returned as LAPACK's ZGEEV
  normalizes them: unit Euclidean norm, largest-modulus component real
  positive.  No step normalizes or re-phases them again.

Operands are validated at the boundary: every public function that
takes a matrix passes it through ``as_complex_matrix`` (square,
non-empty, finite, one ``np.isfinite`` pass), and ``io.load_matrix``
refuses a file whose entries or Frobenius norm leave float64.  Inside
the package, a step that receives arrays its caller already validated
takes them as trusted and does not check them again: the private
steps behind ``solve_biorthogonal`` and the symmetry checks, which
``diagnose`` and ``build_bundle`` call directly;
``diagnose`` measures ||H||_F once and hands it down, and ``build_bundle``
keeps ||Theta||_F for the quasi-Hermiticity check.  Matrices the
package derives itself (Theta, Q, C) are not re-validated between
steps; the checks that catch one that overflows are the solver's
residual caps, P's invertibility rule and the float64 gate of
``metric.build_bundle`` (which reads ||Theta||_F).  Each is validated
once more where it leaves the package: ``io.save_matrix`` passes it
through ``as_complex_matrix``, and ``io.complex_pairs`` refuses a
non-finite part of any array a report prints.
Theta is exactly Hermitian where ``metric.build_metric`` makes it, so
no step tests or symmetrizes it again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceFailure, DimensionMismatch

ComplexMatrix = NDArray[np.complex128]


@dataclass(frozen=True)
class Tolerance:
    """The relative tolerance every verdict reads.

    A relative residual holds when it is at most ``rel``; an absolute
    quantity, when it is at most ``rel`` times its own scale.
    """

    rel: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 <= self.rel < math.inf:  # NaN fails too
            raise ValueError("tolerance must be finite and non-negative")


DEFAULT_TOL = Tolerance()


def as_complex_matrix(m, name: str = "matrix") -> ComplexMatrix:
    """Coerce to a square complex128 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(a)


def frobenius(m: ComplexMatrix) -> float:
    """Frobenius norm, the only norm used for residuals.

    The fast path ``np.linalg.norm`` itself takes for a matrix, without
    its argument dispatch: the real and imaginary parts of the flattened
    array dotted with themselves, summed, one square root.  Same float
    operations in the same order, so the same bits and the same overflow
    warnings.
    """
    x = np.asarray(m).ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _same_shape(a: ComplexMatrix, b: ComplexMatrix) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def _unit_factor(scale: float) -> float:
    """2**-e for a positive ``scale`` = m 2**e with 0.5 <= m < 1, capped at 2**1023.

    Scaling by a power of two is exact away from subnormals: a norm taken
    after it, and compared or divided at that scale, has the bits it has
    without it wherever its squares stay in float64, and a matrix no
    larger than ``scale`` keeps its squares in float64 after it.
    """
    return math.ldexp(1.0, -max(math.frexp(scale)[1], -1023))


def _relative(residual, scale: float) -> float:
    """||residual||_F / scale, the one residual quotient.

    Both are first multiplied by the power of two that brings ``scale``
    near 1, so the squares inside the norm stay in float64 wherever the
    quotient's square does (a quotient up to about 1e154), and the
    quotient has the unscaled bits wherever the unscaled squares stayed
    in float64 too; where they did not, it is the accurate value the
    unscaled form loses.  The residual is scaled in place: every caller
    passes a temporary it has just formed.  A zero-scale problem has
    nothing to violate.
    """
    if not scale > 0.0:
        return 0.0
    factor = _unit_factor(scale)
    residual *= factor
    return frobenius(residual) / (scale * factor)


def _hermitian(a: ComplexMatrix, tol: Tolerance) -> bool:
    # the one Hermiticity test, on a trusted array: ||A - A^dag||_F <= rel ||A||_F
    # measured at unit scale: the factor comes from the largest real or imaginary
    # part, so neither ||A||_F^2 nor ||A - A^dag||_F^2 overflows, and the verdict is
    # the unscaled one in range; ||B||_F is taken first, then B - B^dag in B's own buffer
    b = a * _unit_factor(np.abs(a.ravel(order="K").view(np.float64)).max())
    bnorm = frobenius(b)
    b -= b.conj().T
    return frobenius(b) <= tol.rel * bnorm


#: float64 machine epsilon, read once
_EPS = float(np.finfo(np.float64).eps)


def resolved_positive(w: NDArray[np.float64]) -> bool:
    """The positivity rule on ascending eigenvalues ``w``: w[0] > n * eps * w[-1].

    ``n * eps * lambda_max`` is the backward-error limit of the Hermitian
    eigensolver: anything above it is a positive eigenvalue, however
    ill-conditioned the matrix (a metric Theta close to an exceptional
    point has lambda_min ~ disc * ||Theta||).
    """
    return bool(w[0] > w.size * _EPS * w[-1])


def eig(m) -> tuple[NDArray[np.complex128], ComplexMatrix]:
    """Full eigendecomposition with a deterministic ordering.

    Returns ``(values, vectors)`` where eigenvalues come ascending by
    (real, imaginary) and ``vectors[:, k]`` is the eigenvector for
    ``values[k]``, as ``np.linalg.eig`` returns it.  For complex128
    input that is LAPACK's ZGEEV, which leaves each column with unit
    Euclidean norm and its largest-modulus component real positive
    (LAPACK Users' Guide, 3rd ed., xGEEV); the columns are only
    reordered here, not normalized again.
    """
    a = as_complex_matrix(m)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    return values[order], np.ascontiguousarray(vectors[:, order])
