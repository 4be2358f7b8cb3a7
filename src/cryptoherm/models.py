"""Reference model families and their pseudo-metric candidates.

Two families are built here: the two-level matrix

    [[a, b], [-conj(b), d]]        (a, d real, b complex)

whose reality domain is controlled by the discriminant
``(a - d)^2 - 4|b|^2``, and the cyclic three-level matrix

    [[a, b, conj(b)], [conj(b), a, b], [b, conj(b), a]]   (a real)

together with the cyclic-shift candidates ``cyclic_p(n)`` and the two
Hermitian combinations built from a candidate: the plain sum ``P + P*``
and the one-parameter rotation ``i (P e^{i t} - P* e^{-i t})``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .linalg import (
    ComplexMatrix,
    DEFAULT_TOL,
    Tolerance,
    as_complex_matrix,
    frobenius,
    is_hermitian,
)

DomainTag = Literal["interior", "exterior", "boundary"]

#: default boundary band is this factor times (|a| + |d| + |b|)^2
BOUNDARY_BAND_FACTOR = 1e-9

#: refuse to invert a candidate whose 2-norm condition number exceeds this
CONDITION_CAP = 1e12


def _real_scalar(x, name: str) -> float:
    xc = complex(x)
    if xc.imag != 0.0:
        raise ValueError(f"{name} must be real, got {x!r}")
    if not np.isfinite(xc.real):
        raise ValueError(f"{name} must be finite")
    return xc.real


def _complex_scalar(x, name: str) -> complex:
    xc = complex(x)
    if not (np.isfinite(xc.real) and np.isfinite(xc.imag)):
        raise ValueError(f"{name} must be finite")
    return xc


@dataclass(frozen=True)
class DomainClass:
    """Reality-domain verdict for the two-level model."""

    tag: DomainTag
    discriminant: float
    boundary_band: float


def build_h2(a, d, b) -> ComplexMatrix:
    """Two-level model matrix [[a, b], [-conj(b), d]]."""
    ar = _real_scalar(a, "a")
    dr = _real_scalar(d, "d")
    bc = _complex_scalar(b, "b")
    return np.array([[ar, bc], [-np.conj(bc), dr]], dtype=np.complex128)


def discriminant_h2(a, d, b) -> float:
    """(a - d)^2 - 4|b|^2; positive means two real eigenvalues.

    Raises OverflowError when the value leaves float64, whether Python
    raises it on the way or the difference a - d already overflowed.
    """
    ar = _real_scalar(a, "a")
    dr = _real_scalar(d, "d")
    bc = _complex_scalar(b, "b")
    disc = (ar - dr) ** 2 - 4.0 * abs(bc) ** 2
    if not math.isfinite(disc):
        raise OverflowError(f"discriminant of a = {ar!r}, d = {dr!r}, b = {bc!r} overflows")
    return disc


def classify_h2(a, d, b, boundary_band: float | None = None) -> DomainClass:
    """Classify (a, d, b) against the exceptional boundary 2|b| = |a - d|.

    The boundary band defaults to ``1e-9 * (|a| + |d| + |b|)^2`` so the
    verdict scales with the square of the parameters, just like the
    discriminant does.
    """
    disc = discriminant_h2(a, d, b)
    if boundary_band is None:
        scale = abs(_real_scalar(a, "a")) + abs(_real_scalar(d, "d")) + abs(complex(b))
        boundary_band = BOUNDARY_BAND_FACTOR * scale**2
    band = float(boundary_band)
    if band < 0:
        raise ValueError("boundary_band must be non-negative")
    if abs(disc) <= band:
        tag: DomainTag = "boundary"
    elif disc > 0:
        tag = "interior"
    else:
        tag = "exterior"
    return DomainClass(tag=tag, discriminant=disc, boundary_band=band)


def parity2() -> ComplexMatrix:
    """diag(1, -1), the self-adjoint two-level candidate."""
    return np.diag([1.0 + 0j, -1.0 + 0j])


def swap2() -> ComplexMatrix:
    """[[0, 1], [1, 0]], the off-diagonal two-level candidate."""
    return np.array([[0, 1], [1, 0]], dtype=np.complex128)


def cyclic_p(n: int) -> ComplexMatrix:
    """Cyclic shift candidate: ones at (0, n-1) and (i, i-1) for i >= 1.

    Unitary but not self-adjoint for n >= 3, with inverse equal to its
    adjoint and order n.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"cyclic size must be an integer >= 2, got {n!r}")
    p = np.zeros((n, n), dtype=np.complex128)
    p[0, n - 1] = 1.0
    for i in range(1, n):
        p[i, i - 1] = 1.0
    return p


def build_h3(a, b) -> ComplexMatrix:
    """Cyclic three-level matrix [[a, b, b*], [b*, a, b], [b, b*, a]]."""
    ar = _real_scalar(a, "a")
    bc = _complex_scalar(b, "b")
    bb = np.conj(bc)
    return np.array(
        [[ar, bc, bb], [bb, ar, bc], [bc, bb, ar]],
        dtype=np.complex128,
    )


@dataclass(frozen=True)
class PseudoMetric:
    """A candidate intertwiner together with its structural verdicts.

    ``matrix`` is the candidate itself; the flags record which of the
    properties a well-behaved candidate may (but need not) enjoy were
    actually verified at construction time.  ``hermitian_sum`` can
    legitimately produce a singular matrix, so ``invertible`` is a
    reported fact rather than an invariant.

    The candidate's one SVD is taken in ``from_matrix``: it gives
    ``smallest_singular_value``, ``invertible`` and ``condition``
    (sv_max / sv_min, bit for bit ``np.linalg.cond``) and ``unitary``
    (||adjoint(P) P - I||_F = ||sv^2 - 1||_2).  ``inverse`` is computed
    from the matrix on first use and then kept, so every symmetry check
    on one candidate shares a single inversion, and callers that never
    need it never pay for it.  P is the only matrix the package inverts
    under a condition cap: a ``condition`` that is not finite or exceeds
    CONDITION_CAP makes ``inverse`` raise SingularMatrix.
    """

    matrix: ComplexMatrix
    self_adjoint: bool
    unitary: bool
    involutive: bool
    invertible: bool
    smallest_singular_value: float
    condition: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def inverse(self) -> ComplexMatrix:
        """inverse(P), refused with SingularMatrix above CONDITION_CAP."""
        cond = self.condition
        if not np.isfinite(cond) or cond > CONDITION_CAP:
            raise SingularMatrix(
                f"condition estimate {cond:.3e} exceeds cap {CONDITION_CAP:.0e}",
                condition=cond,
            )
        try:
            return np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - cond cap hits first
            raise SingularMatrix(f"inversion failed: {exc}") from exc

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOL) -> "PseudoMetric":
        a = as_complex_matrix(m, "pseudometric")
        scale = frobenius(a) ** 2
        sv = np.linalg.svd(a, compute_uv=False)
        return cls(
            matrix=a,
            self_adjoint=is_hermitian(a, tol),
            unitary=frobenius(sv**2 - 1.0) <= tol.bound(scale),
            involutive=frobenius(a @ a - np.eye(a.shape[0])) <= tol.bound(scale),
            invertible=bool(sv[-1] > tol.bound(float(sv[0]))),
            smallest_singular_value=float(sv[-1]),
            # np.linalg.cond also reports inf for a singular matrix
            condition=float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else float("inf"),
        )


def hermitian_sum(p, tol: Tolerance = DEFAULT_TOL) -> PseudoMetric:
    """Self-adjoint combination P + adjoint(P).

    Always Hermitian; singular whenever the candidate has an eigenvalue
    on the imaginary axis (the 4-cycle shift is the canonical example).
    """
    a = as_complex_matrix(p, "pseudometric")
    return PseudoMetric.from_matrix(a + a.conj().T, tol)


def hermitian_rotation(p, theta, tol: Tolerance = DEFAULT_TOL) -> PseudoMetric:
    """Self-adjoint one-parameter family i*(P e^{i theta} - P* e^{-i theta}).

    For a self-adjoint candidate this degenerates to -2 sin(theta) P at
    every angle; for the n-cycle shift the eigenvalues are
    -2 sin(theta - 2 pi k / n), so the family is singular exactly when
    theta hits a multiple of pi shifted by 2 pi k / n.
    """
    a = as_complex_matrix(p, "pseudometric")
    th = _real_scalar(theta, "theta")
    phase = np.exp(1j * th)
    return PseudoMetric.from_matrix(1j * (a * phase - a.conj().T * np.conj(phase)), tol)
