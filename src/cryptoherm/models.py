"""Reference model families and their pseudo-metric candidates.

Two families are built here: the two-level matrix

    [[a, b], [-conj(b), d]]        (a, d real, b complex)

whose reality domain is controlled by the discriminant
``(a - d)^2 - 4|b|^2``, and the cyclic three-level matrix

    [[a, b, conj(b)], [conj(b), a, b], [b, conj(b), a]]   (a real)

together with the cyclic-shift candidates ``cyclic_p(n)`` and the two
Hermitian combinations built from a candidate: the plain sum ``P + P*``
and the one-parameter rotation ``i (P e^{i t} - P* e^{-i t})``.

``discriminant_h2`` and ``classify_h2`` validate their arguments and
call the two-level kernel of ``h2``, which ``sweep_h2`` calls once per
grid point, so a point and its sweep row share every bit.
``classify_h2`` fills its ``DomainClass`` without the frozen
``__init__``; the instance is the same.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularMatrix
from .h2 import DomainTag, _complex_scalar, _h2_invariants, _h2_params, _h2_point, _real_scalar
from .linalg import DEFAULT_TOL, ComplexMatrix, Tolerance, _hermitian, as_complex_matrix, frobenius

#: refuse a candidate whose 2-norm condition number exceeds this
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class DomainClass:
    """Reality-domain verdict for the two-level model."""

    tag: DomainTag
    discriminant: float
    boundary_band: float


def build_h2(a, d, b) -> ComplexMatrix:
    """Two-level model matrix [[a, b], [-conj(b), d]]."""
    ar, dr, bc = _h2_params(a, d, b)
    return np.array([[ar, bc], [-np.conj(bc), dr]], dtype=np.complex128)


def discriminant_h2(a, d, b) -> float:
    """(a - d)^2 - 4|b|^2; positive means two real eigenvalues.

    Raises OverflowError when the value leaves float64, whether Python
    raises it on the way or the difference a - d already overflowed.
    """
    ar, dr, bc = _h2_params(a, d, b)
    diff2, sum_ad = _h2_invariants(ar, dr)
    # a given band skips the default one, which can overflow where the discriminant does not
    return _h2_point(diff2, sum_ad, abs(bc), band=0.0)[0]


def classify_h2(a, d, b) -> DomainClass:
    """Classify (a, d, b) against the exceptional boundary 2|b| = |a - d|.

    The boundary band is fixed at ``1e-9 * (|a| + |d| + |b|)^2``, so the
    verdict scales with the square of the parameters, just like the
    discriminant does.  Raises OverflowError where ``discriminant_h2``
    does, or where that band overflows.
    """
    ar, dr, bc = _h2_params(a, d, b)
    diff2, sum_ad = _h2_invariants(ar, dr)
    disc, tag, band = _h2_point(diff2, sum_ad, abs(bc))
    # the frozen __init__ stores each field through object.__setattr__; filling
    # __dict__ in field order gives the keyword-built instance's vars, repr, == and hash
    dc = object.__new__(DomainClass)
    fields = dc.__dict__
    fields["tag"], fields["discriminant"], fields["boundary_band"] = tag, disc, band
    return dc


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
    p[np.arange(n), np.arange(n) - 1] = 1.0
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
    """A candidate intertwiner, with its structural verdicts computed on first read.

    ``matrix`` is the candidate itself and ``tol`` the tolerance its
    verdicts use; ``from_matrix`` only validates and stores them.  Each
    verdict is computed the first time it is read and then kept, so a
    caller pays only for what it reads, and at most once per candidate.
    ``self_adjoint`` is ``linalg.is_hermitian`` under ``tol``, and
    ``norm`` is ||P||_F, read by the P equation and the overlap floor.
    One SVD gives ``smallest_singular_value``, ``condition`` (sv_max /
    sv_min, bit for bit ``np.linalg.cond``) and ``negligible`` (sv_max is
    within ``tol.abs``, so the matrix is zero up to rounding whatever its
    condition).  ``hermitian_sum`` can legitimately produce a singular
    matrix, so ``invertible`` is a reported fact rather than an
    invariant: it is the one invertibility rule, ``condition`` is finite
    and at most CONDITION_CAP, the candidate is not ``negligible``, and
    1 / sv_min is finite, so an inverse would stay inside float64.
    Nothing inverts P: the symmetry checks measure the P equation in
    multiplicative form, which a singular P (P = 0, for one) satisfies
    trivially, so every P-side check calls ``check_condition`` first.
    """

    matrix: ComplexMatrix
    tol: Tolerance

    @cached_property
    def self_adjoint(self) -> bool:
        """P equals its adjoint within ``tol``."""
        return _hermitian(self.matrix, self.tol)

    @cached_property
    def norm(self) -> float:
        """||P||_F."""
        return frobenius(self.matrix)

    @cached_property
    def _singular_values(self):
        # descending; the one SVD behind condition, negligible and smallest_singular_value
        return np.linalg.svd(self.matrix, compute_uv=False)

    @cached_property
    def smallest_singular_value(self) -> float:
        return float(self._singular_values[-1])

    @cached_property
    def condition(self) -> float:
        """sv_max / sv_min, inf for a singular matrix, as ``np.linalg.cond`` gives it."""
        sv = self._singular_values
        return float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else float("inf")

    @cached_property
    def negligible(self) -> bool:
        """sv_max is within ``tol.abs``: the matrix is zero up to rounding."""
        return bool(self._singular_values[0] <= self.tol.abs)

    @property
    def invertible(self) -> bool:
        """True when P passes the one invertibility rule.

        ``condition`` is finite and at most CONDITION_CAP, P is not
        negligible, and 1 / sv_min is finite.
        """
        return self._refusal() is None

    def _refusal(self) -> str | None:
        if not self.condition <= CONDITION_CAP:  # inf for a singular matrix
            return f"condition estimate {self.condition:.3e} exceeds cap {CONDITION_CAP:.0e}"
        if self.negligible:
            return "largest singular value within the absolute tolerance: zero up to rounding"
        if not math.isfinite(1.0 / self.smallest_singular_value):
            return (f"smallest singular value {self.smallest_singular_value:.3e}: "
                    "the inverse leaves float64")
        return None

    def check_condition(self) -> None:
        """Raise SingularMatrix when the candidate is not ``invertible``.

        The one invertibility test: every P-side symmetry check, ``diagnose``
        and the CLI's ``metric`` call it before they read the candidate.
        """
        refusal = self._refusal()
        if refusal is not None:
            raise SingularMatrix(refusal, condition=self.condition)

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOL) -> "PseudoMetric":
        """The candidate ``m`` under ``tol``.

        ``m`` must be a finite square matrix (``linalg.as_complex_matrix``);
        nothing else is computed here: the SVD, the condition number and
        the Hermiticity test wait until a verdict is read.
        """
        return cls(matrix=as_complex_matrix(m, "pseudometric"), tol=tol)


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
    return _rotation(a, _real_scalar(theta, "theta"), tol)


def _rotation(a: ComplexMatrix, theta: float, tol: Tolerance) -> PseudoMetric:
    # hermitian_rotation of a trusted array at a validated real angle
    phase = np.exp(1j * theta)
    return PseudoMetric.from_matrix(1j * (a * phase - a.conj().T * np.conj(phase)), tol)
