"""Reference model families and their pseudo-metric candidates.

Two families are built here: the two-level matrix

    [[a, b], [-conj(b), d]]        (a, d real, b complex)

whose reality domain is controlled by the discriminant
``(a - d)^2 - 4|b|^2``, and the cyclic three-level matrix

    [[a, b, conj(b)], [conj(b), a, b], [b, conj(b), a]]   (a real)

together with the cyclic-shift candidates ``cyclic_p(n)`` and the two
Hermitian combinations built from a candidate: the plain sum ``P + P*``
and the one-parameter rotation ``i (P e^{i t} - P* e^{-i t})``.

``invertibility_refusal`` is the one invertibility rule, read off a
matrix's descending singular values: ``PseudoMetric`` applies it to its
one SVD, and ``hermitian_partners`` to each Hermitian partner of a scan.
A partner is zero up to rounding when its largest singular value is at
most its zero floor, ``ZERO_FLOOR_EPS`` eps ||P||_F of the candidate P it
was formed from; a candidate given directly has floor 0, since nothing
was rounded in forming it.  The floor scales with P, so no verdict
depends on the scale of P.
The scan validates P once and takes the singular values of its rotations
from stacked ``np.linalg.svd(..., compute_uv=False)`` calls, each stack
built and dropped before the next under PARTNER_STACK_ENTRIES, so a long
scan of a large P holds one stack at a time.  ``hermitian_rotation``
builds its matrix with the same broadcast expression, and the stacked
SVD returns the bits of one SVD per matrix, so the scan reports what
``hermitian_sum`` and ``hermitian_rotation`` report, bit for bit.

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
from itertools import chain

import numpy as np

from .errors import SingularMatrix
from .h2 import DomainTag, _complex_scalar, _h2_invariants, _h2_params, _h2_point, _real_scalar
from .linalg import (
    _EPS,
    DEFAULT_TOL,
    ComplexMatrix,
    Tolerance,
    _hermitian,
    _relative,
    as_complex_matrix,
    frobenius,
)

#: refuse a candidate whose 2-norm condition number exceeds this
CONDITION_CAP = 1e12

#: a Hermitian partner of P whose largest singular value is at most this many eps
#: times ||P||_F is zero up to rounding: the closed-form test of the partners of the
#: cyclic shift in tests/test_models.py holds every partner's singular values to
#: this many eps of the exact ones, and ||P||_F is at least ||P||_2
ZERO_FLOOR_EPS = 8

#: complex entries in one stack of Hermitian partners (2**14, 256 KiB); a P
#: with more entries than this is scanned one partner per SVD call
PARTNER_STACK_ENTRIES = 2 ** 14


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


def _condition(sv) -> float:
    # sv_max / sv_min of descending singular values, inf for a singular matrix,
    # as np.linalg.cond gives it
    return float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else float("inf")


def invertibility_refusal(sv, floor: float = 0.0) -> str | None:
    """Why a matrix with descending singular values ``sv`` is not invertible, or None.

    The one invertibility rule: sv_max / sv_min is finite and at most
    CONDITION_CAP, sv_max exceeds the zero ``floor`` (at or below it the
    matrix is zero up to rounding, whatever its condition: a Hermitian
    partner's floor is ZERO_FLOOR_EPS eps ||P||_F of the P it was formed
    from, and a candidate given directly has floor 0), and 1 / sv_min is
    finite, so an inverse would stay inside float64.  The checks run in
    that order, and the first that fails names the refusal.
    """
    if not _condition(sv) <= CONDITION_CAP:  # inf for a singular matrix
        return f"condition estimate {_condition(sv):.3e} exceeds cap {CONDITION_CAP:.0e}"
    if sv[0] <= floor:
        return (f"largest singular value {float(sv[0]):.3e} at or below the floor "
                f"{floor:.3e}: zero up to rounding")
    if not math.isfinite(1.0 / float(sv[-1])):
        return f"smallest singular value {float(sv[-1]):.3e}: the inverse leaves float64"
    return None


@dataclass(frozen=True, eq=False)  # holds arrays: compared and hashed by identity
class PseudoMetric:
    """A candidate intertwiner, with its structural verdicts computed on first read.

    ``matrix`` is the candidate itself and ``tol`` the tolerance its
    verdicts use; ``from_matrix`` only validates and stores them, and
    returns a ``PseudoMetric`` it is given unchanged.  Each
    verdict is computed the first time it is read and then kept, so a
    caller pays only for what it reads, and at most once per candidate.
    One exact test says whether P equals its adjoint bit for bit: the P
    equation reads it to take one product instead of two, and
    ``self_adjoint`` returns True on it, since such a P passes every
    tolerance; otherwise ``self_adjoint`` is ``linalg.is_hermitian``
    under ``tol``.  ``norm`` is ||P||_F, read by the P equation and the
    overlap floor.
    One SVD gives ``smallest_singular_value``, ``condition`` (sv_max /
    sv_min, bit for bit ``np.linalg.cond``) and ``negligible`` (sv_max is
    at most ``floor``, so the matrix is zero up to rounding whatever its
    condition).  ``floor`` is 0 for a candidate given directly, and
    ZERO_FLOOR_EPS eps ||P||_F for a Hermitian partner of P that
    ``hermitian_sum`` or ``hermitian_rotation`` formed.  A partner can
    legitimately be singular, so ``invertible`` is a reported fact rather
    than an invariant: it is ``invertibility_refusal`` of that SVD and
    ``floor``, the one invertibility rule (``condition`` is finite and at
    most CONDITION_CAP, the candidate is not ``negligible``, and 1 / sv_min
    is finite).
    Nothing inverts P: the symmetry checks measure the P equation in
    multiplicative form, which a singular P (P = 0, for one) satisfies
    trivially, so every P-side check calls ``check_condition`` first.
    """

    matrix: ComplexMatrix
    tol: Tolerance
    floor: float = 0.0

    @cached_property
    def _exactly_self_adjoint(self) -> bool:
        # P equals its adjoint bit for bit: the P equation then takes one product,
        # and self_adjoint holds under every tolerance
        m = self.matrix
        return bool((m == m.conj().T).all())

    @cached_property
    def self_adjoint(self) -> bool:
        """P equals its adjoint within ``tol``."""
        return self._exactly_self_adjoint or _hermitian(self.matrix, self.tol)

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
        return _condition(self._singular_values)

    @cached_property
    def negligible(self) -> bool:
        """sv_max is at most ``floor``: the matrix is zero up to rounding."""
        return bool(self._singular_values[0] <= self.floor)

    @property
    def invertible(self) -> bool:
        """True when P passes the one invertibility rule, ``invertibility_refusal``."""
        return invertibility_refusal(self._singular_values, self.floor) is None

    def check_condition(self) -> None:
        """Raise SingularMatrix when the candidate is not ``invertible``.

        The one invertibility test: every P-side symmetry check, ``diagnose``
        and the CLI's ``metric`` call it before they read the candidate.
        """
        refusal = invertibility_refusal(self._singular_values, self.floor)
        if refusal is not None:
            raise SingularMatrix(refusal, condition=self.condition)

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOL) -> "PseudoMetric":
        """The candidate ``m`` under ``tol``; a ``PseudoMetric`` is returned unchanged.

        The one door by which P enters the library: a ``PseudoMetric``
        keeps its own ``tol`` and every verdict it has already computed,
        so ``tol`` is ignored for it.  Any other ``m`` must be a finite
        square matrix (``linalg.as_complex_matrix``); nothing else is
        computed here: the SVD, the condition number and the Hermiticity
        test wait until a verdict is read.
        """
        if isinstance(m, PseudoMetric):
            return m
        return cls(matrix=as_complex_matrix(m, "pseudometric"), tol=tol)


def _zero_floor(a: ComplexMatrix) -> float:
    # ZERO_FLOOR_EPS eps ||P||_F of a trusted candidate: a Hermitian partner of it whose
    # largest singular value is at most this is zero up to rounding.  ||P||_F is taken
    # as its largest entry's modulus times the quotient of the two at unit scale, so
    # the floor is finite wherever the norm is, and 2^k P has 2^k times the floor of P
    # away from subnormals
    largest = float(np.abs(a).max())
    return ZERO_FLOOR_EPS * _EPS * largest * _relative(a.copy(), largest)


def hermitian_sum(p) -> PseudoMetric:
    """Self-adjoint combination P + adjoint(P), under the zero floor of P.

    Always Hermitian; singular whenever the candidate has an eigenvalue
    on the imaginary axis (the 4-cycle shift is the canonical example).
    """
    a = as_complex_matrix(p, "pseudometric")
    # a sum that leaves float64 is refused as from_matrix refuses it, not warned about
    # on the way
    with np.errstate(over="ignore", invalid="ignore"):
        return PseudoMetric(as_complex_matrix(a + a.conj().T, "pseudometric"), DEFAULT_TOL,
                            _zero_floor(a))


def hermitian_rotation(p, theta) -> PseudoMetric:
    """Self-adjoint family i*(P e^{i theta} - P* e^{-i theta}), under the zero floor of P.

    For a self-adjoint candidate this degenerates to -2 sin(theta) P at
    every angle; for the n-cycle shift the eigenvalues are
    -2 sin(theta - 2 pi k / n), so the family is singular exactly when
    theta hits a multiple of pi shifted by 2 pi k / n.
    """
    a = as_complex_matrix(p, "pseudometric")
    # a rotation that leaves float64 is refused as from_matrix refuses it, not warned
    # about on the way
    with np.errstate(over="ignore", invalid="ignore"):
        return PseudoMetric(as_complex_matrix(_rotations(a, [theta])[0], "pseudometric"),
                            DEFAULT_TOL, _zero_floor(a))


def hermitian_partners(p, thetas) -> list[tuple[float, bool]]:
    """(smallest singular value, invertible) of P + P*, then of each rotation in ``thetas``.

    The singularity scan of P's Hermitian partners: entry 0 is
    ``hermitian_sum(p)``'s pair and entry k + 1 is
    ``hermitian_rotation(p, thetas[k])``'s, bit for bit, with
    ``invertible`` decided by ``invertibility_refusal`` under the zero
    floor of P, taken once.  P is validated once, and every angle of the
    sequence ``thetas`` must be a finite real.  The rotations' singular
    values come in stacks of as many rotations as fit in
    PARTNER_STACK_ENTRIES entries (at least one), each built and dropped
    before the next; no ``PseudoMetric`` is built.  A
    stack holding a partner that leaves float64 raises the ValueError
    that ``hermitian_sum`` or ``hermitian_rotation`` raises for it.
    """
    a = as_complex_matrix(p, "pseudometric")
    floor = _zero_floor(a)
    step = max(1, PARTNER_STACK_ENTRIES // a.size)
    # a partner that leaves float64 is refused by _finite, not warned about on the way
    with np.errstate(over="ignore", invalid="ignore"):
        # a generator: each stack is built when its SVD asks for it, and dropped after
        stacks = chain([(a + a.conj().T)[None]],
                       (_rotations(a, thetas[i:i + step]) for i in range(0, len(thetas), step)))
        return [(float(sv[-1]), invertibility_refusal(sv, floor) is None)
                for stack in stacks for sv in np.linalg.svd(_finite(stack), compute_uv=False)]


def _rotations(a: ComplexMatrix, thetas):
    # i (A e^{i t} - A* e^{-i t}) of a trusted array at each angle, which must be a
    # finite real, as one (K, N, N) stack.  With M = A e^{i t} = U + iV it is
    # i ((U - U^T) + i (V + V^T)), with U and V formed in real arithmetic: numpy's
    # complex product takes a fused multiply-add on some loops and not on others,
    # so its last bit would depend on how many angles share the stack.  Each entry
    # is one sequence of rounded real operations whatever the stack holds (the
    # product by i is exact), and the result is Hermitian bit for bit
    phase = np.exp(1j * np.array([_real_scalar(t, "theta") for t in thetas]))[:, None, None]
    x, y = a.real, a.imag
    u, v = x * phase.real - y * phase.imag, x * phase.imag + y * phase.real
    w = np.stack((u - u.transpose(0, 2, 1), v + v.transpose(0, 2, 1)), axis=-1)
    return 1j * w.view(np.complex128)[..., 0]


def _finite(stack):
    # a stack of Hermitian partners, refused in the words PseudoMetric.from_matrix
    # refuses one partner that leaves float64
    if not np.isfinite(stack).all():
        raise ValueError("pseudometric contains non-finite entries")
    return stack
