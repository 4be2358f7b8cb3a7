"""Quasiparity, charge and metric construction with factorization checks.

Everything here is a spectral sum over one biorthogonal system.  With
its kappa = 1 columns written r_n, l_n (the system's ``right`` and
``left``, which nothing rescales) and its normalization factors kappa_n,
the three operators are

    Q = sum_n r_n q_n adjoint(l_n)                 q_n = q1_n / |kappa_n|^2
    C = sum_n l_n q_n adjoint(r_n)                 q1_n = 1 / <r_n | P | r_n>
    Theta = sum_n l_n |kappa_n|^-2 adjoint(l_n)

so kappa is a per-level weight: ``build_bundle`` reads it once, as
|kappa_n|^2, and no bit depends on its phases.  In Q and C it cancels
between the coefficient and the rank-one term, as it would between
kappa_n r_n and adjoint(l_n / conj(kappa_n)).  The charge coefficients are
c_n = conj(q_n) by definition, since <v|adjoint(P)|v> = conj(<v|P|v>),
so only q_n is stored and reports print q_n only.
Each sum is one matrix product, and reruns on the same input are
byte-identical at a fixed BLAS thread count.  ``build_bundle`` is the one
builder of Q, C and q; callers read them from its bundle.

Theta is exactly Hermitian wherever it is made: ``build_metric``
returns the Hermitian part of the sum, so nothing downstream tests or
symmetrizes it again.  The factorization identities Theta = P Q = C P
= adjoint(Q) adjoint(P) = adjoint(P) adjoint(C) hold exactly when P
intertwines H with its adjoint; every residual is normalized by
||Theta||_F through ``linalg._relative``, the one residual quotient.
``build_bundle`` measures only P Q and C P against its Theta: that
Theta equals its adjoint bit for bit, so its hermiticity residual is 0
and each adjoint residual is its product's, and none of them is kept.
Each product's difference is taken in the product's own buffer, one
product at a time.

Two gates decide whether a bundle stands, and both live here.  The
float64 gate: ``build_bundle`` refuses, with ZeroKappa, a kappa_n whose
|kappa_n|^2 or its inverse leaves float64, naming the first such level;
it then runs its sums without numpy's overflow warnings and refuses a
bundle unless 0 < ||Theta||_F < inf (a norm that overflows or
underflows to zero leaves every residual undefined) and both residuals
are finite (which they are only when Q, C and the coefficients are),
and one with a coefficient that underflows to zero, which has left
float64 as well; that refusal names the first such level.  P enters
through ``PseudoMetric.from_matrix``, which returns a ``PseudoMetric``
unchanged.
The involution gate: ``MetricBundle.involution_residuals`` measures
||Q^2 - 1||_F and ||C^2 - 1||_F on first read, and ``involutions_hold``
compares them with INVOLUTIVITY_TOL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .biortho import BiorthogonalSystem, _minus_identity_norm
from .errors import (
    DimensionMismatch,
    NonRealQuasiparity,
    VanishingOverlap,
    ZeroKappa,
)
from .linalg import ComplexMatrix, _relative, frobenius
from .models import PseudoMetric

#: overlaps smaller than this times ||P||_F * ||v||^2 are refused
OVERLAP_FACTOR = 1e-10

#: relative imaginary part above which a coefficient is not "real"
REALITY_REL = 1e-10

#: factorization residuals above this fail a bundle's verdict
FACTORIZATION_TOL = 1e-9

#: involution residuals above this fail the involutive-mode verdict
INVOLUTIVITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)  # holds arrays: compared and hashed by identity
class MetricBundle:
    """All operators built from one system plus their identity residuals.

    ``theta`` is exactly Hermitian, as ``build_metric`` makes it.  ``q``
    holds the quasiparity coefficients q_n; the charge coefficients
    c_n = conj(q_n) are not stored.
    ``residuals`` holds "pq" and "cp", the two identities that theta
    leaves to measure (its hermiticity residual is 0, and the adjoint
    residuals are "pq" and "cp").
    ``theta_norm`` is ||theta||_F, finite and nonzero (the float64 gate
    of ``build_bundle`` reads it), measured once for the residuals and
    read again by the quasi-Hermiticity check.  ``right`` and ``kappa`` are
    the system's kappa = 1 right columns R and its kappa, both held by
    reference: theta = L diag(1/|kappa|^2) adjoint(L) with
    L = adjoint(inverse(R)), so ``theta_eigenvalues`` is read off the
    singular values of R diag(|kappa|), on first use and then kept;
    ``involution_residuals`` is kept the same way.
    """

    theta: ComplexMatrix
    quasiparity: ComplexMatrix
    charge: ComplexMatrix
    q: NDArray[np.complex128]
    residuals: Mapping[str, float]
    theta_norm: float
    right: ComplexMatrix
    kappa: NDArray[np.complex128]

    @cached_property
    def theta_eigenvalues(self) -> NDArray[np.float64]:
        """Ascending eigenvalues of theta, 1/sigma_n(M)^2 from one values-only SVD of M.

        M = R diag(|kappa|), whose inverse adjoint is the weighted left
        columns: theta = adjoint(inverse(M)) inverse(M).

        Each singular value carries full relative accuracy, so the smallest
        eigenvalue 1/sigma_max(M)^2 does too, where an eigensolve of the
        formed theta is accurate only to about eps * lambda_max (Demmel &
        Veselic, SIAM J. Matrix Anal. Appl. 13 (1992) 1204); the reciprocal
        is squared, not the singular value, so sigma^2 cannot overflow.
        """
        return np.reciprocal(np.linalg.svd(self.right * np.abs(self.kappa),
                                           compute_uv=False)) ** 2

    @property
    def factorizations_hold(self) -> bool:
        """Every residual is at most FACTORIZATION_TOL."""
        return max(self.residuals.values()) <= FACTORIZATION_TOL

    @cached_property
    def involution_residuals(self) -> tuple[float, float]:
        """||Q^2 - 1||_F and ||C^2 - 1||_F: how far Q and C are from involutions."""
        return (_minus_identity_norm(self.quasiparity @ self.quasiparity),
                _minus_identity_norm(self.charge @ self.charge))

    @property
    def involutions_hold(self) -> bool:
        """Both involution residuals are at most INVOLUTIVITY_TOL."""
        return max(self.involution_residuals) <= INVOLUTIVITY_TOL


def reference_quasiparity_coeffs(
    system: BiorthogonalSystem, p
) -> NDArray[np.complex128]:
    """Coefficients of the kappa = 1 system, before the weight 1/|kappa_n|^2.

    q1_n = 1 / <v_n|P|v_n> over the right columns v_n (unit norm, as the
    eigensolver returns them; the overlap does not depend on their
    phase).  An overlap below OVERLAP_FACTOR * ||P||_F
    * ||v_n||^2 raises VanishingOverlap naming the first such level;
    ||P||_F is the candidate's kept ``PseudoMetric.norm``.
    """
    cand = PseudoMetric.from_matrix(p)
    pm = cand.matrix
    if pm.shape[0] != system.dim:
        raise DimensionMismatch(
            f"candidate dimension {pm.shape[0]} != system dimension {system.dim}"
        )
    v = system.right
    pv = pm @ v
    overlaps = np.multiply(v.conj(), pv, out=pv).sum(axis=0)
    floors = OVERLAP_FACTOR * cand.norm * (np.abs(v) ** 2).sum(axis=0)
    small = (np.abs(overlaps) < floors).nonzero()[0]
    if small.size:
        n = int(small[0])
        raise VanishingOverlap(
            f"<v_{n}|P|v_{n}> = {overlaps[n]:.3e} below floor {floors[n]:.3e}; "
            "the metric would be singular along this direction",
            index=n,
            overlap=complex(overlaps[n]),
        )
    return 1.0 / overlaps


def nonreal_levels(q: NDArray[np.complex128]) -> tuple[NDArray[np.intp], NDArray[np.float64]]:
    """Levels whose relative imaginary part exceeds REALITY_REL, and all parts.

    The ratio |Im q_n| / |q_n| ignores any positive weight, so the
    weighted and the kappa = 1 coefficients give the same levels.
    """
    rel = np.abs(q.imag) / np.abs(q)
    return (rel > REALITY_REL).nonzero()[0], rel


def nonreal_warnings(q: NDArray[np.complex128]) -> list[str]:
    """The report warning for non-real coefficients: none, or one naming the levels."""
    bad, _ = nonreal_levels(q)
    if bad.size == 0:
        return []
    levels = ",".join(str(int(i)) for i in bad)
    return [f"non-real quasiparity at levels {levels}; no involutive rescaling exists"]


def _spectral_sum(
    kets: ComplexMatrix, weights: NDArray[np.complex128], bras: ComplexMatrix
) -> ComplexMatrix:
    """sum_n kets_n weights_n adjoint(bras_n)."""
    return (kets * weights[None, :]) @ bras.conj().T


def build_metric(system: BiorthogonalSystem) -> ComplexMatrix:
    """Theta = sum_n left_n |kappa_n|^-2 adjoint(left_n).

    Only the moduli of kappa enter.  Returned as the Hermitian part
    0.5 * (M + adjoint(M)) of the product M, formed in M's own buffer,
    which equals its adjoint bit for bit (the product itself need not)
    and is M exactly wherever M already is.  Positive definite by
    construction: left = adjoint(inverse(right)), so its eigenvalues are
    1/sigma_n(right diag(|kappa|))^2, which
    ``MetricBundle.theta_eigenvalues`` reads off.
    """
    return _metric(system.left, np.abs(system.kappa) ** 2)


def _metric(left: ComplexMatrix, kappa_sq: NDArray[np.float64]) -> ComplexMatrix:
    # build_metric with |kappa|^2 given.  The weight divides the conjugate copy of left
    # in place, so no other N x N array is made, and part by part in real arithmetic,
    # so a division by 1.0 keeps every bit, the sign of a zero included
    bras = left.conj()
    bras.real /= kappa_sq
    bras.imag /= kappa_sq
    m = left @ bras.T
    m += m.conj().T
    m *= 0.5
    return m


def involutive_normalization(
    system: BiorthogonalSystem, p
) -> tuple[NDArray[np.complex128], BiorthogonalSystem]:
    """Choose kappa so that the quasiparity coefficients become +-1.

    Returns the canonical kappa_n = sqrt(|q1_n|) (real positive, phases
    dropped since they affect nothing) together with the system that
    carries it.  Requires every reference coefficient q1_n to be real up to a
    relative imaginary part of 1e-10; otherwise no kappa works and
    NonRealQuasiparity reports the offending levels.
    """
    q1 = reference_quasiparity_coeffs(system, p)
    bad, rel_imag = nonreal_levels(q1)
    if bad.size:
        raise NonRealQuasiparity(
            "quasiparity coefficients are not real at levels "
            f"{bad.tolist()} (relative imaginary parts "
            f"{[float(rel_imag[i]) for i in bad]})",
            indices=tuple(bad.tolist()),
        )
    kappa = np.sqrt(np.abs(q1.real)).astype(np.complex128)
    return kappa, replace(system, kappa=kappa)


def build_bundle(system: BiorthogonalSystem, p) -> MetricBundle:
    """Assemble theta, Q, C, the coefficients q and the residual map at once.

    The one place that forms q_n = q1_n / |kappa_n|^2,
    Q = sum_n right_n q_n adjoint(left_n) (so Q right_n = q_n right_n)
    and C = sum_n left_n q_n adjoint(right_n) (so
    adjoint(C) right_n = conj(q_n) right_n), all from the one overlap
    pass that gives q1; the bundle keeps q, and conj(q) is not stored.
    The system's kappa enters as |kappa|^2, taken once, so its phases
    reach no bit.  The residual map holds
    "pq" and "cp": two products, P Q and C P, each measured against
    theta and then dropped; theta equals its adjoint bit for bit, so the
    other three identities leave nothing to measure.  The float64 gate:
    a kappa of the wrong shape raises DimensionMismatch, and a kappa_n
    whose |kappa_n|^2 or its inverse leaves float64 raises ZeroKappa
    naming the level; a bundle stands only if 0 < ||theta||_F < inf and
    the residuals are finite, and otherwise raises ZeroKappa, as does one
    with a coefficient that underflows to zero, naming the first such
    level.  ``p`` is a matrix or a ``PseudoMetric``.
    """
    p = PseudoMetric.from_matrix(p)  # coerced once: the coefficients take the candidate
    # a kappa or an operator that leaves float64 is refused, without numpy's warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kappa_sq = np.abs(system.kappa) ** 2
        # a zero, inf or NaN entry leaves |kappa_n|^2 or its inverse non-finite
        out_of_range = np.flatnonzero(~(np.isfinite(kappa_sq) & np.isfinite(1.0 / kappa_sq)))
        if kappa_sq.shape != (system.dim,):
            raise DimensionMismatch(
                f"kappa must have shape ({system.dim},), got {kappa_sq.shape}")
        if out_of_range.size:
            n = int(out_of_range[0])
            raise ZeroKappa(f"|kappa_{n}| = {abs(system.kappa[n]):.3e}: "
                            f"|kappa_{n}|^2 or its inverse leaves float64")
        q = reference_quasiparity_coeffs(system, p) / kappa_sq
        theta = _metric(system.left, kappa_sq)
        quasiparity = _spectral_sum(system.right, q, system.left)
        charge = _spectral_sum(system.left, q, system.right)
        theta_norm = frobenius(theta)
        # each difference is taken in its fresh product's buffer
        pq = p.matrix @ quasiparity
        pq -= theta
        cp = charge @ p.matrix
        cp -= theta
        pq, cp = _relative(pq, theta_norm), _relative(cp, theta_norm)
    # a finite nonzero ||theta||_F is the gate on theta itself: it is finite only when
    # every entry is, and every residual is undefined without it.  Finite residuals
    # imply finite Q, C and q, since 0 * inf is NaN: a non-finite Q_kj spoils column j
    # of P Q, whatever P is, a non-finite C_ik row i of C P, and a non-finite q_n column
    # n of right * q, and with it all of Q
    if not (0.0 < theta_norm < math.inf and math.isfinite(pq) and math.isfinite(cp)):
        raise ZeroKappa("metric operators leave float64: theta, Q, C or a residual is not finite")
    # a coefficient 1/<v|P|v>/|kappa|^2 is zero only by underflow: it has left float64 too
    underflowed = (q == 0).nonzero()[0]
    if underflowed.size:
        raise ZeroKappa(f"quasiparity coefficient q_{underflowed[0]} underflows to zero")
    return MetricBundle(
        theta=theta,
        quasiparity=quasiparity,
        charge=charge,
        q=q,
        residuals={"pq": pq, "cp": cp},
        theta_norm=theta_norm,
        right=system.right,
        kappa=system.kappa,
    )
