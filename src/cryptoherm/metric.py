"""Quasiparity, charge and metric construction with factorization checks.

Everything here is a spectral sum over one biorthogonal system.  With
reference (kappa = 1) vectors written r1_n, l1_n and current vectors
r_n = kappa_n r1_n, l_n = l1_n / conj(kappa_n), the three operators are

    Q = sum_n r_n  q_n adjoint(l_n)      q_n = q1_n / |kappa_n|^2
    C = sum_n l_n  q_n adjoint(r_n)      q1_n = 1 / <r1_n | P | r1_n>
    Theta = sum_n l_n adjoint(l_n)       (= sum_n l1_n |kappa_n|^-2 adjoint(l1_n))

so the whole kappa dependence is carried by the stored columns plus the
|kappa|^-2 weight in the coefficients.  The charge coefficients are
c_n = conj(q_n) by definition, since <v|adjoint(P)|v> = conj(<v|P|v>).
Each sum is one matrix product, and reruns on the same input are
byte-identical at a fixed BLAS thread count.  ``build_bundle`` is the one
builder of Q, C and the coefficients; callers read them from its bundle.

Theta is exactly Hermitian wherever it is made: ``build_metric``
returns the Hermitian part of the sum, so nothing downstream tests or
symmetrizes it again.  The factorization identities Theta = P Q = C P
= adjoint(Q) adjoint(P) = adjoint(P) adjoint(C) hold exactly when P
intertwines H with its adjoint; every residual is normalized by
||Theta||_F.  ``verify_factorizations`` measures all four plus the
hermiticity of Theta, for any Theta.  ``build_bundle`` measures only
P Q and C P against its Theta and fills the three identity keys: that
Theta equals its adjoint bit for bit, so its hermiticity residual is 0
and each adjoint residual is its product's.  Each product's difference
is taken in the product's own buffer, one product at a time.

Two gates decide whether a bundle stands, and both live here.  The
float64 gate: ``build_bundle`` runs its sums without numpy's overflow
warnings and refuses, with ZeroKappa, a bundle whose Theta, Q, C,
coefficients or residuals are not finite (a Theta whose norm underflows
to zero leaves its residuals undefined, so it is refused the same way),
and one with a coefficient that underflows to zero, which has left
float64 as well; that refusal names the first such level.
The involution gate: ``MetricBundle.involution_residuals`` measures
||Q^2 - 1||_F and ||C^2 - 1||_F on first read, and ``involutions_hold``
compares them with INVOLUTIVITY_TOL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .biortho import BiorthogonalSystem, renormalize
from .errors import (
    DimensionMismatch,
    NonRealQuasiparity,
    VanishingOverlap,
    ZeroKappa,
)
from .linalg import (
    ComplexMatrix,
    _same_shape,
    as_complex_matrix,
    frobenius,
)
from .models import PseudoMetric

#: overlaps smaller than this times ||P||_F * ||v||^2 are refused
OVERLAP_FACTOR = 1e-10

#: relative imaginary part above which a coefficient is not "real"
REALITY_REL = 1e-10

#: factorization residuals above this fail a bundle's verdict
FACTORIZATION_TOL = 1e-9

#: involution residuals above this fail the involutive-mode verdict
INVOLUTIVITY_TOL = 1e-10

#: fixed key order of the residual map, of a bundle and of verify_factorizations
RESIDUAL_KEYS = ("theta_hermitian", "pq", "cp", "qdag_pdag", "pdag_cdag")


@dataclass(frozen=True)
class CoefficientSet:
    """Quasiparity and charge coefficients of one system/candidate pair."""

    q: NDArray[np.complex128]
    c: NDArray[np.complex128]


@dataclass(frozen=True)
class MetricBundle:
    """All operators built from one system plus their identity residuals.

    ``theta`` is exactly Hermitian, as ``build_metric`` makes it.
    ``residuals`` has the keys of RESIDUAL_KEYS: "pq" and "cp" are
    measured, "theta_hermitian" is 0 and "qdag_pdag" and "pdag_cdag"
    repeat them (``verify_factorizations`` measures all five for any
    Theta).
    ``theta_norm`` is ||theta||_F, measured once for the residuals and
    read again by the quasi-Hermiticity check.  ``theta_eigenvalues`` is
    computed on first use and then kept, so the report and the positivity
    check share one Hermitian eigensolve; ``involution_residuals`` is
    kept the same way.
    """

    theta: ComplexMatrix
    quasiparity: ComplexMatrix
    charge: ComplexMatrix
    coeffs: CoefficientSet
    residuals: Mapping[str, float]
    theta_norm: float

    @cached_property
    def theta_eigenvalues(self) -> NDArray[np.float64]:
        """Ascending eigenvalues of theta."""
        return np.linalg.eigvalsh(self.theta)

    @property
    def factorizations_hold(self) -> bool:
        """Every residual is at most FACTORIZATION_TOL."""
        return max(self.residuals.values()) <= FACTORIZATION_TOL

    @cached_property
    def involution_residuals(self) -> tuple[float, float]:
        """||Q^2 - 1||_F and ||C^2 - 1||_F: how far Q and C are from involutions."""
        eye = np.eye(self.theta.shape[0])
        return (frobenius(self.quasiparity @ self.quasiparity - eye),
                frobenius(self.charge @ self.charge - eye))

    @property
    def involutions_hold(self) -> bool:
        """Both involution residuals are at most INVOLUTIVITY_TOL."""
        return max(self.involution_residuals) <= INVOLUTIVITY_TOL


def _candidate(p) -> PseudoMetric:
    return p if isinstance(p, PseudoMetric) else PseudoMetric.from_matrix(p)


def reference_quasiparity_coeffs(
    system: BiorthogonalSystem, p
) -> NDArray[np.complex128]:
    """Coefficients of the kappa = 1 system, before any rescaling.

    q1_n = 1 / <v_n|P|v_n> over the reference right vectors v_n (unit
    norm, as the eigensolver returns them; the overlap does not depend
    on their phase).  An overlap below OVERLAP_FACTOR * ||P||_F
    * ||v_n||^2 raises VanishingOverlap naming the first such level;
    ||P||_F is the candidate's kept ``PseudoMetric.norm``.
    """
    cand = _candidate(p)
    pm = cand.matrix
    if pm.shape[0] != system.dim:
        raise DimensionMismatch(
            f"candidate dimension {pm.shape[0]} != system dimension {system.dim}"
        )
    v = system.right / system.kappa[None, :]  # undo the cumulative rescaling
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


def quasiparity_coeffs(system: BiorthogonalSystem, p) -> NDArray[np.complex128]:
    """q_n of the current system: reference value divided by |kappa_n|^2."""
    return reference_quasiparity_coeffs(system, p) / np.abs(system.kappa) ** 2


def nonreal_levels(q: NDArray[np.complex128]) -> tuple[NDArray[np.intp], NDArray[np.float64]]:
    """Levels whose relative imaginary part exceeds REALITY_REL, and all parts.

    The ratio |Im q_n| / |q_n| ignores any positive rescaling, so the
    current and the reference coefficients give the same levels.
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
    """Theta = sum_n left_n adjoint(left_n) over the current columns.

    Equals the reference-vector sum weighted by 1/|kappa_n|^2, so pure
    kappa phases leave it untouched.  Returned as the Hermitian part
    0.5 * (M + adjoint(M)) of the product M, formed in M's own buffer,
    which equals its adjoint bit for bit (the product itself need not)
    and is M exactly wherever M already is; positive definite whenever
    the system is complete.
    """
    m = system.left @ system.left.conj().T
    m += m.conj().T
    m *= 0.5
    return m


def verify_factorizations(theta, p, q, c) -> dict[str, float]:
    """Residuals of the four factorizations plus hermiticity of theta.

    Keys are fixed ("theta_hermitian", "pq", "cp", "qdag_pdag",
    "pdag_cdag"); every value is normalized by ||theta||_F.  Theta may
    be any matrix: the adjoint identities are read as
    ||B^dag A^dag - theta||_F = ||A B - adjoint(theta)||_F.
    """
    th = as_complex_matrix(theta, "theta")
    pm = _candidate(p).matrix
    qm = as_complex_matrix(q, "quasiparity")
    cm = as_complex_matrix(c, "charge")
    for other in (pm, qm, cm):
        _same_shape(th, other)
    scale = frobenius(th)
    if scale == 0.0:
        raise ValueError("theta is zero; factorization residuals are undefined")
    # each product against theta and against its adjoint
    pq, cp, th_dag = pm @ qm, cm @ pm, th.conj().T
    return dict(zip(RESIDUAL_KEYS, (
        frobenius(th - th_dag) / scale, frobenius(pq - th) / scale, frobenius(cp - th) / scale,
        frobenius(pq - th_dag) / scale, frobenius(cp - th_dag) / scale)))


def _product_residual(product: ComplexMatrix, theta: ComplexMatrix, scale: float) -> float:
    # ||product - theta||_F / scale, the difference taken in the product's own
    # buffer: every caller passes a fresh product
    product -= theta
    return frobenius(product) / scale


def involutive_normalization(
    system: BiorthogonalSystem, p
) -> tuple[NDArray[np.complex128], BiorthogonalSystem]:
    """Choose kappa so that the quasiparity coefficients become +-1.

    Returns the canonical kappa_n = sqrt(|q1_n|) (real positive, phases
    dropped since they affect nothing) together with the system rescaled
    to it.  Requires every reference coefficient q1_n to be real up to a
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
    target = np.sqrt(np.abs(q1.real)).astype(np.complex128)
    rescaled = renormalize(system, target / system.kappa)
    return target, rescaled


def build_bundle(system: BiorthogonalSystem, p) -> MetricBundle:
    """Assemble theta, Q, C, the coefficients and the residual map at once.

    The only builder of Q = sum_n right_n q_n adjoint(left_n) (so
    Q right_n = q_n right_n), of C = sum_n left_n q_n adjoint(right_n)
    (so adjoint(C) right_n = c_n right_n) and of the coefficient set
    (q, c = conj(q)), all from one overlap pass.  The residual map takes
    two products, P Q and C P, each measured against theta and then
    dropped; theta equals its adjoint bit for bit, so the three identity
    keys are filled, not measured: "theta_hermitian" is 0 over the scale
    (NaN when ||theta||_F underflows), "qdag_pdag" is "pq" and
    "pdag_cdag" is "cp".  The float64 gate: a
    bundle whose operators, coefficients or residuals are not finite
    raises ZeroKappa, as the rescaling that leads there would, and so does
    one with a coefficient that underflows to zero, naming the first such
    level.
    """
    p = _candidate(p)  # coerced once: the coefficients take the candidate
    pm = p.matrix
    # an operator that leaves float64 is refused below, without numpy's warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        q = quasiparity_coeffs(system, p)
        theta = build_metric(system)
        quasiparity = _spectral_sum(system.right, q, system.left)
        charge = _spectral_sum(system.left, q, system.right)
        theta_norm = frobenius(theta)
        # a norm that underflows to zero leaves every residual undefined: NaN
        scale = theta_norm or np.nan
        pq = _product_residual(pm @ quasiparity, theta, scale)
        cp = _product_residual(charge @ pm, theta, scale)
        # theta equals its adjoint bit for bit, so the adjoint residuals are the products' own
        residuals = dict(zip(RESIDUAL_KEYS, (0.0 / scale, pq, cp, pq, cp)))
    if not (np.isfinite(theta).all() and np.isfinite(quasiparity).all()
            and np.isfinite(charge).all() and np.isfinite(q).all()
            and all(map(math.isfinite, residuals.values()))):
        raise ZeroKappa("metric operators leave float64: theta, Q, C or a residual is not finite")
    # a coefficient 1/<v|P|v>/|kappa|^2 is zero only by underflow: it has left float64 too
    underflowed = (q == 0).nonzero()[0]
    if underflowed.size:
        raise ZeroKappa(f"quasiparity coefficient q_{underflowed[0]} underflows to zero")
    return MetricBundle(
        theta=theta,
        quasiparity=quasiparity,
        charge=charge,
        coeffs=CoefficientSet(q=q, c=np.conj(q)),
        residuals=residuals,
        theta_norm=theta_norm,
    )
