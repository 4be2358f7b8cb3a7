"""Residual diagnostics for the intertwining symmetry classes.

Four predicates, each returning a SymmetryVerdict whose residual is
normalized by the operator norms involved, so every verdict is
invariant under H -> s H for real s > 0:

* pseudo_hermitian:   adjoint(H) = P H inverse(P)
* weak_triplet:       the same plus its adjoint-candidate twin and the
                      commutation of H with S = inverse(P) adjoint(P)
* quasi_hermitian:    Theta H = adjoint(H) Theta for Hermitian positive
                      definite Theta (multiplicative form, no inversion)
* pt_commutant:       H S = S H
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import NotHermitian, NotPositiveDefinite
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_complex_matrix,
    commutator_residual,
    frobenius,
    is_hermitian,
    is_positive_definite,
)
from .models import PseudoMetric

#: how much slack the dependent third triplet equation is allowed
#: relative to the two independent ones
_DEPENDENT_SLACK = 10.0


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of one symmetry check.

    ``holds`` is exactly ``residual <= tolerance``; ``detail`` carries
    per-equation residuals (and 0/1 flags) where a check is composite.
    """

    name: str
    residual: float
    holds: bool
    tolerance: float
    detail: Mapping[str, float] | None = None


def _verdict(name: str, residual: float, tol: Tolerance, detail=None) -> SymmetryVerdict:
    # every residual is already relative, so the bound is taken at scale 1
    bound = tol.bound(1.0)
    return SymmetryVerdict(
        name=name, residual=residual, holds=residual <= bound, tolerance=bound, detail=detail
    )


def _candidate(p, tol: Tolerance) -> PseudoMetric:
    # a PseudoMetric carries its inverse, so checks sharing one invert P once
    return p if isinstance(p, PseudoMetric) else PseudoMetric.from_matrix(p, tol)


def _relative(num: float, scale: float) -> float:
    # a zero-scale problem has nothing to violate
    return num / scale if scale > 0.0 else 0.0


def pseudo_hermiticity_residual(h, p, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check adjoint(H) = P H inverse(P), residual relative to ||H||_F."""
    hm = as_complex_matrix(h, "hamiltonian")
    pm = _candidate(p, tol)
    residual = _relative(
        frobenius(pm.matrix @ hm @ pm.inverse - hm.conj().T), frobenius(hm)
    )
    return _verdict("pseudo_hermitian", residual, tol)


def weak_triplet_check(h, p, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check the full triplet for a non-self-adjoint candidate.

    detail keys: "pseudo" (P equation), "pseudo_adjoint" (adjoint(P)
    equation), "commutant" ([H, S] with S = inverse(P) adjoint(P)),
    "degenerate" (1.0 when P is self-adjoint and the triplet collapses),
    "dependency_ok" (1.0 unless the two independent equations pass while
    the dependent one fails by more than 10x the tolerance, which would
    flag an internal inconsistency).
    """
    hm = as_complex_matrix(h, "hamiltonian")
    cand = _candidate(p, tol)
    pm, pinv = cand.matrix, cand.inverse
    hnorm = frobenius(hm)
    hdag = hm.conj().T

    r1 = _relative(frobenius(pm @ hm @ pinv - hdag), hnorm)
    r2 = _relative(frobenius(pm.conj().T @ hm @ pinv.conj().T - hdag), hnorm)
    s = pinv @ pm.conj().T
    r_comm = _relative(commutator_residual(hm, s), hnorm * frobenius(s))

    bound = tol.bound(1.0)
    degenerate = is_hermitian(pm, tol)
    dependency_ok = not (r1 <= bound and r_comm <= bound and r2 > _DEPENDENT_SLACK * bound)
    return _verdict(
        "weak_triplet",
        max(r1, r2, r_comm),
        tol,
        {
            "pseudo": r1,
            "pseudo_adjoint": r2,
            "commutant": r_comm,
            "degenerate": 1.0 if degenerate else 0.0,
            "dependency_ok": 1.0 if dependency_ok else 0.0,
        },
    )


def quasi_hermiticity_residual(h, theta, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check Theta H = adjoint(H) Theta for a metric candidate Theta.

    Theta must be Hermitian positive definite; the residual is the
    multiplicative form ||Theta H - adjoint(H) Theta||_F divided by
    ||Theta||_F ||H||_F, which avoids amplification by cond(Theta).
    """
    hm = as_complex_matrix(h, "hamiltonian")
    th = as_complex_matrix(theta, "theta")
    # positivity includes the Hermiticity test; repeat it only to name the failure
    if not is_positive_definite(th, tol):
        if not is_hermitian(th, tol):
            raise NotHermitian("metric candidate is not self-adjoint")
        raise NotPositiveDefinite("metric candidate is not positive definite")
    residual = _relative(
        frobenius(th @ hm - hm.conj().T @ th), frobenius(th) * frobenius(hm)
    )
    return _verdict("quasi_hermitian", residual, tol)


def pt_commutant_check(h, s, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check H S = S H, residual relative to ||H||_F ||S||_F."""
    hm = as_complex_matrix(h, "hamiltonian")
    sm = as_complex_matrix(s, "symmetry")
    residual = _relative(commutator_residual(hm, sm), frobenius(hm) * frobenius(sm))
    return _verdict("pt_commutant", residual, tol)
