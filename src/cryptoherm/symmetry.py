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

Every check refuses operands of different shapes with DimensionMismatch.
``diagnose`` runs the whole pipeline on one (H, P) pair and returns a
Diagnosis: the spectrum, the verdicts, the metric bundle and the
warnings, and where the construction fails (complex eigenvalues, a
degenerate or defective spectrum, a vanishing overlap, metric operators
that leave float64, a metric that is not Hermitian positive definite).
It is the one place that policy lives; the CLI's ``diagnose`` report
only renders it.

The public checks validate their operands; ``diagnose`` validates H and
P once, measures ||H||_F once and runs the same checks as private steps
on those trusted arrays, with the bundle's kept spectrum of Theta.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .biortho import BiorthogonalSystem, _solve
from .errors import (
    NotHermitian,
    NotPositiveDefinite,
    SpectrumObstruction,
    VanishingOverlap,
    ZeroKappa,
)
from .io import format_float
from .linalg import (
    ComplexMatrix,
    DEFAULT_TOL,
    Tolerance,
    _hermitian,
    _same_shape,
    _unit_factor,
    as_complex_matrix,
    frobenius,
    hermitian_eigenvalues,
    resolved_positive,
)
from .metric import MetricBundle, build_bundle, nonreal_warnings
from .models import PseudoMetric

#: how much slack the dependent third triplet equation is allowed
#: relative to the two independent ones
_DEPENDENT_SLACK = 10.0

#: spectral gaps below this times ||H||_F draw a proximity warning
GAP_WARN_FACTOR = 1e-6


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


def _operands(h, p, tol: Tolerance) -> tuple[ComplexMatrix, PseudoMetric]:
    # H validated, and P as a PseudoMetric, which carries its inverse, so
    # checks sharing one invert P once
    hm = as_complex_matrix(h, "hamiltonian")
    pm = p if isinstance(p, PseudoMetric) else PseudoMetric.from_matrix(p, tol)
    _same_shape(hm, pm.matrix)
    return hm, pm


def _relative(residual, scale: float) -> float:
    # ||residual||_F / scale, both first divided by the power of two that
    # brings scale near 1, so the squares inside the norm stay in float64
    # wherever the ratio does.  A zero-scale problem has nothing to violate.
    if not scale > 0.0:
        return 0.0
    factor = _unit_factor(scale)
    return frobenius(residual * factor) / (scale * factor)


def _p_equation(hm, x, x_inverse, hnorm: float) -> float:
    # ||X H inverse(X) - adjoint(H)||_F / ||H||_F: the P equation, and with
    # X = adjoint(P) the triplet's adjoint equation
    return _relative(x @ hm @ x_inverse - hm.conj().T, hnorm)


def pseudo_hermiticity_residual(h, p, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check adjoint(H) = P H inverse(P), residual relative to ||H||_F."""
    hm, pm = _operands(h, p, tol)
    return _verdict("pseudo_hermitian", _p_equation(hm, pm.matrix, pm.inverse, frobenius(hm)), tol)


def weak_triplet_check(h, p, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check the full triplet for a non-self-adjoint candidate.

    detail keys: "pseudo" (P equation), "pseudo_adjoint" (adjoint(P)
    equation), "commutant" ([H, S] with S = inverse(P) adjoint(P)),
    "degenerate" (1.0 when P is self-adjoint and the triplet collapses,
    as ``PseudoMetric.self_adjoint`` says), "dependency_ok" (1.0 unless
    the two independent equations pass while the dependent one fails by
    more than 10x the tolerance, which would flag an internal
    inconsistency).
    """
    hm, pm = _operands(h, p, tol)
    hnorm = frobenius(hm)
    return _weak_triplet(hm, hnorm, pm, _p_equation(hm, pm.matrix, pm.inverse, hnorm), tol)


def _weak_triplet(
    hm, hnorm: float, cand: PseudoMetric, r1: float, tol: Tolerance
) -> SymmetryVerdict:
    # weak_triplet_check on a trusted H, given ||H||_F and the P equation's residual r1
    pm, pinv = cand.matrix, cand.inverse
    r2 = _p_equation(hm, pm.conj().T, pinv.conj().T, hnorm)
    s = pinv @ pm.conj().T
    r_comm = _relative(hm @ s - s @ hm, hnorm * frobenius(s))

    bound = tol.bound(1.0)
    dependency_ok = not (r1 <= bound and r_comm <= bound and r2 > _DEPENDENT_SLACK * bound)
    return _verdict(
        "weak_triplet",
        max(r1, r2, r_comm),
        tol,
        {
            "pseudo": r1,
            "pseudo_adjoint": r2,
            "commutant": r_comm,
            "degenerate": 1.0 if cand.self_adjoint else 0.0,
            "dependency_ok": 1.0 if dependency_ok else 0.0,
        },
    )


def quasi_hermiticity_residual(h, theta, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check Theta H = adjoint(H) Theta for a metric candidate Theta.

    Theta must be Hermitian positive definite
    (``linalg.is_positive_definite``); the residual is the multiplicative
    form ||Theta H - adjoint(H) Theta||_F divided by ||Theta||_F ||H||_F,
    which avoids amplification by cond(Theta).
    """
    hm = as_complex_matrix(h, "hamiltonian")
    th = as_complex_matrix(theta, "theta")
    _same_shape(hm, th)
    return _quasi_hermitian(hm, frobenius(hm), th, hermitian_eigenvalues(th), tol)


def _quasi_hermitian(hm, hnorm: float, th, theta_eigenvalues, tol: Tolerance) -> SymmetryVerdict:
    # quasi_hermiticity_residual on trusted arrays, given ||H||_F and the
    # ascending eigenvalues of Theta's Hermitian part
    if not _hermitian(th, tol):
        raise NotHermitian("metric candidate is not self-adjoint")
    if not resolved_positive(theta_eigenvalues):
        raise NotPositiveDefinite("metric candidate is not positive definite")
    residual = _relative(th @ hm - hm.conj().T @ th, frobenius(th) * hnorm)
    return _verdict("quasi_hermitian", residual, tol)


def pt_commutant_check(h, s, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check H S = S H, residual relative to ||H||_F ||S||_F."""
    hm = as_complex_matrix(h, "hamiltonian")
    sm = as_complex_matrix(s, "symmetry")
    _same_shape(hm, sm)
    residual = _relative(hm @ sm - sm @ hm, frobenius(hm) * frobenius(sm))
    return _verdict("pt_commutant", residual, tol)


@dataclass(frozen=True)
class Diagnosis:
    """What ``diagnose`` found for one (H, P) pair.

    ``eigenvalues`` are the eigensolver's values, kept also when the
    spectrum is obstructed; ``max_imag`` is their max |Im E| and
    ``all_real`` is max_imag <= tol.bound(||H||_F).
    ``system`` and ``bundle`` are None when ``obstruction`` is set, and
    ``bundle`` is also None when an overlap <v|P|v> vanished or the
    operators left float64 (``metric.build_bundle`` refused it); a bundle
    whose Theta is not Hermitian positive definite is kept.  ``holds``
    means no obstruction, no metric refusal, and every verdict and
    factorization holds.
    """

    eigenvalues: NDArray[np.complex128]
    max_imag: float
    all_real: bool
    verdicts: tuple[SymmetryVerdict, ...]
    warnings: tuple[str, ...]
    system: BiorthogonalSystem | None
    bundle: MetricBundle | None
    obstruction: SpectrumObstruction | None
    holds: bool


def diagnose(h, p, tol: Tolerance = DEFAULT_TOL) -> Diagnosis:
    """Run every applicable check on (H, P) and say where the construction fails.

    The verdicts come in a fixed order: pseudo_hermitian, weak_triplet
    (only for a non-self-adjoint P) and, once the bundle is built,
    quasi_hermitian.  A spectrum obstruction, a vanishing overlap, metric
    operators that leave float64 and a metric that is not Hermitian
    positive definite become warnings, not exceptions; a
    SpectrumObstruction without eigenvalues (the eigensolver itself
    failed) is raised, as is a singular P.
    """
    hm, pm = _operands(h, p, tol)
    scale = frobenius(hm)
    warnings: list[str] = []
    system = bundle = obstruction = None
    try:
        system = _solve(hm, scale, tol)
        values = system.eigenvalues
    except SpectrumObstruction as exc:
        if exc.eigenvalues is None:  # the eigensolver itself failed: no spectrum to report
            raise
        obstruction, values = exc, exc.eigenvalues
        warnings.append(f"spectrum obstruction: {type(exc).__name__}: {exc}")

    pseudo = _p_equation(hm, pm.matrix, pm.inverse, scale)
    verdicts = [_verdict("pseudo_hermitian", pseudo, tol)]
    if not pm.self_adjoint:
        # the P equation is the triplet's first equation: it is solved once, above
        verdicts.append(_weak_triplet(hm, scale, pm, pseudo, tol))

    holds = False  # set only once the whole pipeline has run
    if system is not None:
        gaps = np.diff(system.energies)
        if system.dim > 1 and float(gaps.min()) < GAP_WARN_FACTOR * scale:
            warnings.append(f"degeneracy proximity: smallest gap {format_float(float(gaps.min()))}")
        try:
            bundle = build_bundle(system, pm)
        except (VanishingOverlap, ZeroKappa) as exc:
            warnings.append(f"metric construction failed: {exc}")
        else:
            warnings += nonreal_warnings(bundle.coeffs.q)
            try:
                verdicts.append(
                    _quasi_hermitian(hm, scale, bundle.theta, bundle.theta_eigenvalues, tol)
                )
            except (NotHermitian, NotPositiveDefinite) as exc:
                warnings.append(f"metric check failed: {type(exc).__name__}: {exc}")
            else:
                holds = bundle.factorizations_hold and all(v.holds for v in verdicts)

    max_imag = float(np.max(np.abs(values.imag)))
    return Diagnosis(
        eigenvalues=values,
        max_imag=max_imag,
        all_real=max_imag <= tol.bound(scale),
        verdicts=tuple(verdicts),
        warnings=tuple(warnings),
        system=system,
        bundle=bundle,
        obstruction=obstruction,
        holds=holds,
    )
