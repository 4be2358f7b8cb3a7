"""Residual diagnostics for the intertwining symmetry classes.

Two predicates, each returning a SymmetryVerdict whose residual is
normalized by the operator norms involved, so every verdict is
invariant under H -> s H for real s > 0:

* pseudo_hermitian:   P H = adjoint(H) P for an invertible P
                      (multiplicative form, no inversion)
* quasi_hermitian:    Theta H = adjoint(H) Theta for Hermitian positive
                      definite Theta (multiplicative form, no inversion)

A non-self-adjoint P's weak triplet adds no equation of its own: the
adjoint equation is the P equation's adjoint, and the commutant of
inverse(P) adjoint(P) follows from the two.  ``weak_triplet_check`` is
the P equation's verdict under the name "weak_triplet".

Every check refuses operands of different shapes with DimensionMismatch.
``diagnose`` runs the whole pipeline on one (H, P) pair and returns a
Diagnosis: the spectrum, the verdicts, the metric bundle and the
warnings, and where the construction fails (complex eigenvalues, a
degenerate or defective spectrum, a vanishing overlap, metric operators
that leave float64).  Its Theta needs no positivity test: Theta =
L adjoint(L) with L = adjoint(inverse(R)), positive definite by
construction, its spectrum 1/sigma_n(R)^2 (``MetricBundle.theta_eigenvalues``).
It is the one place that policy lives; the CLI's ``diagnose`` report
only renders it.

The public checks validate their operands; ``diagnose`` validates H and
P once, measures ||H||_F once and runs the same checks as private steps
on those trusted arrays, with the bundle's kept norm of Theta.  The
quasi-Hermiticity step takes an exactly Hermitian Theta, as
``metric.build_metric`` makes it, and tests neither that nor its
positivity; the public check takes any candidate, so it tests its
Hermiticity and positivity once and symmetrizes it.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    _relative,
    _same_shape,
    _unit_factor,
    as_complex_matrix,
    frobenius,
    resolved_positive,
)
from .metric import MetricBundle, build_bundle, nonreal_warnings
from .models import PseudoMetric

#: spectral gaps below this times ||H||_F draw a proximity warning
GAP_WARN_FACTOR = 1e-6


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of one symmetry check: ``holds`` is exactly ``residual <= tolerance``."""

    name: str
    residual: float
    holds: bool
    tolerance: float


def _verdict(name: str, residual: float, tol: Tolerance) -> SymmetryVerdict:
    # every residual is already relative, so it is held to tol.rel itself
    return SymmetryVerdict(name=name, residual=residual, holds=residual <= tol.rel,
                           tolerance=tol.rel)


def _operands(h, p) -> tuple[ComplexMatrix, PseudoMetric]:
    # H validated, and P as a PseudoMetric, which keeps its SVD and its norm,
    # so checks sharing one measure P once
    hm = as_complex_matrix(h, "hamiltonian")
    pm = PseudoMetric.from_matrix(p)
    _same_shape(hm, pm.matrix)
    return hm, pm


def _p_equation(hm, hnorm: float, cand: PseudoMetric) -> float:
    # ||P H - adjoint(H) P||_F / (||P||_F ||H||_F), the relative backward error
    # of the intertwining equation, for a P that passes the invertibility rule.
    # H and P are first scaled by powers of two to near unit norm, so the
    # products stay in float64 wherever the ratio does; the scaling is exact.
    # adjoint(H) P is its own product for every P: it is adjoint(P H) only for a P
    # equal to its adjoint bit for bit, and testing that costs more than the
    # product it saves on the paper's 2x2 and 3x3 models
    cand.check_condition()
    fh, fp = _unit_factor(hnorm), _unit_factor(cand.norm)
    h, p = hm * fh, cand.matrix * fp
    r = p @ h
    r -= h.conj().T @ p
    return _relative(r, (hnorm * fh) * (cand.norm * fp))


def pseudo_hermiticity_residual(h, p, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check P H = adjoint(H) P, residual relative to ||P||_F ||H||_F.

    A P that fails the invertibility rule (``PseudoMetric.check_condition``)
    raises SingularMatrix: P = 0 satisfies the equation trivially.
    """
    hm, pm = _operands(h, p)
    return _verdict("pseudo_hermitian", _p_equation(hm, frobenius(hm), pm), tol)


def weak_triplet_check(h, p, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """The P equation's verdict, named "weak_triplet".

    The triplet's adjoint equation, adjoint(P) H = adjoint(H) adjoint(P),
    is the adjoint of the P equation, with the same norm, and
    [H, inverse(P) adjoint(P)] = 0 follows from the two, so nothing is
    left to measure.  It stays public only because the benchmark's
    dense-library workload calls it, and goes with the change to the
    benchmark that ROADMAP items 1a and 2 describe.
    """
    return _verdict("weak_triplet", pseudo_hermiticity_residual(h, p, tol).residual, tol)


def quasi_hermiticity_residual(h, theta, tol: Tolerance = DEFAULT_TOL) -> SymmetryVerdict:
    """Check Theta H = adjoint(H) Theta for a metric candidate Theta.

    Theta must be Hermitian positive definite (``linalg.resolved_positive``
    reads its eigenvalues); the residual is the multiplicative
    form ||Theta H - adjoint(H) Theta||_F divided by ||Theta||_F ||H||_F,
    which avoids amplification by cond(Theta).  A candidate that passes
    the Hermiticity test is measured by its Hermitian part.
    """
    hm = as_complex_matrix(h, "hamiltonian")
    th = as_complex_matrix(theta, "theta")
    _same_shape(hm, th)
    if not _hermitian(th, tol):
        raise NotHermitian("metric candidate is not self-adjoint")
    th = th + th.conj().T  # a new array, so the caller's candidate is not touched
    th *= 0.5
    if not resolved_positive(np.linalg.eigvalsh(th)):
        raise NotPositiveDefinite("metric candidate is not positive definite")
    return _quasi_hermitian(hm, frobenius(hm), th, frobenius(th), tol)


def _quasi_hermitian(hm, hnorm: float, th, thnorm: float, tol: Tolerance) -> SymmetryVerdict:
    # quasi_hermiticity_residual on trusted arrays with Theta exactly Hermitian and
    # positive definite, given ||H||_F and ||Theta||_F: then adjoint(H) Theta is
    # adjoint(Theta H), so the residual takes one product
    t = th @ hm
    t -= t.conj().T  # the conjugate is a copy, so the fresh product takes the difference
    return _verdict("quasi_hermitian", _relative(t, thnorm * hnorm), tol)


@dataclass(frozen=True, eq=False)  # holds arrays: compared and hashed by identity
class Diagnosis:
    """What ``diagnose`` found for one (H, P) pair.

    ``eigenvalues`` are the eigensolver's values, kept also when the
    spectrum is obstructed; ``max_imag`` is their max |Im E| and
    ``all_real`` is max_imag <= tol.rel ||H||_F, as ``biortho``'s reality
    test has it.
    ``verdicts`` is pseudo_hermitian, then quasi_hermitian when the bundle
    stands.
    ``system`` and ``bundle`` are None when ``obstruction`` is set, and
    ``bundle`` is also None when an overlap <v|P|v> vanished or the
    operators left float64 (``metric.build_bundle`` refused it).  ``holds``
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

    The verdicts come in a fixed order: pseudo_hermitian and, once the
    bundle is built, quasi_hermitian.  A spectrum obstruction, a
    vanishing overlap and metric operators that leave float64 become
    warnings, not exceptions; a SpectrumObstruction without eigenvalues
    (the eigensolver itself failed) is raised, as is a singular P.
    """
    hm, pm = _operands(h, p)
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

    verdicts = [_verdict("pseudo_hermitian", _p_equation(hm, scale, pm), tol)]

    holds = False  # set only once the whole pipeline has run
    if system is not None:
        gaps = system.energies[1:] - system.energies[:-1]
        if system.dim > 1 and float(gaps.min()) < GAP_WARN_FACTOR * scale:
            warnings.append(f"degeneracy proximity: smallest gap {format_float(float(gaps.min()))}")
        try:
            bundle = build_bundle(system, pm)
        except (VanishingOverlap, ZeroKappa) as exc:
            warnings.append(f"metric construction failed: {exc}")
        else:
            warnings += nonreal_warnings(bundle.q)
            verdicts.append(_quasi_hermitian(hm, scale, bundle.theta, bundle.theta_norm, tol))
            holds = bundle.factorizations_hold and all(v.holds for v in verdicts)

    max_imag = float(np.abs(values.imag).max())
    return Diagnosis(
        eigenvalues=values,
        max_imag=max_imag,
        all_real=max_imag <= tol.rel * scale,
        verdicts=tuple(verdicts),
        warnings=tuple(warnings),
        system=system,
        bundle=bundle,
        obstruction=obstruction,
        holds=holds,
    )
