"""Biorthogonal eigensystem construction and rescaling.

For a diagonalizable matrix ``H`` with real non-degenerate spectrum the
solver returns paired column families ``right`` / ``left`` such that

    H right_n  = E_n right_n,
    adjoint(H) left_n = E_n left_n,
    adjoint(left_m) @ right_n = delta_mn,

with energies strictly ascending.  In the reference normalization the
right columns are ``linalg.eig``'s as they come, which ZGEEV leaves with
unit Euclidean norm and the largest-modulus entry real positive; the
left columns are adjoint(inverse(right)), fixed by the right ones.
Theta, Q, C, the coefficients and every residual are invariant under a
phase r_n -> e^{i phi} r_n, so no reported number depends on which entry
carries the phase.  All freedom left after that is the diagonal rescaling

    right_n -> kappa_n right_n,   left_n -> left_n / conj(kappa_n),

which ``renormalize`` applies while tracking the cumulative ``kappa``.
Reruns on the same input are byte-identical at a fixed BLAS thread
count.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ComplexSpectrum,
    ConvergenceFailure,
    DegenerateSpectrum,
    DimensionMismatch,
    ZeroKappa,
)
from .linalg import (
    ComplexMatrix,
    DEFAULT_TOL,
    Tolerance,
    as_complex_matrix,
    eig,
    frobenius,
)

#: eigenvalue clusters no wider than this times ||H||_F count as
#: spectrum obstructions (exceptional-point territory, and H = 0 with
#: n >= 2, where both sides are 0).  An exactly defective pair is split
#: by the eigensolver by roughly
#: sqrt(machine eps) * ||H||, i.e. ~1.5e-8 * ||H||, so the cluster
#: detection floor has to sit above that or exceptional points leak
#: through as spuriously split spectra
_CLUSTER_FLOOR = 10.0 * float(np.sqrt(np.finfo(np.float64).eps))

#: hard caps the solver enforces on its own output
BIORTHO_RESIDUAL_CAP = 1e-10
COMPLETENESS_RESIDUAL_CAP = 1e-9


@dataclass(frozen=True, eq=False)  # holds arrays: compared and hashed by identity
class BiorthogonalSystem:
    """Paired eigenbases of H and adjoint(H) with their rescaling state.

    ``right[:, n]`` and ``left[:, n]`` belong to ``energies[n]``;
    ``kappa[n]`` is the cumulative rescaling applied on top of the
    reference normalization, the eigensolver's unit-norm columns with
    their largest-modulus entry real positive (all ones straight out of
    the solver).
    ``eigenvalues`` are the complex values the eigensolver returned,
    whose real parts are ``energies`` (None for a system built by hand).
    """

    energies: NDArray[np.float64]
    right: ComplexMatrix
    left: ComplexMatrix
    kappa: NDArray[np.complex128]
    eigenvalues: NDArray[np.complex128] | None = None

    @property
    def dim(self) -> int:
        return int(self.energies.shape[0])


def solve_biorthogonal(h, tol: Tolerance = DEFAULT_TOL) -> BiorthogonalSystem:
    """Build the reference-normalized biorthogonal system of ``h``.

    The right columns are ``linalg.eig``'s, used as returned: unit norm,
    largest-modulus entry real positive, as ZGEEV sets them.
    Degeneracy is screened before reality so that an exceptional point,
    whose numerically split eigenvalues may wander slightly off the real
    axis, is reported as DegenerateSpectrum rather than ComplexSpectrum.
    The left vectors are the rows of inverse(right), conjugated, so
    biorthonormality holds by construction; a numerically singular
    ``right`` means a defective pairing and raises ConvergenceFailure.
    Every refusal after the eigensolve carries its eigenvalues.
    """
    a = as_complex_matrix(h, "hamiltonian")
    return _solve(a, frobenius(a), tol)


def _solve(a: ComplexMatrix, scale: float, tol: Tolerance) -> BiorthogonalSystem:
    # solve_biorthogonal on a trusted H whose Frobenius norm ``scale`` is known
    n = a.shape[0]
    cluster = _CLUSTER_FLOOR * scale

    values, right = eig(a)

    if n > 1:
        sep = np.abs(values[:, None] - values[None, :])
        sep.flat[:: n + 1] = np.inf  # the diagonal, each value against itself
        gap = float(sep.min())
        if gap <= cluster:
            raise DegenerateSpectrum(
                f"eigenvalue gap {gap:.3e} below cluster threshold {cluster:.3e}",
                gap=gap,
                threshold=cluster,
                eigenvalues=values,
            )

    imag_worst = float(np.abs(values.imag).max())
    if imag_worst > tol.rel * scale:
        raise ComplexSpectrum(
            f"spectrum is not real: max |Im E| = {imag_worst:.3e} "
            f"exceeds {tol.rel * scale:.3e}",
            eigenvalues=values,
        )

    try:
        inverse = np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"eigenvector matrix is singular ({exc}); system is numerically defective",
            eigenvalues=values,
        ) from exc

    # adjoint(inverse(R)) as one new C-ordered array: conjugated in place, copied transposed
    np.conjugate(inverse, out=inverse)
    system = BiorthogonalSystem(
        energies=values.real.astype(np.float64),
        right=right,
        left=inverse.T.copy(),
        kappa=np.ones(n, dtype=np.complex128),
        eigenvalues=values,
    )

    for name, residual, cap in (
        ("biorthonormality", biorthonormality_residual, BIORTHO_RESIDUAL_CAP),
        ("completeness", completeness_residual, COMPLETENESS_RESIDUAL_CAP),
    ):
        value = residual(system)
        if not value <= cap:  # NaN from an overflowing inverse fails too
            raise ConvergenceFailure(
                f"{name} residual {value:.3e} exceeds cap {cap:.0e}", eigenvalues=values
            )
    return system


def biorthonormality_residual(system: BiorthogonalSystem) -> float:
    """Frobenius norm of adjoint(left) @ right minus the identity."""
    return _minus_identity_norm(system.left.conj().T @ system.right)


def completeness_residual(system: BiorthogonalSystem) -> float:
    """Frobenius deviation of sum_n right_n adjoint(left_n) from the identity.

    Kappa-independent, since each term carries kappa_n / kappa_n.
    """
    return _minus_identity_norm(system.right @ system.left.conj().T)


def _minus_identity_norm(product: ComplexMatrix) -> float:
    # ||product - I||_F, with 1 taken off the diagonal of a fresh product in its own
    # buffer (C-contiguous, so ravel is a view): off the diagonal, subtracting the
    # identity's zeros would change no bit
    product.ravel()[:: product.shape[0] + 1] -= 1.0
    return frobenius(product)


def renormalize(system: BiorthogonalSystem, kappa) -> BiorthogonalSystem:
    """Apply the diagonal rescaling right_n *= kappa_n, left_n /= conj(kappa_n).

    The returned system keeps biorthonormality exactly (each bra still
    carries the inverse of its ket's factor) and records the cumulative
    coefficients; energies are untouched.  The coefficients divide by
    |kappa_n|^2, so a cumulative kappa_n whose |kappa_n|^2 or
    1/|kappa_n|^2 leaves float64 raises ZeroKappa naming the level.
    """
    k = np.asarray(kappa, dtype=np.complex128)
    if k.shape != (system.dim,):
        raise DimensionMismatch(
            f"kappa must have shape ({system.dim},), got {k.shape}"
        )
    # a zero, inf or NaN entry leaves |kappa_n|^2 or its inverse non-finite: refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cumulative = system.kappa * k
        weight = np.abs(cumulative) ** 2
        out_of_range = np.flatnonzero(~(np.isfinite(weight) & np.isfinite(1.0 / weight)))
    if out_of_range.size:
        n = int(out_of_range[0])
        raise ZeroKappa(
            f"|kappa_{n}| = {abs(cumulative[n]):.3e}: |kappa_{n}|^2 or its inverse leaves float64"
        )
    return replace(
        system,
        right=system.right * k[None, :],
        left=system.left / np.conj(k)[None, :],
        kappa=cumulative,
    )
