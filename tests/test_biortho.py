from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from cryptoherm import (
    BiorthogonalSystem,
    ComplexSpectrum,
    DegenerateSpectrum,
    ZeroKappa,
    biorthonormality_residual,
    build_bundle,
    build_h2,
    build_h3,
    build_metric,
    completeness_residual,
    frobenius,
    involutive_normalization,
    parity2,
    solve_biorthogonal,
)
from cryptoherm.errors import DimensionMismatch
from conftest import (
    assert_eigensolver_normalized,
    eigen_operands,
    sample_h2_params,
    sample_h3_params,
)


def test_two_level_energies_oracle(h2_system):
    _, sys_ = h2_system
    assert sys_.energies == pytest.approx([0.2, 0.8], abs=1e-14)
    assert biorthonormality_residual(sys_) <= 1e-12
    assert completeness_residual(sys_) <= 1e-9
    assert np.array_equal(sys_.kappa, np.ones(2))


def test_three_level_energies_oracle(h3_system):
    # circulant formula: a + 2|b| cos(arg b + 2 pi k / 3)
    _, sys_ = h3_system
    expected = [-0.9928203230275509, 0.39282032302755054, 0.6]
    assert sys_.energies == pytest.approx(expected, abs=1e-12)


def test_hermitian_input_collapses_doublet(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = m + m.conj().T
    sys_ = solve_biorthogonal(h)
    assert np.allclose(sys_.left, sys_.right, atol=1e-10)


def test_complex_spectrum_refused():
    with pytest.raises(ComplexSpectrum) as info:
        solve_biorthogonal(build_h2(1.0, 0.0, 0.6j))
    assert info.value.eigenvalues is not None


def test_exceptional_point_reported_as_degenerate():
    with pytest.raises(DegenerateSpectrum) as info:
        solve_biorthogonal(build_h2(1.0, 0.0, 0.5j))
    assert info.value.gap < info.value.threshold
    assert info.value.eigenvalues.shape == (2,)


@pytest.mark.parametrize("n", [2, 3])
def test_zero_hamiltonian_reported_as_degenerate(n):
    # ||H||_F = 0 makes the cluster threshold 0 as well, and a zero gap is not below it
    with pytest.raises(DegenerateSpectrum) as info:
        solve_biorthogonal(np.zeros((n, n)))
    assert (info.value.gap, info.value.threshold) == (0.0, 0.0)
    assert str(info.value) == "eigenvalue gap 0.000e+00 below cluster threshold 0.000e+00"


def test_system_keeps_complex_eigenvalues(h2_system):
    # the report prints these, so they must be eig's values, imaginary parts included
    _, sys_ = h2_system
    assert sys_.eigenvalues.dtype == np.complex128
    assert np.array_equal(sys_.eigenvalues.real, sys_.energies)
    assert involutive_normalization(sys_, parity2())[1].eigenvalues is sys_.eigenvalues


def _similar_to_diagonal(rng, n=16):
    """Seeded H = S D S^-1 with real, well-separated levels D."""
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    levels = np.sort(rng.uniform(-1.0, 1.0, n)) + np.arange(n)
    return s @ np.diag(levels) @ np.linalg.inv(s)


def test_eigen_pairing_sampled(rng):
    # the left columns come from inverse(right), so check them as
    # eigenvectors of adjoint(H) directly, on 2-, 3- and 16-level cases
    hs = [build_h2(*sample_h2_params(rng)) for _ in range(50)]
    hs += [build_h3(*sample_h3_params(rng)) for _ in range(30)]
    hs += [_similar_to_diagonal(rng) for _ in range(5)]
    for h in hs:
        sys_ = solve_biorthogonal(h)
        hd = h.conj().T
        assert biorthonormality_residual(sys_) <= 1e-10
        for n in range(sys_.dim):
            e = sys_.energies[n]
            assert np.linalg.norm(h @ sys_.right[:, n] - e * sys_.right[:, n]) < 1e-10
            assert np.linalg.norm(hd @ sys_.left[:, n] - e * sys_.left[:, n]) < 1e-8


def test_energies_strictly_increasing(rng):
    for _ in range(50):
        a, d, b = sample_h2_params(rng)
        sys_ = solve_biorthogonal(build_h2(a, d, b))
        assert sys_.energies[0] < sys_.energies[1]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(h=eigen_operands())
def test_right_columns_unit_norm_phase_fixed(h):
    # the reference normalization is the eigensolver's, used as it comes
    assert_eigensolver_normalized(solve_biorthogonal(h).right)


class TestRenormalize:
    """Per-level renormalization: the kappa a system carries, never applied to its columns."""

    _FLOAT64 = "metric operators leave float64: theta, Q, C or a residual is not finite"

    def test_identity_kappa_is_noop(self, h2_system):
        # at kappa = 1 the weight divides by 1.0: Theta is the unweighted sum bit for bit
        _, sys_ = h2_system
        m = sys_.left @ sys_.left.conj().T
        m += m.conj().T
        m *= 0.5
        assert np.array_equal(build_metric(replace(sys_, kappa=np.ones(2))), m)
        assert np.array_equal(build_bundle(sys_, parity2()).theta, m)

    def test_phases_preserve_residuals(self, h3_system):
        _, sys_ = h3_system
        phases = np.exp(1j * np.array([0.3, -1.2, 2.5]))
        out = build_bundle(replace(sys_, kappa=phases), np.eye(3))
        moduli = build_bundle(replace(sys_, kappa=np.abs(phases)), np.eye(3))
        assert out.residuals == moduli.residuals
        before = build_bundle(sys_, np.eye(3)).residuals
        assert max(abs(out.residuals[k] - before[k]) for k in before) <= 1e-14

    def test_overlap_still_unity_after_scaling(self, h2_system):
        # a system that carries kappa keeps the solver's columns themselves
        _, sys_ = h2_system
        kappa, out = involutive_normalization(sys_, parity2())
        assert not np.array_equal(kappa, np.ones(2))
        assert out.right is sys_.right and out.left is sys_.left
        overlap = np.vdot(out.left[:, 0], out.right[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_kappa_is_absolute(self, h2_system):
        # kappa is the weight the metric applies, not a product of rescalings
        _, sys_ = h2_system
        first = involutive_normalization(sys_, parity2())
        again = involutive_normalization(replace(sys_, kappa=np.array([2.0, 3.0j])), parity2())
        assert np.array_equal(again[0], first[0])
        assert np.array_equal(again[1].kappa, first[0])

    def test_completeness_invariant_under_kappa(self, h3_system):
        _, sys_ = h3_system
        out = replace(sys_, kappa=np.array([2.0, 0.5 - 0.5j, 3.0j]))
        assert completeness_residual(out) == completeness_residual(sys_)
        assert biorthonormality_residual(out) == biorthonormality_residual(sys_)

    @pytest.mark.parametrize("bad", [[0.0, 1.0], [np.inf, 1.0], [np.nan, 1.0]])
    def test_rejects_zero_or_non_finite(self, bad, h2_system):
        _, sys_ = h2_system
        with pytest.raises(ZeroKappa, match=r"^\|kappa_0\| = "):
            build_bundle(replace(sys_, kappa=np.array(bad, dtype=complex)), parity2())

    def test_rejects_kappa_whose_square_leaves_float64(self, h2_system):
        # the coefficients divide by |kappa_n|^2: 1e-200 and 1e200 square out of
        # float64, and 1e-160 squares to a subnormal whose inverse overflows
        _, sys_ = h2_system
        for bad in ([1.0, 1e-200], [1.0, 1e-160], [1.0, 1e200]):
            with pytest.raises(ZeroKappa, match=r"^\|kappa_1\| = .*: \|kappa_1\|\^2 or its inverse"):
                build_bundle(replace(sys_, kappa=np.array(bad, dtype=complex)), parity2())
        # 1e150 and 1e-150 pass the range check, and the bundle's own gate refuses them
        with pytest.raises(ZeroKappa) as info:
            build_bundle(replace(sys_, kappa=np.array([1e150, 1e-150], dtype=complex)), parity2())
        assert str(info.value) == self._FLOAT64

    def test_rejects_wrong_length(self, h2_system):
        _, sys_ = h2_system
        with pytest.raises(DimensionMismatch, match=r"^kappa must have shape \(2,\), got \(3,\)$"):
            build_bundle(replace(sys_, kappa=np.ones(3, dtype=complex)), parity2())


def test_identity_model_completeness_is_exact():
    # degenerate system assembled by hand: the solver would refuse identity H
    n = 3
    sys_ = BiorthogonalSystem(
        energies=np.ones(n),
        right=np.eye(n, dtype=complex),
        left=np.eye(n, dtype=complex),
        kappa=np.ones(n, dtype=complex),
    )
    assert completeness_residual(sys_) <= 1e-14


def test_interior_family_success_rate(rng):
    # the solver must hold its residual cap across the sampled interior
    failures = 0
    total = 10_000
    for _ in range(total):
        a, d, b = sample_h2_params(rng, margin=1e-2)
        try:
            sys_ = solve_biorthogonal(build_h2(a, d, b))
        except Exception:
            failures += 1
            continue
        if biorthonormality_residual(sys_) > 1e-10:
            failures += 1
    assert failures <= total // 100


def test_solver_output_is_deterministic(h3_system):
    h, sys_ = h3_system
    again = solve_biorthogonal(h)
    assert np.array_equal(again.right, sys_.right)
    assert np.array_equal(again.left, sys_.left)
