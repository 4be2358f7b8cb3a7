import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    BiorthogonalSystem,
    ComplexSpectrum,
    DegenerateSpectrum,
    ZeroKappa,
    biorthonormality_residual,
    build_h2,
    build_h3,
    completeness_residual,
    frobenius,
    renormalize,
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
    assert renormalize(sys_, [2.0, 1j]).eigenvalues is sys_.eigenvalues


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
    def test_identity_kappa_is_noop(self, h2_system):
        _, sys_ = h2_system
        out = renormalize(sys_, np.ones(2))
        assert np.array_equal(out.right, sys_.right)
        assert np.array_equal(out.left, sys_.left)

    def test_phases_preserve_residuals(self, h3_system):
        _, sys_ = h3_system
        before = biorthonormality_residual(sys_)
        out = renormalize(sys_, np.exp(1j * np.array([0.3, -1.2, 2.5])))
        assert abs(biorthonormality_residual(out) - before) <= 1e-14
        assert abs(completeness_residual(out) - completeness_residual(sys_)) <= 1e-14

    def test_overlap_still_unity_after_scaling(self, h2_system):
        _, sys_ = h2_system
        out = renormalize(sys_, np.array([2.0, 1.0]))
        overlap = np.vdot(out.left[:, 0], out.right[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_kappa_tracked_multiplicatively(self, h2_system):
        _, sys_ = h2_system
        out = renormalize(renormalize(sys_, [2.0, 3.0]), [0.5j, 1.0])
        assert out.kappa == pytest.approx([1.0j, 3.0])

    def test_completeness_invariant_under_kappa(self, h3_system):
        _, sys_ = h3_system
        out = renormalize(sys_, np.array([2.0, 0.5 - 0.5j, 3.0j]))
        assert abs(completeness_residual(out) - completeness_residual(sys_)) <= 1e-13

    @pytest.mark.parametrize("bad", [[0.0, 1.0], [np.inf, 1.0], [np.nan, 1.0]])
    def test_rejects_zero_or_non_finite(self, bad, h2_system):
        _, sys_ = h2_system
        with pytest.raises(ZeroKappa):
            renormalize(sys_, bad)

    def test_rejects_kappa_whose_square_leaves_float64(self, h2_system):
        # the coefficients divide by |kappa_n|^2: 1e-200 and 1e200 square out of
        # float64, and 1e-160 squares to a subnormal whose inverse overflows
        _, sys_ = h2_system
        for bad in ([1.0, 1e-200], [1.0, 1e-160], [1.0, 1e200]):
            with pytest.raises(ZeroKappa, match=r"^\|kappa_1\| = .*: \|kappa_1\|\^2 or its inverse"):
                renormalize(sys_, bad)
        # the cumulative kappa is what counts: 1e100 twice is refused, 1e150 once is not
        with pytest.raises(ZeroKappa, match=r"^\|kappa_0\| = 1.000e\+200"):
            renormalize(renormalize(sys_, [1e100, 1.0]), [1e100, 1.0])
        assert renormalize(sys_, [1e150, 1e-150]).kappa.tolist() == [1e150, 1e-150]

    def test_rejects_wrong_length(self, h2_system):
        _, sys_ = h2_system
        with pytest.raises(DimensionMismatch):
            renormalize(sys_, [1.0, 1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.complex_numbers(
            min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
        ),
        min_size=2,
        max_size=2,
    )
)
def test_renormalize_round_trip(kappa):
    sys_ = solve_biorthogonal(build_h2(1.0, 0.0, 0.4j))
    k = np.asarray(kappa)
    out = renormalize(renormalize(sys_, k), 1.0 / k)
    assert np.allclose(out.right, sys_.right, atol=1e-12)
    assert np.allclose(out.left, sys_.left, atol=1e-12)
    assert np.allclose(out.kappa, sys_.kappa, atol=1e-12)


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
