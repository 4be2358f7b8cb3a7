import numpy as np
import pytest

from cryptoherm import (
    PseudoMetric,
    SingularMatrix,
    adjoint,
    build_h2,
    build_h3,
    classify_h2,
    cyclic_p,
    discriminant_h2,
    frobenius,
    hermitian_rotation,
    hermitian_sum,
    is_hermitian,
    parity2,
    swap2,
)
from cryptoherm.models import CONDITION_CAP
from conftest import sample_h2_params_any, sample_h3_params


def test_build_h2_layout():
    h = build_h2(1.0, 0.5, 0.3 + 0.2j)
    assert h[0, 0] == 1.0
    assert h[1, 1] == 0.5
    assert h[0, 1] == 0.3 + 0.2j
    assert h[1, 0] == -(0.3 - 0.2j)


@pytest.mark.parametrize("a,d", [(1j, 0.0), (0.0, 2 + 1j)])
def test_build_h2_requires_real_diagonal(a, d):
    with pytest.raises(ValueError):
        build_h2(a, d, 0.1)


def test_h2_intertwining_constraint_sampled(rng):
    # structural identity adjoint(H) = P H inv(P) for every parameter choice
    p = parity2()
    for _ in range(200):
        a, d, b = sample_h2_params_any(rng)
        h = build_h2(a, d, b)
        residual = frobenius(p @ h @ p - adjoint(h))  # parity2 is its own inverse
        assert residual <= 1e-13 * frobenius(h)


class TestClassify:
    def test_interior_oracle(self):
        dc = classify_h2(1.0, 0.0, 0.4j)
        assert dc.tag == "interior"
        assert dc.discriminant == pytest.approx(0.36, abs=1e-15)

    def test_boundary_oracle(self):
        dc = classify_h2(1.0, 0.0, 0.5j)
        assert dc.tag == "boundary"
        assert dc.discriminant == pytest.approx(0.0, abs=1e-15)

    def test_exterior_oracle(self):
        dc = classify_h2(1.0, 0.0, 0.6j)
        assert dc.tag == "exterior"
        assert dc.discriminant == pytest.approx(-0.44, abs=1e-15)

    def test_default_band_formula(self):
        dc = classify_h2(1.0, 0.0, 0.4j)
        assert dc.boundary_band == pytest.approx(1e-9 * (1.0 + 0.0 + 0.4) ** 2)

    def test_custom_band_widens_boundary(self):
        assert classify_h2(1.0, 0.0, 0.49j, boundary_band=0.1).tag == "boundary"

    @pytest.mark.parametrize("a,d,b", [(1e308, -1e308, 0.0), (1.0, 0.0, 1e308j)])
    def test_overflowing_discriminant_raises(self, a, d, b):
        # a - d overflows to inf silently; 4|b|^2 makes Python raise on its own
        with pytest.raises(OverflowError):
            discriminant_h2(a, d, b)

    def test_band_must_be_non_negative(self):
        with pytest.raises(ValueError):
            classify_h2(1.0, 0.0, 0.4j, boundary_band=-1.0)


def test_parity2_and_swap2_displays():
    assert np.array_equal(parity2(), np.diag([1.0 + 0j, -1.0 + 0j]))
    assert np.array_equal(swap2(), np.array([[0, 1], [1, 0]], dtype=complex))


class TestCyclicP:
    def test_three_level_display(self):
        expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(cyclic_p(3), expected)

    def test_four_level_display(self):
        expected = np.array(
            [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex
        )
        assert np.array_equal(cyclic_p(4), expected)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_order_and_unitarity(self, n):
        p = cyclic_p(n)
        assert np.array_equal(adjoint(p) @ p, np.eye(n))
        assert np.array_equal(np.linalg.matrix_power(p, n), np.eye(n))

    @pytest.mark.parametrize("n", [0, 1, -3, 2.5])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            cyclic_p(n)


def test_build_h3_layout():
    b = 0.3 + 0.4j
    h = build_h3(0.1, b)
    bb = np.conj(b)
    expected = np.array([[0.1, b, bb], [bb, 0.1, b], [b, bb, 0.1]])
    assert np.array_equal(h, expected)


def test_h3_weak_intertwining_sampled(rng):
    p = cyclic_p(3)
    pinv = adjoint(p)  # unitary shift
    for _ in range(100):
        a, b = sample_h3_params(rng)
        h = build_h3(a, b)
        assert frobenius(p @ h @ pinv - adjoint(h)) <= 1e-13 * frobenius(h)


class TestPseudoMetricFlags:
    def test_parity2_flags(self):
        pm = PseudoMetric.from_matrix(parity2())
        assert pm.self_adjoint and pm.invertible
        assert pm.smallest_singular_value == pytest.approx(1.0)

    def test_cyclic_flags(self):
        pm = PseudoMetric.from_matrix(cyclic_p(3))
        assert pm.invertible
        assert not pm.self_adjoint

    def test_dim(self):
        assert PseudoMetric.from_matrix(cyclic_p(4)).dim == 4

    @pytest.mark.parametrize(
        "m",
        [parity2(), cyclic_p(3), np.diag([1.0 + 0j, 0.0]), np.zeros((2, 2), complex),
         np.array([[1.0, 2.0], [3.0, 4.0 + 1e-3j]])],
        ids=["parity2", "cyclic3", "singular", "zero", "general"],
    )
    def test_condition_is_numpy_cond(self, m):
        assert PseudoMetric.from_matrix(m).condition == np.linalg.cond(m)

    def test_inverse_is_computed_once_and_matches_linalg(self):
        p = np.array([[1.0, 2.0], [3.0, 4.0 + 1e-3j]])
        pm = PseudoMetric.from_matrix(p)
        assert np.array_equal(pm.inverse, np.linalg.inv(p))
        assert pm.inverse is pm.inverse

    def test_cyclic_inverse_is_adjoint(self):
        p = cyclic_p(5)
        assert np.allclose(PseudoMetric.from_matrix(p).inverse, p.conj().T, atol=1e-14)

    def test_inverse_roundtrip(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        assert np.allclose(m @ PseudoMetric.from_matrix(m).inverse, np.eye(4), atol=1e-12)

    def test_inverse_refused_like_linalg(self):
        partner = hermitian_sum(cyclic_p(4))
        cond = np.linalg.cond(partner.matrix)
        with pytest.raises(SingularMatrix) as info:
            partner.inverse
        assert str(info.value) == f"condition estimate {cond:.3e} exceeds cap 1e+12"
        assert info.value.condition == cond and cond > CONDITION_CAP


class TestHermitianSum:
    def test_always_hermitian(self, rng):
        for _ in range(20):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert is_hermitian(hermitian_sum(m).matrix)

    def test_cyclic4_singular(self):
        # shift eigenvalues i^k; the sum has eigenvalues 2cos(pi k/2) = {2,0,0,-2}
        pm = hermitian_sum(cyclic_p(4))
        assert not pm.invertible
        assert pm.smallest_singular_value <= 1e-12
        w = np.sort(np.linalg.eigvalsh(pm.matrix))
        assert w == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-12)

    def test_cyclic3_invertible(self):
        pm = hermitian_sum(cyclic_p(3))
        assert pm.invertible
        assert pm.smallest_singular_value == pytest.approx(1.0, abs=1e-12)


class TestHermitianRotation:
    def test_always_hermitian(self, rng):
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            theta = rng.uniform(0, 2 * np.pi)
            assert is_hermitian(hermitian_rotation(m, theta).matrix)

    def test_cyclic4_quarter_turn_spectrum(self):
        pm = hermitian_rotation(cyclic_p(4), np.pi / 4)
        assert pm.invertible
        w = np.sort(np.linalg.eigvalsh(pm.matrix))
        rt2 = np.sqrt(2.0)
        assert w == pytest.approx([-rt2, -rt2, rt2, rt2], abs=1e-12)

    def test_cyclic4_zero_angle_singular(self):
        pm = hermitian_rotation(cyclic_p(4), 0.0)
        assert not pm.invertible
        assert pm.smallest_singular_value <= 1e-12

    def test_self_adjoint_candidate_reduces_to_minus_2p(self):
        p = parity2()
        out = hermitian_rotation(p, np.pi / 2).matrix
        assert np.allclose(out, -2.0 * p, atol=1e-14)

    def test_theta_must_be_real(self):
        with pytest.raises(ValueError):
            hermitian_rotation(parity2(), 1j)


def test_discriminant_matches_classify(rng):
    for _ in range(50):
        a, d, b = sample_h2_params_any(rng)
        assert classify_h2(a, d, b).discriminant == discriminant_h2(a, d, b)
