from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryptoherm.linalg
from cryptoherm import (
    DimensionMismatch,
    NonRealQuasiparity,
    PseudoMetric,
    VanishingOverlap,
    ZeroKappa,
    build_bundle,
    build_h2,
    build_h3,
    build_metric,
    cyclic_p,
    frobenius,
    involutive_normalization,
    parity2,
    solve_biorthogonal,
)
from cryptoherm.linalg import DEFAULT_TOL, _hermitian, resolved_positive
from cryptoherm.metric import INVOLUTIVITY_TOL, reference_quasiparity_coeffs
from conftest import SWAP2, count_calls, factorization_residuals, sample_h2_params, sample_similar


W3 = np.exp(2j * np.pi / 3)


def _hermitian_system(rng, n=4):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return solve_biorthogonal(m + m.conj().T)


class TestQuasiparityCoeffs:
    def test_two_level_oracle(self, h2_system):
        # overlaps <E|P|E> = -0.6, +0.6 give q = (-5/3, +5/3)
        _, sys_ = h2_system
        q = build_bundle(sys_, parity2()).q
        assert q == pytest.approx([-5.0 / 3.0, 5.0 / 3.0], abs=1e-12)

    def test_three_level_oracle(self, h3_system):
        # Fourier eigenvectors give q_k = exp(2 pi i k / 3), energy order (w, w^2, 1)
        _, sys_ = h3_system
        q = build_bundle(sys_, cyclic_p(3)).q
        assert q == pytest.approx([W3, W3**2, 1.0], abs=1e-12)

    def test_hermitian_identity_candidate(self, rng):
        sys_ = _hermitian_system(rng)
        assert build_bundle(sys_, np.eye(4)).q == pytest.approx(np.ones(4), abs=1e-12)

    def test_kappa_two_on_one_level_quarters_that_coefficient(self, rng):
        sys_ = _hermitian_system(rng)
        kappa = np.ones(4, dtype=complex)
        kappa[1] = 2.0
        q = build_bundle(replace(sys_, kappa=kappa), np.eye(4)).q
        assert q[1] == pytest.approx(0.25, abs=1e-12)
        assert q[0] == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_overlap_refused(self):
        # eigenvector (1, i)/sqrt 2 is swap-null: <v|X|v> = 0 exactly
        u = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0)
        h = u @ np.diag([1.0, 2.0]) @ u.conj().T
        sys_ = solve_biorthogonal(h)
        with pytest.raises(VanishingOverlap) as info:
            build_bundle(sys_, SWAP2)
        assert info.value.index in (0, 1)

    def test_candidate_of_another_dimension_refused(self):
        sys_ = solve_biorthogonal(build_h2(1.0, 0.0, 0.4j))
        with pytest.raises(DimensionMismatch) as info:
            build_bundle(sys_, cyclic_p(3))
        assert str(info.value) == "candidate dimension 3 != system dimension 2"


class TestChargeCoeffs:
    def test_conjugate_of_quasiparity(self, h3_system):
        _, sys_ = h3_system
        p = cyclic_p(3)
        q = reference_quasiparity_coeffs(sys_, p)
        c = np.conj(build_bundle(sys_, p).q)
        assert c == pytest.approx(np.conj(q), abs=1e-12)

    def test_hermitian_identity_candidate(self, rng):
        sys_ = _hermitian_system(rng)
        assert np.conj(build_bundle(sys_, np.eye(4)).q) == pytest.approx(np.ones(4), abs=1e-12)

    def test_real_for_self_adjoint_candidate(self, h2_system):
        _, sys_ = h2_system
        c = np.conj(build_bundle(sys_, parity2()).q)
        q = reference_quasiparity_coeffs(sys_, parity2())
        assert np.max(np.abs(c.imag)) <= 1e-12
        assert c == pytest.approx(q, abs=1e-12)


class TestBuilders:
    def test_hermitian_identity_gives_identity_operators(self, rng):
        sys_ = _hermitian_system(rng)
        eye = np.eye(4)
        bundle = build_bundle(sys_, eye)
        assert np.allclose(bundle.quasiparity, eye, atol=1e-12)
        assert np.allclose(bundle.charge, eye, atol=1e-12)
        assert np.allclose(build_metric(sys_), eye, atol=1e-12)

    def test_metric_oracle_two_level(self, h2_system):
        # explicit rank-1 sum of the two left eigenvectors
        _, sys_ = h2_system
        theta = build_metric(sys_)
        expected = np.array(
            [
                [25.0 / 9.0, (20.0 / 9.0) * 1j],
                [-(20.0 / 9.0) * 1j, 25.0 / 9.0],
            ]
        )
        assert np.allclose(theta, expected, atol=1e-12)
        w = np.linalg.eigvalsh(theta)
        assert w == pytest.approx([5.0 / 9.0, 5.0], abs=1e-12)

    def test_metric_is_hermitian_positive(self, h2_system, h3_system):
        for _, sys_ in (h2_system, h3_system):
            theta = build_metric(sys_)
            assert _hermitian(theta, DEFAULT_TOL)
            assert resolved_positive(np.linalg.eigvalsh(theta))

    def test_quasiparity_eigen_relation(self, h3_system):
        _, sys_ = h3_system
        p = cyclic_p(3)
        q = reference_quasiparity_coeffs(sys_, p)
        qop = build_bundle(sys_, p).quasiparity
        for n in range(3):
            v = sys_.right[:, n]
            assert np.linalg.norm(qop @ v - q[n] * v) <= 1e-10

    def test_charge_adjoint_eigen_relation(self, h3_system):
        _, sys_ = h3_system
        p = cyclic_p(3)
        bundle = build_bundle(sys_, p)
        c, cop = np.conj(bundle.q), bundle.charge
        for n in range(3):
            v = sys_.right[:, n]
            assert np.linalg.norm(cop.conj().T @ v - c[n] * v) <= 1e-10

    def test_common_real_rescale_scales_operators_inverse_square(self, h2_system):
        _, sys_ = h2_system
        p = parity2()
        r = 1.7
        scaled = replace(sys_, kappa=np.full(2, r, dtype=complex))
        q_before = build_bundle(sys_, p).quasiparity
        q_after = build_bundle(scaled, p).quasiparity
        assert np.allclose(q_after, q_before / r**2, atol=1e-12)


    def test_array_candidate_coerced_once(self, h2_system, monkeypatch):
        # the coefficients take the candidate build_bundle has already wrapped
        _, sys_ = h2_system
        coerced = []
        count_calls(monkeypatch, cryptoherm.linalg.as_complex_matrix, coerced.append)
        build_bundle(sys_, parity2())
        assert [args[1:] for args in coerced] == [("pseudometric",)]


class TestFactorizations:
    def test_key_set_is_pinned(self, h2_system):
        # the two identities the bundle's Theta leaves to measure, in report order
        _, sys_ = h2_system
        assert tuple(build_bundle(sys_, parity2()).residuals) == ("pq", "cp")

    @pytest.mark.parametrize("which", ["h2", "h3"])
    def test_all_identities_hold(self, which, h2_system, h3_system):
        (_, sys_), p = {
            "h2": (h2_system, parity2()),
            "h3": (h3_system, cyclic_p(3)),
        }[which]
        bundle = build_bundle(sys_, p)
        res = factorization_residuals(build_metric(sys_), p, bundle.quasiparity, bundle.charge)
        assert max(res.values()) <= 1e-10

    @pytest.mark.parametrize("which", ["h2", "h3"])
    def test_residuals_match_the_four_products(self, which, h2_system, h3_system):
        (_, sys_), p = {
            "h2": (h2_system, parity2()),
            "h3": (h3_system, cyclic_p(3)),
        }[which]
        bundle = build_bundle(sys_, p)
        theta, qop, cop, res = bundle.theta, bundle.quasiparity, bundle.charge, bundle.residuals
        # Theta equals its adjoint, so each adjoint form has its product's residual
        for measured, product in ((res["pq"], p @ qop), (res["pq"], qop.conj().T @ p.conj().T),
                                  (res["cp"], cop @ p), (res["cp"], p.conj().T @ cop.conj().T)):
            expected = np.linalg.norm(product - theta) / np.linalg.norm(theta)
            assert measured == pytest.approx(expected, rel=0, abs=1e-15)

    def test_trivial_bundle_residuals(self, rng):
        sys_ = _hermitian_system(rng)
        eye = np.eye(4)
        bundle = build_bundle(sys_, eye)
        res = factorization_residuals(build_metric(sys_), eye, bundle.quasiparity, bundle.charge)
        assert max(res.values()) <= 1e-12


def _similar_bundles(seed: int, n: int):
    """(P, bundle) of a seeded H = S D S^-1 and P = S^-dag diag(u) S^-1, Hermitian (u = 1) and not.

    Each P comes twice, with its bundle as built and after a random rescaling kappa.
    """
    rng = np.random.default_rng(seed)
    h, s_inv = sample_similar(rng, n)
    sys_ = solve_biorthogonal(h)
    kappa = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    for u in (np.ones(n), phases):
        p = (s_inv.conj().T * u) @ s_inv
        yield p, build_bundle(sys_, p)
        yield p, build_bundle(replace(sys_, kappa=kappa), p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 4, 16]))
def test_bundle_theta_is_hermitian_bit_for_bit(seed, n):
    # Theta is symmetrized where it is made, so of the four factorization identities
    # the bundle keeps only the two products: Theta equals its adjoint, and the
    # adjoint residuals are the products'
    for p, bundle in _similar_bundles(seed, n):
        assert np.array_equal(bundle.theta, bundle.theta.conj().T)
        res = factorization_residuals(bundle.theta, p, bundle.quasiparity, bundle.charge)
        assert bundle.residuals == {"pq": res["pq"], "cp": res["cp"]}
        assert (res["qdag_pdag"], res["pdag_cdag"]) == (res["pq"], res["cp"])


@pytest.mark.kernel
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 16]))
def test_only_the_moduli_of_kappa_reach_the_bundle(seed, n):
    # Theta = sum_n l_n |kappa_n|^-2 adjoint(l_n) and q_n = q1_n / |kappa_n|^2: the bundle
    # reads kappa once, as |kappa|^2, so kappa and its moduli give the same bits everywhere
    rng = np.random.default_rng(seed)
    h, s_inv = sample_similar(rng, n)
    sys_ = solve_biorthogonal(h)
    moduli = np.exp(rng.uniform(-3.0, 3.0, n))
    kappa = moduli * np.exp(2j * np.pi * rng.uniform(size=n))
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    for u in (np.ones(n), phases):
        p = (s_inv.conj().T * u) @ s_inv
        a = build_bundle(replace(sys_, kappa=kappa), p)
        b = build_bundle(replace(sys_, kappa=np.abs(kappa).astype(np.complex128)), p)
        for field in ("theta", "quasiparity", "charge", "q", "theta_eigenvalues"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), (field, seed, n)
        assert (a.residuals, a.theta_norm) == (b.residuals, b.theta_norm)


#: ||Theta(H^dag) Theta(H) - I||_F / sqrt(N) may reach C_DUAL kappa^2 eps ||H||_F / gap,
#: with kappa the largest ||left[:, n]|| of H's system and gap its smallest level spacing.
#: The largest ratio over seeds 0-1499 at N = 2 ... 64 (0-5 at N = 256) under the
#: SkylakeX, Haswell and Prescott kernels was 4.5 (CHANGES.md): a margin of about three
C_DUAL = 16


@pytest.mark.kernel
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4, 16, 64]))
@example(seed=0, n=256)
def test_the_metric_of_the_adjoint_is_the_inverse_metric(seed, n):
    # H^dag Theta = Theta H exactly when H Theta^-1 = Theta^-1 H^dag (Dieudonne; Scholtz,
    # Geyer & Hahne): the system of H^dag pairs its right columns with H's left ones and
    # its left columns with H's right ones, each up to the factor ||l_n|| of H's unit-norm
    # right columns, so rescaled by kappa'_n = ||l_n|| its Theta is R R^dag = Theta(H)^-1
    h, _ = sample_similar(np.random.default_rng(seed), n)
    system = solve_biorthogonal(h)
    norms = np.linalg.norm(system.left, axis=0)
    dual = replace(solve_biorthogonal(h.conj().T), kappa=norms)
    product = build_metric(dual) @ build_metric(system)
    unit = float(norms.max()) ** 2 * np.finfo(np.float64).eps * np.linalg.norm(h) / float(
        np.diff(system.energies).min())
    assert np.linalg.norm(product - np.eye(n)) / np.sqrt(n) <= C_DUAL * unit


@pytest.mark.kernel
class TestGates:
    _FLOAT64 = "metric operators leave float64: theta, Q, C or a residual is not finite"

    def test_involution_residuals_are_read_once(self, h2_system):
        _, sys_ = h2_system
        _, out = involutive_normalization(sys_, parity2())
        bundle = build_bundle(out, parity2())
        qop, cop, eye = bundle.quasiparity, bundle.charge, np.eye(2)
        assert bundle.involution_residuals == (frobenius(qop @ qop - eye),
                                               frobenius(cop @ cop - eye))
        assert bundle.involution_residuals is bundle.involution_residuals
        assert bundle.involutions_hold
        # at kappa = 1 the coefficients are not +-1, so Q^2 is not the identity
        plain = build_bundle(sys_, parity2())
        assert min(plain.involution_residuals) > INVOLUTIVITY_TOL
        assert not plain.involutions_hold

    def test_theta_eigenvalues_are_read_once_off_the_right_columns(self, h2_system,
                                                                    monkeypatch):
        # the bundle holds R itself, and build_bundle takes no SVD: the spectrum's one
        # values-only SVD of R runs on first read
        _, sys_ = h2_system
        svds = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or real(*a, **k))
        bundle = build_bundle(sys_, parity2())
        assert bundle.right is sys_.right and bundle.kappa is sys_.kappa and svds == []
        w = bundle.theta_eigenvalues
        assert bundle.theta_eigenvalues is w and len(svds) == 1
        assert w == pytest.approx(np.linalg.eigvalsh(bundle.theta), rel=1e-14)

    def test_every_bundle_past_the_gate_has_a_positive_ascending_spectrum(self):
        # the corpus's `metric --kappa` construction on build_h2(1, 0, 0.3i) with
        # kappa_0 and kappa_1 from 1e-80 to 1e80: wherever the float64 gate lets the
        # bundle stand (every pair from 1e-75 to 1e75 does), 1/sigma(R)^2 is finite,
        # positive, ascending and sums to tr(Theta)
        sys_ = solve_biorthogonal(build_h2(1.0, 0.0, 0.3j))
        grid = 10.0 ** np.arange(-80, 81, 5)
        stood = 0
        for k0 in grid:
            for k1 in grid:
                try:
                    bundle = build_bundle(replace(sys_, kappa=np.array([k0, k1])), parity2())
                except ZeroKappa:
                    continue
                w = bundle.theta_eigenvalues
                assert np.isfinite(w).all() and (w > 0).all() and w[0] <= w[1], (k0, k1, w)
                assert w.sum() == pytest.approx(np.trace(bundle.theta).real, rel=1e-13)
                stood += 1
        assert 31 ** 2 <= stood < grid.size ** 2

    def test_operator_beyond_float64_is_refused_without_warnings(self, h2_system):
        # |kappa_0|^2 and its inverse fit, but C overflows
        _, sys_ = h2_system
        with pytest.raises(ZeroKappa) as info:
            build_bundle(replace(sys_, kappa=np.array([1e-150, 1.0])), parity2())
        assert str(info.value) == self._FLOAT64

    @staticmethod
    def _edge_system(kappa0):
        # build_h2(1, 0, 0.3i) with kappa_0 = kappa0: Theta's largest entry is about kappa0^-2
        return replace(solve_biorthogonal(build_h2(1.0, 0.0, 0.3j)), kappa=np.array([kappa0, 1.0]))

    def test_theta_norm_overflow_is_refused(self):
        # at kappa_0 = 1e-80 every entry of Theta is finite (the largest is 1.4e160), but
        # ||Theta||_F overflows, and residuals divided by it would read 0
        sys_ = self._edge_system(1e-80)
        theta = build_metric(sys_)
        assert np.isfinite(theta).all() and np.abs(theta).max() > 1e160
        with np.errstate(over="ignore"):
            assert frobenius(theta) == np.inf
        with pytest.raises(ZeroKappa) as info:
            build_bundle(sys_, parity2())
        assert str(info.value) == self._FLOAT64

    def test_theta_norm_near_overflow_keeps_its_residuals(self):
        # at kappa_0 = 1e-75, ||Theta||_F = 1.6e150: the residuals are round-off, not zeros
        bundle = build_bundle(self._edge_system(1e-75), parity2())
        assert np.isfinite(bundle.theta_norm)
        for key in ("pq", "cp"):
            assert 1e-17 < bundle.residuals[key] < 1e-15
        assert bundle.factorizations_hold

    def test_theta_norm_underflow_is_refused(self):
        # the involutive kappa for P = 1e-308 diag(1, -1) is about 1e154, so
        # ||Theta||_F underflows to 0 and the residuals are undefined
        pm = PseudoMetric.from_matrix(1e-308 * parity2())
        _, out = involutive_normalization(solve_biorthogonal(build_h2(1.0, 0.0, 0.4j)), pm)
        assert frobenius(build_metric(out)) == 0.0
        with pytest.raises(ZeroKappa) as info:
            build_bundle(out, pm)
        assert str(info.value) == self._FLOAT64

    def test_coefficient_underflow_to_zero_is_refused(self):
        # q_1 = 1/<v|P|v>/|kappa_1|^2 is about 1e-150/1e308: it underflows to -0,
        # while Theta, Q, C and the residuals stay finite
        pm = PseudoMetric.from_matrix(1e150 * parity2())
        sys_ = replace(solve_biorthogonal(np.array([[1.0, 2.0], [0.5, 3.0]])),
                       kappa=np.array([-1 + 1e-8j, 1e154 + 1e-12j]))
        assert (reference_quasiparity_coeffs(sys_, pm) / np.abs(sys_.kappa) ** 2)[1] == 0
        with pytest.raises(ZeroKappa) as info:
            build_bundle(sys_, pm)
        assert str(info.value) == "quasiparity coefficient q_1 underflows to zero"


class TestKappaInvariance:
    def test_pure_phases_leave_metric_unchanged(self, h3_system):
        _, sys_ = h3_system
        theta = build_metric(sys_)
        out = replace(sys_, kappa=np.exp(1j * np.array([0.7, -2.1, 0.4])))
        assert np.max(np.abs(build_metric(out) - theta)) <= 1e-12

    def test_coeffs_scale_as_inverse_modulus_squared(self, h2_system):
        _, sys_ = h2_system
        p = parity2()
        q1 = build_bundle(sys_, p).q
        kappa = np.array([2.0, 0.5 - 1.0j])
        out = replace(sys_, kappa=kappa)
        q2 = build_bundle(out, p).q
        assert q2 == pytest.approx(q1 / np.abs(kappa) ** 2, rel=1e-11)


class TestInvolutive:
    def test_two_level_normalization(self, h2_system):
        _, sys_ = h2_system
        p = parity2()
        kappa, out = involutive_normalization(sys_, p)
        assert kappa == pytest.approx(np.full(2, np.sqrt(5.0 / 3.0)), abs=1e-12)
        assert build_bundle(out, p).q == pytest.approx([-1.0, 1.0], abs=1e-10)
        bundle = build_bundle(out, p)
        qop, cop = bundle.quasiparity, bundle.charge
        assert frobenius(qop @ qop - np.eye(2)) <= 1e-10
        assert frobenius(cop @ cop - np.eye(2)) <= 1e-10

    def test_known_coefficients_give_known_kappa(self):
        # q1 = (4, 1, 1/4) comes from the diagonal candidate (1/4, 1, 4)
        h = np.diag([1.0 + 0j, 2.0, 3.0])
        p = np.diag([0.25, 1.0, 4.0])
        sys_ = solve_biorthogonal(h)
        kappa, out = involutive_normalization(sys_, p)
        assert kappa == pytest.approx([2.0, 1.0, 0.5], abs=1e-12)
        assert build_bundle(out, p).q == pytest.approx(np.ones(3), abs=1e-12)

    def test_hermitian_identity_candidate_is_trivial(self, rng):
        sys_ = _hermitian_system(rng)
        kappa, out = involutive_normalization(sys_, np.eye(4))
        assert kappa == pytest.approx(np.ones(4), abs=1e-12)
        assert np.allclose(build_bundle(out, np.eye(4)).quasiparity, np.eye(4), atol=1e-10)

    def test_non_real_coefficients_refused_with_indices(self, h3_system):
        _, sys_ = h3_system
        with pytest.raises(NonRealQuasiparity) as info:
            involutive_normalization(sys_, cyclic_p(3))
        assert info.value.indices == (0, 1)

    def test_injected_imaginary_coefficient_names_its_level(self):
        # candidate diag(-2i, 1) makes q1_0 = 1/(-2i) = 0.5i exactly
        h = np.diag([1.0 + 0j, 2.0])
        sys_ = solve_biorthogonal(h)
        p = np.diag([-2.0j, 1.0])
        with pytest.raises(NonRealQuasiparity) as info:
            involutive_normalization(sys_, p)
        assert info.value.indices == (0,)

    def test_idempotent_once_normalized(self, h2_system):
        _, sys_ = h2_system
        p = parity2()
        kappa1, out1 = involutive_normalization(sys_, p)
        kappa2, out2 = involutive_normalization(out1, p)
        # the coefficients come from the same columns, whatever kappa out1 carries
        assert np.array_equal(kappa2, kappa1)
        assert out2.right is out1.right is sys_.right


def test_naive_loop_equivalence_three_level(h3_system):
    # independent entrywise reimplementation of all three spectral sums
    _, sys_ = h3_system
    p = cyclic_p(3)
    sys_ = replace(sys_, kappa=np.array([2.0, 1.0 + 1.0j, 0.5]))
    n = sys_.dim

    weight = 1.0 / np.abs(sys_.kappa) ** 2
    q = np.array(
        [1.0 / np.vdot(sys_.right[:, k], p @ sys_.right[:, k]) for k in range(n)]
    ) * weight

    theta = np.zeros((n, n), dtype=complex)
    qop = np.zeros((n, n), dtype=complex)
    cop = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                theta[i, j] += sys_.left[i, k] * weight[k] * np.conj(sys_.left[j, k])
                qop[i, j] += sys_.right[i, k] * q[k] * np.conj(sys_.left[j, k])
                cop[i, j] += sys_.left[i, k] * q[k] * np.conj(sys_.right[j, k])

    assert np.max(np.abs(build_metric(sys_) - theta)) <= 1e-12
    bundle = build_bundle(sys_, p)
    assert np.max(np.abs(bundle.quasiparity - qop)) <= 1e-12
    assert np.max(np.abs(bundle.charge - cop)) <= 1e-12


def test_metric_quasi_hermitian_across_interior_samples(rng):
    # Theta H = adjoint(H) Theta must come out of the construction itself
    for _ in range(50):
        a, d, b = sample_h2_params(rng)
        h = build_h2(a, d, b)
        sys_ = solve_biorthogonal(h)
        theta = build_metric(sys_)
        num = frobenius(theta @ h - h.conj().T @ theta)
        assert num <= 1e-9 * frobenius(theta) * frobenius(h)
