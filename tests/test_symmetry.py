import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptoherm import (
    ComplexSpectrum,
    DegenerateSpectrum,
    NotHermitian,
    NotPositiveDefinite,
    PseudoMetric,
    SingularMatrix,
    Tolerance,
    build_h2,
    build_h3,
    build_metric,
    cyclic_p,
    diagnose,
    hermitian_partners,
    parity2,
    pseudo_hermiticity_residual,
    pt_commutant_check,
    quasi_hermiticity_residual,
    solve_biorthogonal,
    swap2,
    weak_triplet_check,
)
from cryptoherm import linalg, symmetry
from cryptoherm.errors import DimensionMismatch
from conftest import count_calls, sample_h2_params_any, sample_h3_params, sample_similar


class TestPseudoHermiticity:
    def test_two_level_family_holds(self, rng):
        for _ in range(100):
            a, d, b = sample_h2_params_any(rng)
            v = pseudo_hermiticity_residual(build_h2(a, d, b), parity2())
            assert v.holds
            assert v.residual <= 1e-13

    def test_three_level_holds(self, h3_system):
        h, _ = h3_system
        v = pseudo_hermiticity_residual(h, cyclic_p(3))
        assert v.holds and v.residual <= 1e-13

    def test_nilpotent_counterexample(self):
        # PH - adjoint(H) P = [[0,1],[-1,0]], of norm sqrt(2), over ||P|| ||H|| = sqrt(2)
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        v = pseudo_hermiticity_residual(h, parity2())
        assert not v.holds
        assert v.residual == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("skew", [0.0, 3e-11, 0.5])
    def test_multiplicative_form_for_every_candidate(self, skew):
        # P = S^-dag diag(u) S^-1 intertwines H = S D S^-1 for any u; Im u_3 = skew
        # leaves P exactly Hermitian, Hermitian within tol, or not self-adjoint.  A
        # one-product form would read ||adjoint(H)(P - adjoint(P))|| on the middle
        # one, so only a P equal to its adjoint bit for bit may take it
        h, s_inv = sample_similar(np.random.default_rng(5), 4)
        p = (s_inv.conj().T * np.array([1.0, 2.0, 3.0, 4.0 + 1j * skew])) @ s_inv
        if skew == 0.0:
            p = 0.5 * (p + p.conj().T)
        v = pseudo_hermiticity_residual(h, p)
        direct = np.linalg.norm(p @ h - h.conj().T @ p) / (np.linalg.norm(p) * np.linalg.norm(h))
        assert v.holds and v.residual <= 1e-15 and abs(v.residual - direct) <= 1e-15
        assert PseudoMetric.from_matrix(p).self_adjoint == (skew < 1e-3)

    def test_singular_candidate_refused(self, h2_system):
        h, _ = h2_system
        with pytest.raises(SingularMatrix):
            pseudo_hermiticity_residual(h, np.diag([1.0, 0.0]))

    def test_verdict_fields(self, h2_system):
        h, _ = h2_system
        v = pseudo_hermiticity_residual(h, parity2())
        assert v.name == "pseudo_hermitian"
        assert v.holds == (v.residual <= v.tolerance)


class TestWeakTriplet:
    def test_three_level_family(self, rng):
        p = cyclic_p(3)
        for _ in range(50):
            a, b = sample_h3_params(rng)
            v = weak_triplet_check(build_h3(a, b), p)
            assert v.holds and v.residual <= 1e-12

    def test_random_matrix_fails_on_commutant(self, rng):
        # the commutant follows from the P equation only where that holds
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = weak_triplet_check(m, cyclic_p(3))
        assert not v.holds
        assert v.residual > 0.01

    def test_self_adjoint_candidate_degenerates(self, h2_system):
        # with P = adjoint(P) the triplet's three equations are one: the P equation's
        h, _ = h2_system
        v = weak_triplet_check(h, parity2())
        assert v == replace(pseudo_hermiticity_residual(h, parity2()), name="weak_triplet")
        assert v.holds

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 4, 16]),
           kind=st.sampled_from(["hermitian", "indefinite", "non-hermitian"]),
           intertwined=st.booleans())
    def test_is_the_p_equation_verdict(self, seed, n, kind, intertwined):
        # P = S^-dag diag(u) S^-1 intertwines H = S D S^-1; a Hermitian P is made so
        # bit for bit, and a perturbed H makes the P equation fail
        rng = np.random.default_rng(seed)
        h, s_inv = sample_similar(rng, n)
        u = {"hermitian": [1.0], "indefinite": [1.0, -1.0], "non-hermitian": [1j, -1j, 1.0]}
        p = s_inv.conj().T * rng.choice(u[kind], n) @ s_inv
        if kind == "hermitian":
            p = 0.5 * (p + p.conj().T)
        if not intertwined:
            h = h + 0.1 * rng.standard_normal((n, n))
        pseudo = pseudo_hermiticity_residual(h, p)
        assert weak_triplet_check(h, p) == replace(pseudo, name="weak_triplet")

    def test_adjoint_pair_symmetry(self, rng):
        # first two equations are adjoints of one another, so swapping
        # P for adjoint(P) must not move the residual when both hold
        for _ in range(20):
            a, b = sample_h3_params(rng)
            h = build_h3(a, b)
            p = cyclic_p(3)
            r_p = pseudo_hermiticity_residual(h, p).residual
            r_pd = pseudo_hermiticity_residual(h, p.conj().T).residual
            assert abs(r_p - r_pd) <= 1e-12


class TestQuasiHermiticity:
    def test_hermitian_with_identity_metric(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = quasi_hermiticity_residual(m + m.conj().T, np.eye(3))
        assert v.holds
        assert v.residual <= 1e-15

    def test_constructed_metric_closes_the_loop(self, h2_system):
        h, sys_ = h2_system
        v = quasi_hermiticity_residual(h, build_metric(sys_))
        assert v.holds
        assert v.residual <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_one_product_residual_matches_the_two_product_form(self, n, rng):
        # for a Hermitian Theta, adjoint(H) Theta = adjoint(Theta H): one product suffices
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        theta = a @ a.conj().T + np.eye(n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = np.linalg.norm(theta @ h - h.conj().T @ theta) / (
            np.linalg.norm(theta) * np.linalg.norm(h))
        assert quasi_hermiticity_residual(h, theta).residual == pytest.approx(
            expected, rel=0, abs=1e-15)

    def test_rejects_non_hermitian_candidate(self, h2_system):
        h, _ = h2_system
        with pytest.raises(NotHermitian):
            quasi_hermiticity_residual(h, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite_candidate(self, h2_system):
        h, _ = h2_system
        with pytest.raises(NotPositiveDefinite):
            quasi_hermiticity_residual(h, np.diag([1.0, -1.0]))

    @pytest.mark.parametrize(
        "h, p",
        [(build_h2(1.0, 0.0, 0.4j), parity2()), (build_h3(0.0, 0.3 + 0.4j), cyclic_p(3))],
        ids=["h2", "h3"],
    )
    def test_bundle_gives_the_matrix_verdict(self, h, p):
        # diagnose measures the bundle's Theta, positive definite by construction, as the
        # public check measures any candidate it accepts
        found = diagnose(h, p)
        assert found.verdicts[-1] == quasi_hermiticity_residual(h, found.bundle.theta)

    def test_exterior_model_admits_no_metric(self, rng):
        # complex spectrum: every positive candidate leaves a visible floor
        h = build_h2(1.0, 0.0, 0.6j)
        floors = []
        for _ in range(10):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            theta = m @ m.conj().T + np.eye(2)
            floors.append(quasi_hermiticity_residual(h, theta).residual)
        assert min(floors) > 1e-3


class TestPtCommutant:
    def test_identity_commutes_with_everything(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert pt_commutant_check(m, np.eye(4)).holds

    def test_cyclic_model_commutes_with_shift(self, h3_system):
        h, _ = h3_system
        v = pt_commutant_check(h, cyclic_p(3))
        assert v.holds and v.residual <= 1e-15

    def test_two_level_fails_against_swap(self, h2_system):
        h, _ = h2_system
        assert not pt_commutant_check(h, swap2()).holds

    def test_dimension_mismatch(self, h2_system):
        h, _ = h2_system
        with pytest.raises(DimensionMismatch):
            pt_commutant_check(h, np.eye(3))

    def test_each_operand_validated_once(self, h2_system, monkeypatch):
        h, _ = h2_system
        s = swap2()
        expected = linalg.frobenius(h @ s - s @ h) / (linalg.frobenius(h) * linalg.frobenius(s))
        coerced = []
        count_calls(monkeypatch, linalg.as_complex_matrix, coerced.append)
        assert pt_commutant_check(h, s).residual == expected
        assert len(coerced) == 2


def test_all_residuals_scale_invariant(h3_system):
    h, _ = h3_system
    p = cyclic_p(3)
    theta = build_metric(solve_biorthogonal(h))
    for s in (1e-6, 1.0, 1e6):
        hs = s * h
        assert abs(
            pseudo_hermiticity_residual(hs, p).residual
            - pseudo_hermiticity_residual(h, p).residual
        ) <= 1e-12
        assert abs(
            weak_triplet_check(hs, p).residual - weak_triplet_check(h, p).residual
        ) <= 1e-12
        assert abs(
            quasi_hermiticity_residual(hs, theta).residual
            - quasi_hermiticity_residual(h, theta).residual
        ) <= 1e-12
        assert abs(
            pt_commutant_check(hs, p).residual - pt_commutant_check(h, p).residual
        ) <= 1e-12


@pytest.mark.parametrize(
    "check, operand",
    [(pseudo_hermiticity_residual, cyclic_p(3)), (weak_triplet_check, cyclic_p(3)),
     (quasi_hermiticity_residual, np.eye(3)), (diagnose, cyclic_p(3))],
    ids=["pseudo_hermitian", "weak_triplet", "quasi_hermitian", "diagnose"],
)
def test_shape_mismatch_is_dimension_mismatch(check, operand):
    with pytest.raises(DimensionMismatch, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
        check(build_h2(1.0, 0.0, 0.3j), operand)


@pytest.mark.parametrize(
    "h, p",
    [(build_h3(0.0, 0.3 + 0.4j), cyclic_p(3)), (build_h2(1.0, 0.0, 0.4j), parity2())],
    ids=["h3-cyclic3", "h2-parity2"],
)
def test_diagnose_solves_the_p_equation_once(h, p, monkeypatch):
    # one P equation per diagnosis, on the candidate as given
    operands = []
    direct = symmetry._p_equation

    def counted(hm, hnorm, cand):
        operands.append(cand.matrix)
        return direct(hm, hnorm, cand)

    monkeypatch.setattr(symmetry, "_p_equation", counted)
    found = diagnose(h, p)
    assert [np.array_equal(x, p) for x in operands] == [True]
    assert found.verdicts[0] == pseudo_hermiticity_residual(h, p)


@pytest.mark.parametrize(
    "h, p",
    [(build_h3(0.0, 0.3 + 0.4j), cyclic_p(3)), (build_h2(1.0, 0.0, 0.4j), parity2())],
    ids=["h3-cyclic3", "h2-parity2"],
)
def test_diagnose_tests_p_exactly_once_and_never_tolerantly(h, p, monkeypatch):
    # the P equation reads one exact test of P = adjoint(P), and nothing in diagnose
    # asks whether P is Hermitian within the tolerance
    exact, tolerant = [], []
    direct = PseudoMetric.__dict__["_exactly_self_adjoint"].func

    def counted(cand):
        exact.append(cand.matrix)
        return direct(cand)

    verdict = functools.cached_property(counted)
    verdict.__set_name__(PseudoMetric, "_exactly_self_adjoint")
    monkeypatch.setattr(PseudoMetric, "_exactly_self_adjoint", verdict)
    count_calls(monkeypatch, linalg._hermitian, tolerant.append)
    found = diagnose(h, p)
    assert found.holds
    assert [np.array_equal(x, p) for x in exact] == [True]
    assert tolerant == []


@pytest.mark.parametrize(
    "h, p",
    [(build_h3(0.0, 0.3 + 0.4j), cyclic_p(3)), (build_h2(1.0, 0.0, 0.4j), parity2())],
    ids=["h3-cyclic3", "h2-parity2"],
)
def test_diagnose_measures_h_once(h, p, monkeypatch):
    # ||H||_F is handed to the solver and to every symmetry step
    operands = []
    count_calls(monkeypatch, linalg.frobenius, lambda args: operands.append(args[0]))
    diagnose(h, p)
    assert [np.array_equal(x, h) for x in operands].count(True) == 1


def _h2_at_discriminant(disc):
    # build_h2(1, 0, i beta) has disc = 1 - 4 beta^2
    return build_h2(1.0, 0.0, 1j * np.sqrt((1.0 - disc) / 4.0))


@pytest.mark.parametrize(
    "h, p, obstruction, holds, verdicts, warning",
    [
        (build_h3(0.0, 0.3 + 0.4j), cyclic_p(3), None, True,
         ("pseudo_hermitian", "quasi_hermitian"), "non-real quasiparity at levels "),
        (build_h2(1.0, 0.0, 0.3j), swap2(), None, False, ("pseudo_hermitian",),
         "metric construction failed: <v_0|P|v_0> = "),
        (build_h2(1.0, 0.0, 0.7), parity2(), ComplexSpectrum, False, ("pseudo_hermitian",),
         "spectrum obstruction: ComplexSpectrum: "),
        (build_h2(1.0, 0.0, 0.5), parity2(), DegenerateSpectrum, False, ("pseudo_hermitian",),
         "spectrum obstruction: DegenerateSpectrum: "),
        (_h2_at_discriminant(1e-12), parity2(), None, True,
         ("pseudo_hermitian", "quasi_hermitian"), "degeneracy proximity: smallest gap "),
    ],
    ids=["ok", "vanishing_overlap", "complex_spectrum", "degenerate_spectrum",
         "degeneracy_proximity"],
)
def test_diagnose_outcomes(h, p, obstruction, holds, verdicts, warning):
    found = diagnose(h, p)
    assert found.holds is holds
    assert tuple(v.name for v in found.verdicts) == verdicts
    assert len(found.warnings) == 1 and found.warnings[0].startswith(warning)
    # the reported max |Im E| is the one the reality test reads
    assert found.max_imag == max(abs(e.imag) for e in found.eigenvalues)
    assert found.all_real is (found.max_imag <= Tolerance().rel * float(np.linalg.norm(h)))
    if obstruction is None:
        assert found.obstruction is None and found.all_real
        assert np.array_equal(found.eigenvalues, found.system.eigenvalues)
        assert (found.bundle is None) == (warning.startswith("metric construction failed"))
    else:
        assert isinstance(found.obstruction, obstruction)
        assert found.system is None and found.bundle is None
        assert np.array_equal(found.eigenvalues, found.obstruction.eigenvalues)
    if obstruction is ComplexSpectrum:
        assert not found.all_real


def test_diagnose_reports_operators_beyond_float64():
    # q_n = +-1.7e308 fits, but Q and C overflow: the bundle is refused
    found = diagnose(build_h2(1.0, 0.0, 0.4j), 1e-308 * parity2())
    assert found.warnings == ("metric construction failed: metric operators leave float64: "
                              "theta, Q, C or a residual is not finite",)
    assert found.bundle is None and found.system is not None and not found.holds
    assert [v.name for v in found.verdicts] == ["pseudo_hermitian"]


def _relation_parts(found):
    """A Diagnosis's complex arrays and, apart, its real parts."""
    bundle = found.bundle
    arrays = [found.eigenvalues] + ([] if bundle is None else [bundle.theta, bundle.coeffs.q])
    real = ([(v.name, v.residual, v.holds, v.tolerance) for v in found.verdicts],
            None if bundle is None else dict(bundle.residuals), found.warnings, found.holds)
    return arrays, real


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4, 16, 64]),
       u=st.sampled_from([[1.0], [1.0, -1.0], [1.0, -1.0, 1j, -1j]]))
def test_diagnose_commutes_with_complex_conjugation(seed, n, u):
    # conj P intertwines conj H = conj(S) D conj(S)^-1, and float arithmetic on
    # conjugated operands gives the conjugated result: the eigenvalues, Theta and q
    # come back conjugated, equal as floats (a zero's sign aside), and every verdict,
    # residual, warning and holds as they were
    rng = np.random.default_rng(seed)
    h, s_inv = sample_similar(rng, n)
    p = s_inv.conj().T * rng.choice(u, n) @ s_inv  # S^-dag diag(u) S^-1
    arrays, real = _relation_parts(diagnose(h, p))
    conj_arrays, conj_real = _relation_parts(diagnose(h.conj(), p.conj()))
    assert len(conj_arrays) == len(arrays)
    assert all(np.array_equal(c, a.conj()) for c, a in zip(conj_arrays, arrays))
    assert conj_real == real


def test_small_complex_pair_is_not_real():
    # max |Im E| = 6.2e-14 is far above rel ||H||_F = 1.3e-23: a complex pair at any scale
    found = diagnose(1e-13 * build_h2(1.0, 0.0, 0.8j), parity2())
    assert isinstance(found.obstruction, ComplexSpectrum) and not found.all_real
    assert found.max_imag == pytest.approx(6.245e-14, rel=1e-3)


def test_small_pseudometric_has_the_verdicts_of_its_unit_multiple():
    h = build_h2(1.0, 0.0, 0.4j)
    unit, small = diagnose(h, parity2()), diagnose(h, 1e-13 * parity2())
    assert [(v.name, v.residual, v.holds) for v in small.verdicts] == \
        [(v.name, v.residual, v.holds) for v in unit.verdicts]
    assert small.holds is unit.holds is True


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rel=1e-3), Tolerance(rel=0.0)],
                         ids=["default", "loose", "zero"])
def test_every_verdict_is_held_to_tol_rel(tol):
    h, p = build_h3(0.0, 0.3 + 0.4j), cyclic_p(3)
    theta = build_metric(solve_biorthogonal(h))
    verdicts = [*diagnose(h, p, tol).verdicts, pseudo_hermiticity_residual(h, p, tol),
                weak_triplet_check(h, p, tol), quasi_hermiticity_residual(h, theta, tol),
                pt_commutant_check(h, p, tol)]
    # under rel = 0 the reality test fails, and diagnose gives the P equation's row only
    assert len(verdicts) == (5 if tol.rel == 0.0 else 6)
    assert [v.tolerance for v in verdicts] == [tol.rel] * len(verdicts)
    assert all(v.holds is (v.residual <= tol.rel) for v in verdicts)


#: the angles at which the scaling property reads the Hermitian partners' flags
_SCAN = [0.0, 1.0, math.pi / 2, math.pi, -2.0]


@st.composite
def _sampled_pairs(draw):
    """(H, P) from the conftest samplers: the two-level model over its whole box, real
    or complex, with parity2; the cyclic three-level model with cyclic_p(3); and
    S D S^-1 with P = S^-dag diag(u) S^-1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["h2", "h3", "similar"]))
    if kind == "h2":
        return build_h2(*sample_h2_params_any(rng)), parity2()
    if kind == "h3":
        return build_h3(*sample_h3_params(rng)), cyclic_p(3)
    h, s_inv = sample_similar(rng, draw(st.sampled_from([2, 3, 4, 16])))
    u = rng.choice(draw(st.sampled_from([[1.0], [1.0, -1.0], [1.0, -1.0, 1j, -1j]])), len(h))
    return h, s_inv.conj().T * u @ s_inv


def _scale_free_outcome(h, p):
    found = diagnose(h, p)
    return (found.all_real, type(found.obstruction), [(v.name, v.holds) for v in found.verdicts],
            PseudoMetric.from_matrix(p).invertible,
            [invertible for _, invertible in hermitian_partners(p, _SCAN)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair=_sampled_pairs(), k=st.integers(-40, 40), side=st.sampled_from(["H", "P"]))
@example(pair=(build_h2(1.0, 0.0, 0.8j), parity2()), k=-43, side="H")  # 1.1e-13 H: complex
@example(pair=(build_h2(1.0, 0.0, 0.4j), parity2()), k=-43, side="P")  # 1.1e-13 P: invertible
def test_verdicts_do_not_depend_on_a_power_of_two_scale(pair, k, side):
    # the P and Theta equations hold or fail alike for s H and s P; a power of two
    # scales every entry exactly, so the reality verdict, the obstruction, each
    # verdict, P's invertibility and its partners' flags stay as they are
    h, p = pair
    scaled = (2.0 ** k * h, p) if side == "H" else (h, 2.0 ** k * p)
    assert _scale_free_outcome(*scaled) == _scale_free_outcome(h, p)
