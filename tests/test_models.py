import dataclasses
import itertools
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryptoherm
from cryptoherm import (
    DomainClass,
    PseudoMetric,
    SingularMatrix,
    Tolerance,
    adjoint,
    build_bundle,
    build_h2,
    build_h3,
    classify_h2,
    cyclic_p,
    discriminant_h2,
    frobenius,
    hermitian_partners,
    hermitian_rotation,
    hermitian_sum,
    involutive_normalization,
    is_hermitian,
    parity2,
    solve_biorthogonal,
    swap2,
    sweep_h2,
)
from cryptoherm.h2 import _h2_params
from cryptoherm.linalg import _hermitian
from cryptoherm.models import CONDITION_CAP, PARTNER_STACK_ENTRIES
from conftest import count_calls, sample_h2_params_any, sample_h3_params


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

    @pytest.mark.parametrize("a,d,b", [(1e308, -1e308, 0.0), (1.0, 0.0, 1e308j)])
    def test_overflowing_discriminant_raises(self, a, d, b):
        # a - d overflows to inf silently; 4|b|^2 makes Python raise on its own
        with pytest.raises(OverflowError):
            discriminant_h2(a, d, b)


def _h2_outcome(f, a, d, b):
    """f(a, d, b) with every float as float.hex, or the type and message it raised."""
    try:
        value = f(a, d, b)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(value, DomainClass):
        return value.tag, value.discriminant.hex(), value.boundary_band.hex()
    return value.hex()


def _as_numpy(a, d, b):
    # numpy scalars subclass float and complex, so they take the general coercion
    return np.float64(a), np.float64(d), np.complex128(b)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(allow_nan=False, allow_infinity=False),
       d=st.floats(allow_nan=False, allow_infinity=False),
       b=st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_h2_fast_path_is_the_general_path_bit_for_bit(a, d, b):
    assert all(x is y for x, y in zip(_h2_params(a, d, b), (a, d, b)))  # the fast path
    for f in (classify_h2, discriminant_h2):
        assert _h2_outcome(f, a, d, b) == _h2_outcome(f, *_as_numpy(a, d, b))


@pytest.mark.parametrize(
    "a,d,b",
    [(math.nan, 0.0, 0.4j), (1.0, -math.inf, 0.4j), (1.0, 0.0, complex(math.nan, 0.4)),
     (1.0, 0.0, complex(0.0, math.inf)), (1e308, -1e308, 0j), (1.0, 0.0, 1e308j)],
    ids=["nan-a", "inf-d", "nan-b", "inf-b", "diff-overflows", "b-squared-overflows"],
)
def test_h2_refusals_are_the_same_on_both_paths(a, d, b):
    for f in (classify_h2, discriminant_h2):
        refused = _h2_outcome(f, a, d, b)
        assert refused[0] in (ValueError, OverflowError)
        assert refused == _h2_outcome(f, *_as_numpy(a, d, b))


_MODERATE = st.floats(-1e6, 1e6)
_MODERATE_COMPLEX = st.builds(complex, _MODERATE, _MODERATE)
_INT = st.integers(-10**6, 10**6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point=st.one_of(
    # the fast path: Python floats and a Python complex
    st.tuples(_MODERATE, _MODERATE, _MODERATE_COMPLEX),
    # the general path: ints, and numpy scalars
    st.tuples(_INT, _INT, _INT),
    st.builds(_as_numpy, _MODERATE, _MODERATE, _MODERATE_COMPLEX),
))
@example(point=(1.0, 0.0, 0.4j))
def test_classify_h2_returns_the_frozen_dataclass(point):
    dc = classify_h2(*point)
    built = DomainClass(tag=dc.tag, discriminant=dc.discriminant, boundary_band=dc.boundary_band)
    assert type(dc) is DomainClass
    assert (dc == built, hash(dc), repr(dc)) == (True, hash(built), repr(built))
    assert list(vars(dc).items()) == list(vars(built).items())
    for field in dataclasses.fields(DomainClass):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dc, field.name, "exterior")


def test_from_matrix_returns_a_candidate_unchanged():
    # the one door for P: a PseudoMetric keeps its tolerance and its computed verdicts
    pm = PseudoMetric.from_matrix(parity2())
    assert pm.self_adjoint
    assert PseudoMetric.from_matrix(pm) is pm
    assert PseudoMetric.from_matrix(pm, Tolerance(rel=0.0)) is pm


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


@st.composite
def _candidates(draw):
    """A 1x1 to 4x4 complex matrix: general, zero, singular, tiny or Hermitian."""
    n = draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * n * n, max_size=2 * n * n))
    m = np.array(parts).view(np.complex128).reshape(n, n)
    kind = draw(st.sampled_from(["general", "zero", "singular", "tiny", "hermitian"]))
    if kind == "zero":
        return np.zeros_like(m)
    if kind == "singular":
        m[-1] = 0.5 * m[0] if n > 1 else 0.0
    if kind == "tiny":
        return 1e-14 * m  # every singular value under 1e-12: small, not zero
    if kind == "hermitian":
        return m + m.conj().T
    return m


def _assert_eager_verdicts(m, tol):
    # every verdict of a lazily built candidate against the formula from_matrix
    # used to evaluate eagerly, floats compared bit for bit
    pm = PseudoMetric.from_matrix(m, tol)
    sv = np.linalg.svd(m, compute_uv=False)
    cond = float(np.linalg.cond(m))
    negligible = bool(sv[0] <= 0.0)  # a candidate given directly has floor 0
    assert pm.self_adjoint == is_hermitian(m, tol)
    assert float.hex(pm.condition) == float.hex(cond)
    assert float.hex(pm.smallest_singular_value) == float.hex(float(sv[-1]))
    assert pm.negligible is negligible
    assert pm.invertible is (math.isfinite(cond) and cond <= CONDITION_CAP and not negligible
                             and math.isfinite(1.0 / float(sv[-1])))
    assert type(pm.condition) is type(pm.smallest_singular_value) is float


class TestPseudoMetricFlags:
    def test_parity2_flags(self):
        pm = PseudoMetric.from_matrix(parity2())
        assert pm.self_adjoint and pm.invertible
        assert pm.smallest_singular_value == pytest.approx(1.0)

    def test_cyclic_flags(self):
        pm = PseudoMetric.from_matrix(cyclic_p(3))
        assert pm.invertible
        assert not pm.self_adjoint

    @pytest.mark.parametrize(
        "m",
        [parity2(), cyclic_p(3), np.diag([1.0 + 0j, 0.0]), np.zeros((2, 2), complex),
         np.array([[1.0, 2.0], [3.0, 4.0 + 1e-3j]]), 1e-13 * cyclic_p(3),
         np.array([[2.0, 1.0 - 1j], [1.0 + 1j, -3.0]])],
        # "within-tol-abs" names 1e-13 cyclic_p(3) by the absolute tolerance of 1e-12 that
        # once called it zero; a candidate given directly now has no floor, so it is invertible
        ids=["parity2", "cyclic3", "singular", "zero", "general", "within-tol-abs", "hermitian"],
    )
    def test_condition_is_numpy_cond(self, m):
        assert PseudoMetric.from_matrix(m).condition == np.linalg.cond(m)
        _assert_eager_verdicts(m, Tolerance())

    @settings(max_examples=200, deadline=None)
    @given(m=_candidates(), tol=st.sampled_from(
        [Tolerance(), Tolerance(rel=0.0), Tolerance(rel=1e-3)]))
    @example(m=np.zeros((3, 3), complex), tol=Tolerance())
    @example(m=np.array([[1.0, 2.0j], [0.5, 1.0j]]), tol=Tolerance())  # singular: row 2 = row 1 / 2
    @example(m=1e-13 * cyclic_p(3), tol=Tolerance())  # tiny, and invertible
    @example(m=np.array([[2.0, 1.0 - 1j], [1.0 + 1j, -3.0]]), tol=Tolerance())  # Hermitian
    @example(m=np.array([[2.22507386e-313j]]), tol=Tolerance(rel=1e-3))  # 1 / sv_min overflows
    def test_verdicts_read_lazily_are_the_eager_formulas(self, m, tol):
        _assert_eager_verdicts(m, tol)

    def test_metric_pipeline_reads_no_verdict(self, monkeypatch):
        # from_matrix only validates and stores: the metric pipeline never reads
        # a verdict, so it takes no SVD and no Hermiticity test of P
        svds, hermitian_tests = [], []
        real_svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            svds.append(args)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        count_calls(monkeypatch, cryptoherm.linalg._hermitian, hermitian_tests.append)
        pm = PseudoMetric.from_matrix(parity2())
        _, system = involutive_normalization(solve_biorthogonal(build_h2(1.0, 0.0, 0.4j)), pm)
        build_bundle(system, pm)
        assert (len(svds), len(hermitian_tests)) == (0, 0)
        # each verdict is computed once, on first read; parity2 equals its adjoint
        # bit for bit, so it takes no tolerance test at all
        assert pm.self_adjoint is pm.self_adjoint is True
        assert len(hermitian_tests) == 0
        # a P that is Hermitian only within tolerance takes exactly one
        pm = PseudoMetric.from_matrix(parity2() + np.array([[0.0, 1e-14j], [0.0, 0.0]]))
        assert pm.self_adjoint is pm.self_adjoint is True
        assert len(hermitian_tests) == 1
        # the SVD-based verdicts share one SVD, in any reading order
        names = ("condition", "invertible", "smallest_singular_value", "negligible")
        for order in itertools.permutations(names):
            svds.clear()
            pm = PseudoMetric.from_matrix(cyclic_p(3))
            for name in order + order:
                getattr(pm, name)
            assert len(svds) == 1, order

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=_candidates().map(lambda m: m + m.conj().T),
           scale=st.sampled_from([1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e160, 1e300]),
           tol=st.sampled_from([Tolerance(0.0), Tolerance(rel=1e-16), Tolerance()]))
    @example(m=np.array([[5e-324, 1e-320 - 3e-321j], [1e-320 + 3e-321j, 1.0]]), scale=1.0,
             tol=Tolerance(0.0))  # subnormals, which the test's unit scaling rounds
    def test_self_adjoint_is_the_tolerance_test_for_an_exactly_hermitian_p(self, m, scale, tol):
        # the exact verdict gives self_adjoint without the tolerance test: an exactly
        # Hermitian P passes that test under every tolerance, whatever its scale
        p = m * scale
        assert (p == p.conj().T).all()
        assert PseudoMetric.from_matrix(p, tol).self_adjoint is _hermitian(p, tol) is True

    def test_check_condition_accepts_and_matches_linalg(self):
        p = np.array([[1.0, 2.0], [3.0, 4.0 + 1e-3j]])
        pm = PseudoMetric.from_matrix(p)
        pm.check_condition()
        assert pm.invertible and pm.condition == np.linalg.cond(p)

    def test_check_condition_accepts_cyclic(self):
        # unitary: every singular value is 1
        pm = PseudoMetric.from_matrix(cyclic_p(5))
        pm.check_condition()
        assert pm.condition == pytest.approx(1.0, abs=1e-14)

    def test_check_condition_accepts_shifted_random(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        pm = PseudoMetric.from_matrix(m)
        pm.check_condition()
        assert pm.invertible and pm.condition == pytest.approx(np.linalg.cond(m), rel=1e-14)

    def test_inverse_refused_like_linalg(self):
        partner = hermitian_sum(cyclic_p(4))
        cond = np.linalg.cond(partner.matrix)
        with pytest.raises(SingularMatrix) as info:
            partner.check_condition()
        assert str(info.value) == f"condition estimate {cond:.3e} exceeds cap 1e+12"
        assert info.value.condition == cond and cond > CONDITION_CAP
        PseudoMetric.from_matrix(cyclic_p(4)).check_condition()

    def test_norm_is_frobenius_once(self, monkeypatch):
        norms = []
        count_calls(monkeypatch, frobenius, norms.append)
        p = np.array([[1.0, 2.0], [3.0, 4.0 + 1e-3j]])
        pm = PseudoMetric.from_matrix(p)
        assert pm.norm is pm.norm and pm.norm == np.linalg.norm(p)
        assert len(norms) == 1


    def test_negligible_matrix_is_not_invertible(self):
        # well conditioned, but zero up to rounding: -2 sin(pi) P for self-adjoint P,
        # whose largest singular value 2.4e-16 is under the floor 8 eps ||P||_F = 2.5e-15
        pm = hermitian_rotation(parity2(), np.pi)
        assert pm.condition == pytest.approx(1.0) and pm.negligible
        assert pm.floor == 8 * np.finfo(float).eps * math.sqrt(2.0)
        assert not pm.invertible
        with pytest.raises(SingularMatrix, match="^largest singular value 2.449e-16 at or below"
                                                 " the floor 2.512e-15: zero up to rounding$"):
            pm.check_condition()
        # the floor scales with P, so the partner of 2^-40 P is zero at the same angle
        assert hermitian_rotation(2.0 ** -40 * parity2(), np.pi).negligible
        # a candidate given directly was not rounded in forming it: it has no floor,
        # however small it is
        pm = PseudoMetric.from_matrix(1e-13 * parity2())
        assert pm.floor == 0.0 and pm.invertible and not pm.negligible

    def test_inverse_beyond_float64_is_not_invertible(self):
        # cond 1 and not negligible; but 1 / 1e-320 overflows
        pm = PseudoMetric.from_matrix(1e-320 * parity2())
        assert pm.condition == 1.0 and not pm.negligible
        assert not pm.invertible
        with pytest.raises(SingularMatrix) as info:
            pm.check_condition()
        assert str(info.value) == "smallest singular value 1.000e-320: the inverse leaves float64"
        # 1 / 1e-308 still fits, and the rotation family reads the same rule
        assert PseudoMetric.from_matrix(1e-308 * parity2()).invertible
        assert not hermitian_rotation(1e-320 * swap2(), 1.0).invertible

    @pytest.mark.parametrize("small, invertible", [(-1e-11, True), (-1e-13, False)])
    def test_invertible_is_the_condition_cap(self, small, invertible):
        # cond 1e11 sits under CONDITION_CAP = 1e12, cond 1e13 above it
        p = np.diag([1.0 + 0j, small])
        for pm in (PseudoMetric.from_matrix(p), hermitian_sum(p)):
            assert pm.invertible is invertible
            assert pm.invertible == (pm.condition <= CONDITION_CAP)
            if invertible:
                pm.check_condition()
            else:
                with pytest.raises(SingularMatrix):
                    pm.check_condition()


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
        with pytest.raises(ValueError, match="theta must be real"):
            hermitian_partners(parity2(), [0.0, 1j])


#: pi to 50 digits and float64's eps, for the closed forms below
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")
_EPS = Decimal(np.finfo(np.float64).eps)


def _sin(x: Decimal) -> Decimal:
    """sin(x) at 50 digits, from its Taylor series (|x| < 20 here)."""
    with localcontext() as ctx:
        ctx.prec = 60
        term, total, k = x, x, 1
        while abs(term) > Decimal(10) ** -55:
            term *= -x * x / ((2 * k) * (2 * k + 1))
            total += term
            k += 1
    return total


def _scan(count: int) -> list[float]:
    # the CLI's scan:count angles
    return [2.0 * math.pi * k / count for k in range(count)]


#: |sv - closed form| / eps stayed within 2.88 (SkylakeX), 3.63 (Haswell) and
#: 2.41 (Prescott) over every n and angle of the test below, where ||partner||_2 = 2
_PARTNER_EPS_FACTOR = 8


@pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
def test_hermitian_partners_of_the_cyclic_shift_meet_their_closed_forms(n):
    # cyclic_p(n) is unitary with eigenvalues e^{2 pi i k / n}, so P + P* and
    # i (P e^{i t} - P* e^{-i t}) are normal, with singular values |2 cos(2 pi k / n)|
    # and |2 sin(t + 2 pi k / n)|
    nominal = [Fraction(2 * j, 8) for j in range(8)] + [Fraction(2 * j, 64) for j in range(64)]
    thetas = _scan(8) + _scan(64) + [0.5, 1.0, -2.0]
    (sum_sv, sum_invertible), *rotated = hermitian_partners(cyclic_p(n), thetas)
    steps = [2 * _PI * k / n for k in range(n)]
    exact_sum = min(abs(2 * _sin(step + _PI / 2)) for step in steps)
    assert abs(Decimal(sum_sv) - exact_sum) <= _PARTNER_EPS_FACTOR * _EPS
    # 2 cos(2 pi k / n) = 0 exactly when 4k / n is an odd integer
    assert sum_invertible is not any(Fraction(4 * k, n) % 2 == 1 for k in range(n))
    for j, (theta, (sv, invertible)) in enumerate(zip(thetas, rotated)):
        exact = min(abs(2 * _sin(Decimal(theta) + step)) for step in steps)
        assert abs(Decimal(sv) - exact) <= _PARTNER_EPS_FACTOR * _EPS, theta
        # at a scan angle t = pi f, 2 sin(t + 2 pi k / n) = 0 exactly when f + 2k / n is
        # an integer; the listed angles are no rational multiple of pi
        zero = j < len(nominal) and any((nominal[j] + Fraction(2 * k, n)) % 1 == 0
                                        for k in range(n))
        assert invertible is not zero, theta


@pytest.mark.parametrize("thetas", [[], [0.5, math.pi / 2]])
def test_hermitian_partners_refuse_a_partner_that_leaves_float64(thetas):
    # 1e308 I: P + P* and the rotation at pi/2 (-2 P) overflow, and hermitian_sum and
    # hermitian_rotation refuse them; the scan refuses its stack in the same words
    p = 1e308 * np.eye(2)
    message = "^pseudometric contains non-finite entries$"
    with pytest.raises(ValueError, match=message):
        hermitian_sum(p)
    with pytest.raises(ValueError, match=message):
        hermitian_rotation(p, math.pi / 2)
    with pytest.raises(ValueError, match=message):
        hermitian_partners(p, thetas)
    # for this P, P + P* = 0 fits, and so does the rotation 2 i cos(t) P at t = pi/2,
    # but not at t = 0
    p = 1e308 * np.array([[0.0, 1.0], [-1.0, 0.0]], complex)
    with pytest.raises(ValueError, match=message):
        hermitian_rotation(p, 0.0)
    assert hermitian_partners(p, [math.pi / 2])[0] == (0.0, False)
    with pytest.raises(ValueError, match=message):
        hermitian_partners(p, [math.pi / 2, 0.0])


@pytest.mark.parametrize(
    "partner",
    [hermitian_sum, lambda p: hermitian_rotation(p, math.pi / 2)],
    ids=["sum", "rotation"],
)
def test_partner_beyond_float64_is_refused_without_a_warning(partner):
    # the partner overflows while it is formed; that is the ValueError's to report, so
    # numpy's RuntimeWarning, which raises under -W error, is not emitted on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^pseudometric contains non-finite entries$"):
            partner(1e308 * np.eye(2))


def _partners_one_at_a_time(p, thetas):
    # the scan as it was built before the stacks: one partner at a time, each a
    # PseudoMetric that hermitian_sum or hermitian_rotation forms, with its own SVD
    partners = [hermitian_sum(p)] + [hermitian_rotation(p, theta) for theta in thetas]
    return [(float.hex(pm.smallest_singular_value), pm.invertible) for pm in partners]


def _assert_scan_is_the_loop(p, thetas):
    scan = hermitian_partners(p, thetas)
    assert [(float.hex(sv), invertible) for sv, invertible in scan] == \
        _partners_one_at_a_time(p, thetas)
    assert all(type(sv) is float and type(invertible) is bool for sv, invertible in scan)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=_candidates(),
       thetas=st.lists(st.floats(-10.0, 10.0) | st.sampled_from([0.0, math.pi, -math.pi / 2]),
                       max_size=12))
@example(p=cyclic_p(4), thetas=_scan(64))
@example(p=parity2(), thetas=[math.pi])  # -2 sin(pi) P: zero up to rounding
@example(p=1e-320 * swap2(), thetas=[1.0])  # 1 / sv_min leaves float64
@example(p=np.diag([1.0 + 0j, 1e-13]), thetas=[0.0, 1.0])  # cond 1e13 > cap
@example(p=np.zeros((3, 3), complex), thetas=_scan(4))
# 1x1: one angle or two in a stack once took numpy's complex product down loops that
# round differently (a fused multiply-add or not)
@example(p=np.array([[3.0 + 1.0j]]), thetas=[0.0, 1.0])
def test_hermitian_partners_are_the_one_at_a_time_scan(p, thetas):
    _assert_scan_is_the_loop(p, thetas)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_hermitian_partners_over_several_stacks_are_the_one_at_a_time_scan(n):
    assert 75 * n * n > PARTNER_STACK_ENTRIES  # the scan spans more than one stack
    rng = np.random.default_rng(n)
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    _assert_scan_is_the_loop(p, _scan(75))


@pytest.mark.parametrize(
    "a,d,re_axis,im_axis",
    [
        (1.0, 0.0, [0.0], np.linspace(0.0, 1.0, 11)),  # hits the boundary at 0.5
        (0.7, -0.3, np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5)),
        (1e200, 1e200, [0.0], [0.0]),  # the default band overflows
        (1.0, 0.0, [0.0, 1e200, 1.0], [0.0]),  # 4|b|^2 overflows at the second point
        (1e200, -1e200, [0.0, 1.0], [0.0]),  # (a - d)^2 overflows at every point
        (1e200, -1e200, [], [0.0]),  # ... and a grid with no points refuses none
        # classify_h2 takes the general coercion for these a and d, the fast path above
        (np.float64(0.7), np.float64(-0.3), np.linspace(-1.0, 1.0, 5), [-0.0, 0.5]),
        (1, 0, [0, 0.5], [0.5, 1]),
    ],
)
def test_sweep_h2_is_classify_h2_row_major(a, d, re_axis, im_axis):
    def drain(points):
        out = []
        try:
            out.extend(points)
        except OverflowError:
            out.append("overflow")
        return out

    def reference():
        for re in re_axis:
            for im in im_axis:
                dc = classify_h2(a, d, complex(re, im))
                yield dc.discriminant, dc.tag

    assert drain(sweep_h2(a, d, re_axis, im_axis)) == drain(reference())


@pytest.mark.parametrize("re_axis,im_axis", [([np.nan], [0.0]), ([0.0], [0.0, np.inf])])
def test_sweep_h2_refuses_non_finite_axes(re_axis, im_axis):
    with pytest.raises(ValueError):
        list(sweep_h2(1.0, 0.0, re_axis, im_axis))


def test_discriminant_matches_classify(rng):
    for _ in range(50):
        a, d, b = sample_h2_params_any(rng)
        assert classify_h2(a, d, b).discriminant == discriminant_h2(a, d, b)
