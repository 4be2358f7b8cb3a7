import dataclasses
import itertools
import math

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
from cryptoherm.models import CONDITION_CAP
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
    """A 1x1 to 4x4 complex matrix: general, zero, singular, within tol.abs or Hermitian."""
    n = draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * n * n, max_size=2 * n * n))
    m = np.array(parts).view(np.complex128).reshape(n, n)
    kind = draw(st.sampled_from(["general", "zero", "singular", "tiny", "hermitian"]))
    if kind == "zero":
        return np.zeros_like(m)
    if kind == "singular":
        m[-1] = 0.5 * m[0] if n > 1 else 0.0
    if kind == "tiny":
        return 1e-14 * m  # every singular value under 1e-12
    if kind == "hermitian":
        return m + m.conj().T
    return m


def _assert_eager_verdicts(m, tol):
    # every verdict of a lazily built candidate against the formula from_matrix
    # used to evaluate eagerly, floats compared bit for bit
    pm = PseudoMetric.from_matrix(m, tol)
    sv = np.linalg.svd(m, compute_uv=False)
    cond = float(np.linalg.cond(m))
    negligible = bool(sv[0] <= tol.abs)
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
        ids=["parity2", "cyclic3", "singular", "zero", "general", "within-tol-abs", "hermitian"],
    )
    def test_condition_is_numpy_cond(self, m):
        assert PseudoMetric.from_matrix(m).condition == np.linalg.cond(m)
        _assert_eager_verdicts(m, Tolerance())

    @settings(max_examples=200, deadline=None)
    @given(m=_candidates(), tol=st.sampled_from(
        [Tolerance(), Tolerance(abs=1e-14), Tolerance(rel=1e-3, abs=0.0)]))
    @example(m=np.zeros((3, 3), complex), tol=Tolerance())
    @example(m=np.array([[1.0, 2.0j], [0.5, 1.0j]]), tol=Tolerance())  # singular: row 2 = row 1 / 2
    @example(m=1e-13 * cyclic_p(3), tol=Tolerance())  # within tol.abs
    @example(m=np.array([[2.0, 1.0 - 1j], [1.0 + 1j, -3.0]]), tol=Tolerance())  # Hermitian
    @example(m=np.array([[2.22507386e-313j]]), tol=Tolerance(rel=1e-3, abs=0.0))  # 1 / sv_min overflows
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
        # each verdict is computed once, on first read
        assert pm.self_adjoint is pm.self_adjoint is True
        assert len(hermitian_tests) == 1
        # the SVD-based verdicts and the inverse share one SVD, in any reading order
        names = ("condition", "invertible", "smallest_singular_value", "negligible", "inverse")
        for order in itertools.permutations(names):
            svds.clear()
            pm = PseudoMetric.from_matrix(cyclic_p(3))
            for name in order + order:
                getattr(pm, name)
            assert len(svds) == 1, order

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
        # the same test, without an inversion
        with pytest.raises(SingularMatrix) as direct:
            partner.check_condition()
        assert str(direct.value) == str(info.value)
        PseudoMetric.from_matrix(cyclic_p(4)).check_condition()


    def test_negligible_matrix_is_not_invertible(self):
        # well conditioned, but zero up to rounding: -2 sin(pi) P for self-adjoint P
        pm = hermitian_rotation(parity2(), np.pi)
        assert pm.condition == pytest.approx(1.0) and pm.negligible
        assert not pm.invertible
        with pytest.raises(SingularMatrix, match="zero up to rounding"):
            pm.inverse
        # the absolute tolerance sets what counts as zero
        pm = PseudoMetric.from_matrix(1e-13 * parity2(), Tolerance(abs=1e-14))
        assert pm.invertible and not pm.negligible

    def test_inverse_beyond_float64_is_not_invertible(self):
        # cond 1 and, under tol.abs = 0, not negligible; but 1 / 1e-320 overflows
        pm = PseudoMetric.from_matrix(1e-320 * parity2(), Tolerance(abs=0.0))
        assert pm.condition == 1.0 and not pm.negligible
        assert not pm.invertible
        with pytest.raises(SingularMatrix) as info:
            pm.inverse
        assert str(info.value) == "smallest singular value 1.000e-320: the inverse leaves float64"
        # 1 / 1e-308 still fits, and the rotation family reads the same rule
        assert PseudoMetric.from_matrix(1e-308 * parity2(), Tolerance(abs=0.0)).invertible
        assert not hermitian_rotation(1e-320 * swap2(), 1.0, Tolerance(abs=0.0)).invertible

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
