import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    PseudoMetric,
    SingularMatrix,
    Tolerance,
    eig,
    frobenius,
)
from cryptoherm.errors import DimensionMismatch
from cryptoherm.linalg import DEFAULT_TOL, _hermitian, as_complex_matrix, resolved_positive
from cryptoherm.models import CONDITION_CAP
from conftest import assert_eigensolver_normalized, eigen_operands


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestTolerance:
    def test_defaults(self):
        # one tolerance, relative: nothing is held to a bound in the operands' units
        assert [field.name for field in dataclasses.fields(Tolerance)] == ["rel"]
        assert Tolerance().rel == 1e-10
        with pytest.raises(TypeError):
            Tolerance(abs=0.0)

    @pytest.mark.parametrize("bad", [{"rel": -1.0}, {"rel": float("inf")}, {"rel": float("nan")}])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            Tolerance(**bad)


class TestCoercion:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            as_complex_matrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_complex_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            as_complex_matrix([[1, 1j * np.inf], [0, 1]])


class TestHermitian:
    def test_accepts_hermitian(self, rng):
        m = _random_complex(rng, 5)
        assert _hermitian(m + m.conj().T, DEFAULT_TOL)

    def test_rejects_non_hermitian(self):
        assert not _hermitian(np.array([[0, 1], [0, 0]], dtype=complex), DEFAULT_TOL)

    def test_scale_aware(self):
        # perturbation far below rel * norm still counts as Hermitian
        m = 1e8 * np.eye(3, dtype=complex)
        m[0, 1] = 1e-4
        m[1, 0] = 0.0
        assert _hermitian(m, DEFAULT_TOL)

    def test_measured_without_overflow_near_the_float64_limit(self):
        # ||M||_F is finite but ||M - M^dag||_F^2 is not: measured at unit scale,
        # with no overflow warning
        assert not _hermitian(np.array([[0, 1e154], [0, 0]], dtype=complex), DEFAULT_TOL)

    def test_measured_without_overflow_where_the_norm_leaves_float64(self):
        # ||M||_F itself overflows: the unit scale comes from the largest entry,
        # so there is no overflow warning and the verdicts are the in-range ones
        near = 1e300 * np.array([[1, 1], [1 + 1e-12, 1]], dtype=complex)
        assert _hermitian(near, DEFAULT_TOL)
        assert not _hermitian(1e300 * np.array([[1, 1], [1.5, 1]], dtype=complex), DEFAULT_TOL)


class TestPositiveDefinite:
    # the rule reads ascending eigenvalues: lambda_min must exceed n eps lambda_max
    def test_accepts_gram_matrix(self, rng):
        m = _random_complex(rng, 4)
        assert resolved_positive(np.linalg.eigvalsh(m @ m.conj().T + np.eye(4)))

    def test_rejects_indefinite(self):
        assert not resolved_positive(np.array([-1.0, 1.0]))

    def test_rejects_singular(self):
        eps = np.finfo(np.float64).eps
        assert not resolved_positive(np.array([0.0, 1.0]))
        # at the eigensolver's backward-error limit a positive value is not resolved
        assert not resolved_positive(np.array([2 * eps, 1.0]))
        assert resolved_positive(np.array([4 * eps, 1.0]))


@st.composite
def _complex_views(draw):
    """A complex128 matrix up to 8x8, entries up to 1e-300 .. 1e300, or a view of one."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * rows * cols,
                          max_size=2 * rows * cols))
    scale = 10.0 ** draw(st.integers(-300, 300))
    m = np.array(parts).view(np.complex128).reshape(rows, cols) * scale
    view = draw(st.sampled_from(["plain", "T", "H", "rows", "reversed"]))
    return {"plain": m, "T": m.T, "H": m.conj().T, "rows": m[::2],
            "reversed": m[::-1, ::-1]}[view]


def _norm_and_warnings(fn, m):
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        value = fn(m)
    return np.float64(value).tobytes(), [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(_complex_views())
def test_frobenius_matches_linalg_norm_bit_for_bit(m):
    # frobenius runs np.linalg.norm's own fast path: same bits, same overflow warnings
    assert _norm_and_warnings(frobenius, m) == \
        _norm_and_warnings(lambda x: float(np.linalg.norm(x)), m)


def test_frobenius_overflow_warns_like_linalg_norm():
    m = np.full((3, 3), 1e300 + 1e300j)
    got = _norm_and_warnings(frobenius, m)
    assert got == _norm_and_warnings(lambda x: float(np.linalg.norm(x)), m)
    assert got[0] == np.float64(np.inf).tobytes() and got[1]


class TestEig:
    def test_two_level_oracle(self):
        # roots of l^2 - l + 0.16: 0.2 and 0.8
        h = np.array([[1.0, 0.4j], [0.4j, 0.0]])
        values, vectors = eig(h)
        assert values == pytest.approx([0.2, 0.8], abs=1e-14)
        for k in range(2):
            assert np.linalg.norm(h @ vectors[:, k] - values[k] * vectors[:, k]) < 1e-13

    def test_ordering_ascending_re_then_im(self, rng):
        m = _random_complex(rng, 6)
        values, _ = eig(m)
        key = [(v.real, v.imag) for v in values]
        assert key == sorted(key)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(h=eigen_operands(walk=True))
    def test_unit_norm_columns(self, h):
        # eig hands on ZGEEV's columns without normalizing them again, so the
        # contract it documents is the eigensolver's own, pinned here
        assert_eigensolver_normalized(eig(h)[1])


class TestInverse:
    # nothing inverts P; its invertibility rule, the CONDITION_CAP refusal among
    # them, is PseudoMetric.check_condition
    def test_refuses_singular(self):
        with pytest.raises(SingularMatrix) as info:
            PseudoMetric.from_matrix(np.diag([1.0 + 0j, 0.0])).check_condition()
        assert info.value.condition > CONDITION_CAP
