"""Shared samplers and fixtures for the test suite."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from cryptoherm import (
    PseudoMetric,
    SingularMatrix,
    build_h2,
    build_h3,
    frobenius,
    solve_biorthogonal,
)
from cryptoherm.linalg import _relative

#: [[0, 1], [1, 0]], the off-diagonal two-level candidate: <v_0|P|v_0> is exactly
#: zero for build_h2(1, 0, 0.4j), so its overlap vanishes
SWAP2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def factorization_residuals(theta, p, q, c) -> dict[str, float]:
    """The factorization oracle: P Q, C P and both adjoint forms against Theta, over ||Theta||_F.

    Theta = P Q = C P = adjoint(Q) adjoint(P) = adjoint(P) adjoint(C) holds
    exactly when P intertwines H with its adjoint.  Theta may be any
    matrix: the adjoint identities are read as
    ||B^dag A^dag - Theta||_F = ||A B - adjoint(Theta)||_F.  Each goes
    through the package's one residual quotient, so "pq" and "cp" are
    measured as ``build_bundle`` measures them.
    """
    scale, th_dag = frobenius(theta), theta.conj().T
    pq, cp = p @ q, c @ p
    return {"pq": _relative(pq - theta, scale), "cp": _relative(cp - theta, scale),
            "qdag_pdag": _relative(pq - th_dag, scale), "pdag_cdag": _relative(cp - th_dag, scale)}


def passes_check_condition(p) -> bool:
    """Whether ``PseudoMetric.from_matrix(p).check_condition()`` accepts the candidate."""
    try:
        PseudoMetric.from_matrix(p).check_condition()
    except SingularMatrix:
        return False
    return True


def sample_h2_params(rng, margin: float = 1e-3):
    """(a, d, b) with a, d in [-2, 2], |b| <= 1, safely inside the real domain."""
    while True:
        a = rng.uniform(-2.0, 2.0)
        d = rng.uniform(-2.0, 2.0)
        radius = np.sqrt(rng.uniform(0.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        b = radius * np.exp(1j * phi)
        if (a - d) ** 2 - 4.0 * abs(b) ** 2 > margin:
            return a, d, b


def sample_h2_params_any(rng):
    """(a, d, b) uniform over the full acceptance box, no domain restriction."""
    a = rng.uniform(-2.0, 2.0)
    d = rng.uniform(-2.0, 2.0)
    radius = np.sqrt(rng.uniform(0.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return a, d, radius * np.exp(1j * phi)


def sample_h3_params(rng, gap_floor: float = 1e-4):
    """(a, b) for the cyclic model with a non-degenerate spectrum."""
    while True:
        a = rng.uniform(-1.0, 1.0)
        radius = rng.uniform(0.1, 1.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        b = radius * np.exp(1j * phi)
        levels = np.sort(
            a + 2.0 * abs(b) * np.cos(np.angle(b) + 2.0 * np.pi * np.arange(3) / 3.0)
        )
        if np.diff(levels).min() > gap_floor:
            return a, b


def sample_similar(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """H = S D S^-1 with levels 0, 1, ..., n - 1, and S^-1.

    S = I + 0.3 / sqrt(2n) G, with G complex Gaussian (the real parts
    drawn first), stays well conditioned.  P = S^-dag diag(u) S^-1
    intertwines H for any u.
    """
    s = np.eye(n) + 0.3 / math.sqrt(2 * n) * (rng.standard_normal((n, n))
                                              + 1j * rng.standard_normal((n, n)))
    s_inv = np.linalg.inv(s)
    return (s * np.arange(n)) @ s_inv, s_inv


@st.composite
def eigen_operands(draw, walk: bool = False) -> np.ndarray:
    """A matrix with a real, simple, resolvable spectrum, or a near-EP walk point.

    The families: seeded S D S^-1 with n in {1, 2, 3, 4, 16}; the two-level
    model; the cyclic three-level model, whose eigenvectors have entries of
    equal modulus; diagonal matrices; and real-valued input (the two-level
    model with b = |b|).  With ``walk``, also the two-level model at
    discriminant +-10^-k, k = 6 ... 16, whose negative side has a complex
    spectrum and whose points nearest the exceptional point do not solve.
    """
    kinds = ["similar", "h2", "h3", "diagonal", "real"] + (["walk"] if walk else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "walk":  # (a, d) = (1, -1) and b imaginary, so disc = 4 - 4|b|^2
        disc = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** -draw(st.integers(6, 16))
        return build_h2(1.0, -1.0, 1j * math.sqrt(1.0 - disc / 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "similar":
        return sample_similar(rng, draw(st.sampled_from([1, 2, 3, 4, 16])))[0]
    if kind == "h2":
        return build_h2(*sample_h2_params(rng))
    if kind == "h3":
        return build_h3(*sample_h3_params(rng))
    if kind == "diagonal":
        n = draw(st.sampled_from([1, 2, 3, 4, 16]))
        return np.diag(rng.permutation(n) + rng.uniform(-0.25, 0.25, n)).astype(np.complex128)
    a, d, b = sample_h2_params(rng)
    return build_h2(a, d, abs(b))


def assert_eigensolver_normalized(vectors: np.ndarray) -> None:
    """Every column as ZGEEV leaves it: unit norm, a largest-modulus entry real positive.

    The entry is any one within 1e-12 of the column's largest modulus, so
    a column with tied maxima passes whichever of them the backend chose.
    """
    for col in vectors.T:
        mags = np.abs(col)
        assert abs(np.linalg.norm(col) - 1.0) <= 1e-13
        near = col[mags >= mags.max() - 1e-12]
        assert ((near.imag == 0.0) & (near.real > 0.0)).any()


def count_calls(monkeypatch, real, on_call) -> None:
    """Wrap the package function ``real`` on every cryptoherm module that binds its name.

    Each call passes its positional arguments to ``on_call`` first, so a
    test sees every call, whichever module's binding the caller goes through.
    """
    def counted(*args, **kwargs):
        on_call(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cryptoherm") and \
                hasattr(module, real.__name__):
            monkeypatch.setattr(module, real.__name__, counted)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def h2_system():
    """The standard interior two-level fixture and its system."""
    h = build_h2(1.0, 0.0, 0.4j)
    return h, solve_biorthogonal(h)


@pytest.fixture
def h3_system():
    h = build_h3(0.0, 0.3 + 0.4j)
    return h, solve_biorthogonal(h)


def pytest_terminal_summary(terminalreporter):
    """Name the comparison the CLI byte corpus took, when it ran."""
    corpus = sys.modules.get("test_golden")
    if corpus is not None:
        terminalreporter.write_line(f"CLI byte corpus compared by {corpus.COMPARISON}")
