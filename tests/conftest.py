"""Shared samplers and fixtures for the test suite."""
from __future__ import annotations

import sys

import numpy as np
import pytest

from cryptoherm import build_h2, build_h3, solve_biorthogonal


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
