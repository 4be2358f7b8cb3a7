"""The two-level kernel against its exact value.

The discriminant (a - d)^2 - 4|b|^2 of the stored doubles is exact in
``fractions.Fraction``.  The formula is the benchmark oracle's
``h2_disc_exact``: this module reads ``bench/workloads.py`` and compiles
that one function, so there is one copy of it, and importing nothing of
the benchmark leaves its directory untouched.

Every point checks three things: ``discriminant_h2`` equals
``classify_h2(...).discriminant``; the float discriminant is within
4 eps ((a - d)^2 + 4|b|^2) of the exact one, the scale taken exactly; and
wherever the exact value lies outside the boundary band the tag has its
sign.
"""
from __future__ import annotations

import ast
import cmath
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import classify_h2, discriminant_h2

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

#: |disc - exact| may reach this many eps times (a - d)^2 + 4|b|^2
ERROR_FACTOR = 4
_EPS = Fraction(2) ** -52


def _load_h2_disc_exact():
    """``h2_disc_exact`` compiled from the benchmark's source, which is only read."""
    tree = ast.parse(_WORKLOADS.read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "h2_disc_exact"]
    namespace = {"Fraction": Fraction}
    exec(compile(ast.Module(body=[node], type_ignores=[]), str(_WORKLOADS), "exec"), namespace)
    return namespace["h2_disc_exact"]


h2_disc_exact = _load_h2_disc_exact()


def _error_ratio(a: float, d: float, b: complex) -> Fraction:
    """|disc - exact| / (eps ((a - d)^2 + 4|b|^2)) after checking the point, 0 at scale 0."""
    dc = classify_h2(a, d, b)
    disc = discriminant_h2(a, d, b)
    assert disc == dc.discriminant
    exact = h2_disc_exact(a, d, b)
    scale = (Fraction(a) - Fraction(d)) ** 2 + 4 * (Fraction(b.real) ** 2 + Fraction(b.imag) ** 2)
    error = abs(Fraction(disc) - exact)
    assert error <= ERROR_FACTOR * _EPS * scale, (a, d, b, disc, exact)
    if abs(exact) > Fraction(dc.boundary_band):
        assert dc.tag == ("interior" if exact > 0 else "exterior"), (a, d, b, exact)
    return error / (_EPS * scale) if scale else Fraction(0)


def test_near_exceptional_walk():
    # (a, d) = (1, -1) and disc = +-10^-k: the corpus's walk, at three phases of b
    for k in range(2, 16):
        for sign in (1.0, -1.0):
            modulus = math.sqrt(1.0 - sign * 10.0 ** -k / 4.0)
            for phase in (0.0, 0.5 * math.pi, 1.0):
                _error_ratio(1.0, -1.0, modulus * cmath.exp(1j * phase))


def _signed(magnitude: float, negative: bool) -> float:
    return -magnitude if negative else magnitude


#: zero, or a magnitude in [1e-3, 10] of either sign
_PART = st.just(0.0) | st.builds(_signed, st.floats(1e-3, 10.0), st.booleans())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(a=_PART, d=_PART, b=st.builds(complex, _PART, _PART))
def test_uniform_sample(a, d, b):
    _error_ratio(a, d, b)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(a=_PART, d=_PART, phase=st.floats(0.0, 2.0 * math.pi),
       side=st.sampled_from([1.0 + 1e-8, 1.0 - 1e-8]))
def test_near_boundary_sample(a, d, phase, side):
    # |b| = |a - d| / 2 (1 +- 1e-8): exact values of either sign close to the band
    _error_ratio(a, d, abs(a - d) / 2.0 * side * cmath.exp(1j * phase))
