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

Where the exact discriminant is positive, the spectral quantities of
``build_h2(a, d, b)`` have closed forms, evaluated from the exact
discriminant with ``decimal`` at 50 digits:

    E+- = (a + d)/2 +- sqrt(disc)/2, right vectors r+- ~ (b, E+- - a),
    ||r+-||^2 = |b|^2 + (E+- - a)^2,
    c = 2|b|^2 / (||r+|| ||r-||) (the overlap of the unit right vectors),
    kappa = 1 / sqrt(1 - c^2) for both levels,
    eigenvalues of Theta 1/(1 + c) and 1/(1 - c),
    q+- of parity2 = (|b|^2 + (E+- - a)^2) / (|b|^2 - (E+- - a)^2).

The solver's right columns have unit norm, so its kappa_n, the Wilkinson
condition number of E_n, is ||left[:, n]||.  Wherever
``solve_biorthogonal`` returns, each E_n is within C_E kappa eps ||H||_F
of its exact value; q_n, the larger eigenvalue of Theta and ||left[:, n]||
are within C kappa^2 eps ||H||_F / |a - d| of theirs, relative; and the
smaller eigenvalue of Theta, 1/sigma_max(R)^2, read off the largest
singular value of the right columns R, is within C eps ||H||_F / |a - d|
of its exact value, relative, with no kappa: the angle between the two
unit right vectors has sine 1/kappa and, by the bound below, an error of
kappa eps ||H||_F / |a - d|, so their overlap c, its cosine, moves by the
product.  On the walk that is a few eps, however close to the exceptional
point.  The kappa^2 bound is
C kappa eps ||H||_F / (E+ - E-), the first-order bound of a quantity read
off the eigenvectors, since kappa^2 = (a - d)^2 / disc; on the walk
||H||_F is about |a - d|, and the bound is C kappa^2 eps.  Without the
factor ||H||_F / |a - d| it fails where a and d nearly meet: at
(a, d) = (5.863987946294171, 5.864267613846848) and
b = 3.495933152069499e-05 + 1.1189787345841467e-05j, where kappa = 1.04,
q_n was 2414 kappa^2 eps off.  Wherever the solver raises, the exception
is a SpectrumObstruction; which one, and where, is left to the gates.

At N >= 3 the reference is the corpus's own integer construction,
``tools/golden._sds``: H = S D S^-1 with S and S^-1 integer matrices and
D holding distinct integer levels, and P = S^-dag diag(u) S^-1 with
u_n in {+-1, +-i}.  Write s_n for the column of S and t_n for the row of
S^-1 that belong to the n-th smallest level.  Then

    E_n = the n-th smallest level,
    kappa_n = ||s_n|| ||t_n||, the square root of an integer,
    q_n = ||s_n||^2 / u_n, with u = diag(S^dag P S),
    Theta (kappa = 1) = S^-dag diag(||s_n||^2) S^-1, an integer matrix.

Every exact value but kappa_n is a float, and the float differences
against it are exact (Sterbenz); kappa_n is taken at DIGITS digits.
The first-order bound of a quantity read off the eigenvectors is
kappa_max eps ||H||_F / gap, gap the smallest level spacing, as in the
two-level case, and the checks reuse its factors: each E_n is within
C_E kappa_n eps ||H||_F; q_n and kappa_n are within C_Q and C_KAPPA of
that bound, relative; Theta is within C_THETA of it, Frobenius-relative,
and entrywise against sqrt(Theta_ii Theta_jj), the largest |Theta_ij|
a positive definite Theta allows.  Theta at kappa = 1 does not depend on
P, so it is checked once per H, and q once per kind of P.
"""
from __future__ import annotations

import ast
import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import importlib.util

import numpy as np
import pytest

from cryptoherm import (
    build_bundle,
    build_h2,
    build_metric,
    classify_h2,
    discriminant_h2,
    frobenius,
    parity2,
    solve_biorthogonal,
)
from cryptoherm.errors import SpectrumObstruction

pytestmark = pytest.mark.kernel

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


#: digits of the decimal reference
DIGITS = 50

#: |E_n - exact| may reach C_E kappa eps ||H||_F; q_n, the larger eigenvalue of
#: Theta and ||left[:, n]|| may be C_Q, C_THETA and C_KAPPA times
#: kappa^2 eps ||H||_F / |a - d| off, relative.  The largest ratios over the
#: walk and 57,344 solved random points under the SkylakeX, Haswell and
#: Prescott kernels were 4.67, 5.45, 10.89 and 5.45 (CHANGES.md): each factor
#: leaves a margin of about three.  The N >= 3 checks below reuse them; there
#: the largest ratios over the corpus and the sample under the same kernels were
#: 0.97 (E), 1.21 (q), 1.85 (Theta, entrywise; 1.68 Frobenius) and 1.17 (kappa)
C_E = 16
C_Q = 16
C_THETA = 32
C_KAPPA = 16

#: the smaller eigenvalue of Theta may be C_THETA_MIN eps ||H||_F / |a - d| off,
#: relative, with no kappa: on the walk ||H||_F / |a - d| is about 1, so a few
#: eps.  The largest ratios under the SkylakeX, Haswell and Prescott kernels were
#: 2.84 on the walk and 4.44 over the sample (CHANGES.md): a margin of about three
C_THETA_MIN = 16

_D_EPS = Decimal(2) ** -52


def _decimal(x: Fraction) -> Decimal:
    # rounded to the context's precision
    return Decimal(x.numerator) / Decimal(x.denominator)


def h2_reference(a: float, d: float, b: complex) -> dict:
    """The closed forms of the module docstring at DIGITS digits, for an exact disc > 0.

    Levels come ascending, E- first, as the solver orders them.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        b2 = _decimal(Fraction(b.real) ** 2 + Fraction(b.imag) ** 2)
        root = _decimal(h2_disc_exact(a, d, b)).sqrt()
        mid = _decimal((Fraction(a) + Fraction(d)) / 2)
        energies = (mid - root / 2, mid + root / 2)
        offsets = [e - Decimal(a) for e in energies]
        c = 2 * b2 / ((b2 + offsets[0] ** 2) * (b2 + offsets[1] ** 2)).sqrt()
        return {
            "energies": energies,
            "kappa": 1 / (1 - c * c).sqrt(),
            "q": tuple((b2 + x * x) / (b2 - x * x) for x in offsets),
            "theta": (1 / (1 + c), 1 / (1 - c)),
            "h_norm": (Decimal(a) ** 2 + Decimal(d) ** 2 + 2 * b2).sqrt(),
            "split": abs(Decimal(a) - Decimal(d)),
        }


def _column_norm(column) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return _decimal(sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
                            for z in column.tolist())).sqrt()


def _relative_error(value, exact: Decimal) -> Decimal:
    # |value - exact| / |exact| for a float or complex value and a real exact one
    z = complex(value)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return ((Decimal(z.real) - exact) ** 2 + Decimal(z.imag) ** 2).sqrt() / abs(exact)


def spectral_ratios(a: float, d: float, b: complex) -> dict[str, Decimal] | None:
    """Each quantity's error over its bound without the factor, after checking the point.

    None where ``solve_biorthogonal`` refuses the point, which it may do
    only with a SpectrumObstruction.
    """
    try:
        system = solve_biorthogonal(build_h2(a, d, b))
    except SpectrumObstruction:
        return None
    ref = h2_reference(a, d, b)
    bundle = build_bundle(system, parity2())
    with localcontext() as ctx:
        ctx.prec = DIGITS
        kappa = ref["kappa"]
        e_unit = kappa * _D_EPS * ref["h_norm"]
        k2_unit = kappa * kappa * _D_EPS * ref["h_norm"] / ref["split"]
        ratios = {
            "E": max(abs(Decimal(float(e)) - x) / e_unit
                     for e, x in zip(system.energies, ref["energies"])),
            "q": max(_relative_error(q, x) for q, x in zip(bundle.q, ref["q"])) / k2_unit,
            "theta_min": _relative_error(bundle.theta_eigenvalues[0], ref["theta"][0])
            / (_D_EPS * ref["h_norm"] / ref["split"]),
            "theta_max": _relative_error(bundle.theta_eigenvalues[1], ref["theta"][1]) / k2_unit,
            "kappa": max(abs(_column_norm(system.left[:, n]) - kappa)
                         for n in range(2)) / kappa / k2_unit,
        }
    for name, factor in (("E", C_E), ("q", C_Q), ("theta_min", C_THETA_MIN),
                         ("theta_max", C_THETA), ("kappa", C_KAPPA)):
        assert ratios[name] <= factor, (name, ratios[name], a, d, b)
    return ratios


def _walk_point(k: int, phase: float) -> tuple[float, float, complex]:
    # the corpus's walk (a, d) = (1, -1) at disc = +10^-k, b at the given phase
    return 1.0, -1.0, math.sqrt(1.0 - 10.0 ** -k / 4.0) * cmath.exp(1j * phase)


def test_spectral_walk():
    solved = {(k, phase): spectral_ratios(*_walk_point(k, phase)) is not None
              for k in range(2, 16) for phase in (0.0, 0.5 * math.pi, 1.0)}
    # through k = 10 every point is solved: kappa <= 2e5, the gap is at least 30 times
    # the cluster threshold, and both pairing residuals stayed below 0.31 of their caps
    # under the SkylakeX, Haswell and Prescott kernels
    assert all(ok for (k, _), ok in solved.items() if k <= 10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_PART, d=_PART, ratio=st.floats(1e-3, 1.0 - 1e-12), phase=st.floats(0.0, 2.0 * math.pi))
def test_spectral_sample(a, d, ratio, phase):
    # |b| = ratio |a - d| / 2 puts the exact disc near (1 - ratio^2) (a - d)^2 > 0,
    # so kappa^2 = 1 / (1 - ratio^2) spans 1 to the solver's refusals
    b = ratio * abs(a - d) / 2.0 * cmath.exp(1j * phase)
    # b = 0 leaves a right vector (b, E - a) zero: the diagonal H is exact anyway
    assume(b != 0 and h2_disc_exact(a, d, b) > 0)
    spectral_ratios(a, d, b)


_TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def sds_ratios(n: int, seed: int | None = None) -> dict[str, float] | None:
    """Each quantity's error over its bound for ``golden._sds(n, seed)``, after checking it.

    None where ``solve_biorthogonal`` refuses H, which it may do only with
    a SpectrumObstruction.
    """
    h, pseudometrics, s, levels = golden._sds(n, seed)
    try:
        system = solve_biorthogonal(h)
    except SpectrumObstruction:
        return None
    order = np.argsort(levels)
    s_inv = np.rint(np.linalg.inv(s)).astype(np.int64)
    assert (s @ s_inv == np.eye(n, dtype=np.int64)).all()
    s, s_inv, levels = s[:, order], s_inv[order], levels[order]
    col2, row2 = (s * s).sum(axis=0), (s_inv * s_inv).sum(axis=1)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        kappa = [(Decimal(int(c)) * Decimal(int(r))).sqrt() for c, r in zip(col2, row2)]
        kappa_error = max(abs(_column_norm(system.left[:, k]) - x) / x
                          for k, x in enumerate(kappa))
    kappa = np.array([float(x) for x in kappa])
    h_norm = frobenius(h)
    unit = float(kappa.max()) * float(_D_EPS) * h_norm / float(np.diff(levels).min())
    theta_exact = (s_inv.T * col2) @ s_inv
    diff = build_metric(system) - theta_exact
    diag = np.sqrt(np.diag(theta_exact))
    ratios = {
        "E": float((np.abs(system.energies - levels) / (kappa * float(_D_EPS) * h_norm)).max()),
        "kappa": float(kappa_error) / unit,
        "theta_frobenius": frobenius(diff) / frobenius(theta_exact) / unit,
        "theta_entrywise": float((np.abs(diff) / np.outer(diag, diag)).max()) / unit,
    }
    for kind, p in pseudometrics.items():
        u = np.diag(s.T @ p @ s)  # integer parts: exact
        assert set(u.tolist()) <= {1, -1, 1j, -1j}
        q_exact = col2 / u
        q_error = np.abs(build_bundle(system, p).q - q_exact) / np.abs(q_exact)
        ratios[f"q_{kind}"] = float(q_error.max()) / unit
    for name, factor in (("E", C_E), ("kappa", C_KAPPA), ("theta_frobenius", C_THETA),
                         ("theta_entrywise", C_THETA), ("q_definite", C_Q),
                         ("q_indefinite", C_Q), ("q_nonhermitian", C_Q)):
        assert ratios[name] <= factor, (name, ratios[name], n, seed)
    return ratios


@pytest.mark.parametrize("n", [4, 16, 64])
def test_sds_corpus(n):
    # the corpus's own H and P of each kind: all three are solved on every kernel
    assert sds_ratios(n) is not None


@pytest.mark.parametrize("n", [3, 5, 6, 8, 12, 24, 32])
def test_sds_sample(n):
    # derandomized draws of the same construction: kappa_max reaches 31.3 at n = 12 and
    # n = 32, where the corpus's largest is 14.7 at n = 64
    for seed in range(40):
        sds_ratios(n, seed)
