"""Acceptance suite: one test per contract criterion, tolerances pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Sampling is seeded, so every run sees the same
parameter draws.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from cryptoherm import (
    build_bundle,
    build_h2,
    build_h3,
    classify_h2,
    cyclic_p,
    diagnose,
    discriminant_h2,
    hermitian_rotation,
    hermitian_sum,
    involutive_normalization,
    parity2,
    pseudo_hermiticity_residual,
    quasi_hermiticity_residual,
    renormalize,
    solve_biorthogonal,
    weak_triplet_check,
)
from cryptoherm.cli import main
from cryptoherm.errors import NonRealQuasiparity
from cryptoherm.io import save_matrix
from conftest import sample_h2_params, sample_h2_params_any, sample_h3_params


@pytest.fixture(scope="module")
def interior_family():
    """120 seeded two-level models inside the real-spectrum domain."""
    rng = np.random.default_rng(11)
    p = parity2()
    family = []
    for _ in range(120):
        a, d, b = sample_h2_params(rng)
        h = build_h2(a, d, b)
        system = solve_biorthogonal(h)
        family.append((h, p, system, build_bundle(system, p)))
    return family


@pytest.fixture(scope="module")
def cyclic_family():
    """80 seeded three-level cyclic models with well-separated levels."""
    rng = np.random.default_rng(12)
    p = cyclic_p(3)
    family = []
    for _ in range(80):
        a, b = sample_h3_params(rng)
        h = build_h3(a, b)
        system = solve_biorthogonal(h)
        family.append((h, p, system, build_bundle(system, p)))
    return family


def test_c01_two_level_pseudo_hermiticity():
    # 1,000 draws over the full box: relative intertwining residual <= 1e-13
    rng = np.random.default_rng(1)
    p = parity2()
    worst = 0.0
    for _ in range(1000):
        a, d, b = sample_h2_params_any(rng)
        verdict = pseudo_hermiticity_residual(build_h2(a, d, b), p)
        worst = max(worst, verdict.residual)
    assert worst <= 1e-13


def test_c02_domain_spectrum_correspondence():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(1000):
        a, d, b = sample_h2_params_any(rng)
        if abs(discriminant_h2(a, d, b)) < 1e-6:
            continue  # boundary band excluded from the correspondence
        tag = classify_h2(a, d, b).tag
        assert tag != "boundary"
        lam = np.linalg.eigvals(build_h2(a, d, b))
        real_and_distinct = (
            np.max(np.abs(lam.imag)) <= 1e-9 and abs(lam[0] - lam[1]) > 1e-9
        )
        conjugate_pair = (
            np.min(np.abs(lam.imag)) > 1e-9
            and abs(lam[0] - np.conj(lam[1])) <= 1e-9
        )
        assert (tag == "interior") == real_and_distinct
        assert (tag == "exterior") == conjugate_pair
        checked += 1
    assert checked > 900  # the band must not swallow the sample


def test_c03_boundary_flip_location(capsys):
    # the interior/exterior flip sits at |b| = 0.5 +- one grid step
    for steps in (21, 101, 201):
        step = 0.2 / (steps - 1)
        code = main([
            "sweep", "--model", "h2", "--a", "1", "--d", "0",
            "--b-re", "0", "--b-im", f"0.4:0.6:{steps}",
        ])
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        ims = [float(r[1]) for r in rows]
        classes = [r[3] for r in rows]
        last_interior = max(i for i, c in enumerate(classes) if c == "interior")
        first_exterior = min(i for i, c in enumerate(classes) if c == "exterior")
        assert last_interior < first_exterior
        assert abs(ims[last_interior] - 0.5) <= step + 1e-12
        assert abs(ims[first_exterior] - 0.5) <= step + 1e-12


def test_c04_weak_triplet_residuals():
    rng = np.random.default_rng(4)
    p = cyclic_p(3)
    for _ in range(200):
        a, b = sample_h3_params(rng)
        verdict = weak_triplet_check(build_h3(a, b), p)
        # one measured residual, the P equation's; the other two keys are filled with it
        parts = {
            verdict.detail["pseudo"],
            verdict.detail["pseudo_adjoint"],
            verdict.detail["commutant"],
        }
        assert parts == {verdict.residual} and verdict.residual <= 1e-11
        assert verdict.detail["dependency_ok"]


def test_c05_metric_validity(interior_family, cyclic_family):
    for h, p, system, bundle in interior_family + cyclic_family:
        assert bundle.residuals["theta_hermitian"] <= 1e-12
        sym = 0.5 * (bundle.theta + bundle.theta.conj().T)
        assert np.linalg.eigvalsh(sym).min() > 0.0
        assert quasi_hermiticity_residual(h, bundle.theta).residual <= 1e-9


def test_c06_factorization_identity(interior_family, cyclic_family):
    for _, _, _, bundle in interior_family + cyclic_family:
        worst = max(
            bundle.residuals[key] for key in ("pq", "cp", "qdag_pdag", "pdag_cdag")
        )
        assert worst <= 1e-9


def test_c07_kappa_dependence(interior_family, cyclic_family):
    rng = np.random.default_rng(7)
    r = 1.7
    for _, p, system, bundle in interior_family[:20] + cyclic_family[:20]:
        scaled = renormalize(system, np.full(system.dim, r, dtype=complex))
        scaled_bundle = build_bundle(scaled, p)
        for base, new in (
            (bundle.coeffs.q, scaled_bundle.coeffs.q),
            (bundle.coeffs.c, scaled_bundle.coeffs.c),
        ):
            rel = np.abs(new - base / r**2) / np.abs(base / r**2)
            assert np.max(rel) <= 1e-11
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=system.dim))
        phased = build_bundle(renormalize(system, phases), p)
        assert np.max(np.abs(phased.theta - bundle.theta)) <= 1e-12


def test_c08_coefficient_conjugacy(interior_family, cyclic_family):
    for _, _, _, bundle in interior_family + cyclic_family:
        assert np.max(np.abs(bundle.coeffs.c - np.conj(bundle.coeffs.q))) <= 1e-11


def test_c09_involutive_equivalence(interior_family, cyclic_family):
    eye2 = np.eye(2, dtype=complex)
    eye3 = np.eye(3, dtype=complex)
    successes = 0
    for _, p, system, _ in interior_family + cyclic_family:
        try:
            _, normalized = involutive_normalization(system, p)
        except NonRealQuasiparity:
            continue  # no admissible kappa on this model; nothing to verify
        bundle = build_bundle(normalized, p)
        eye = eye2 if system.dim == 2 else eye3
        q2 = bundle.quasiparity @ bundle.quasiparity
        c2 = bundle.charge @ bundle.charge
        assert np.linalg.norm(q2 - eye) <= 1e-10
        assert np.linalg.norm(c2 - eye) <= 1e-10
        successes += 1
    assert successes >= len(interior_family)  # the two-level family always admits one


def test_c10_hermitian_partner_singularities():
    p4 = cyclic_p(4)
    assert hermitian_sum(p4).smallest_singular_value <= 1e-12
    angles = 2.0 * np.pi * np.arange(64) / 64.0
    singular = [
        k for k, theta in enumerate(angles)
        if not hermitian_rotation(p4, float(theta)).invertible
    ]
    assert singular == [0, 16, 32, 48]  # theta in piZ/2 and nowhere else
    assert hermitian_rotation(p4, np.pi / 4.0).smallest_singular_value >= 0.1


def _naive_operators(system, p_matrix):
    """Entry-by-entry reimplementation of the spectral-sum builders."""
    n = system.dim
    coeffs = []
    for k in range(n):
        v = system.right[:, k] / system.kappa[k]
        overlap = 0.0 + 0.0j
        for i in range(n):
            for j in range(n):
                overlap += np.conj(v[i]) * p_matrix[i, j] * v[j]
        coeffs.append(1.0 / overlap / abs(system.kappa[k]) ** 2)
    theta = np.zeros((n, n), dtype=complex)
    quasi = np.zeros((n, n), dtype=complex)
    charge = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                theta[i, j] += system.left[i, k] * np.conj(system.left[j, k])
                quasi[i, j] += system.right[i, k] * coeffs[k] * np.conj(system.left[j, k])
                charge[i, j] += system.left[i, k] * coeffs[k] * np.conj(system.right[j, k])
    return theta, quasi, charge


def test_c11_naive_oracle_equivalence():
    b4 = 0.3 + 0.4j
    p4 = cyclic_p(4)
    h4 = 0.1 * np.eye(4, dtype=complex) + b4 * p4 + np.conj(b4) * p4.conj().T
    cases = [
        (build_h2(1.0, 0.0, 0.4j), parity2()),
        (build_h3(0.0, 0.3 + 0.4j), cyclic_p(3)),
        (h4, p4),
    ]
    for h, p in cases:
        system = solve_biorthogonal(h)
        bundle = build_bundle(system, p)
        theta, quasi, charge = _naive_operators(system, p)
        assert np.max(np.abs(bundle.theta - theta)) <= 1e-12
        assert np.max(np.abs(bundle.quasiparity - quasi)) <= 1e-12
        assert np.max(np.abs(bundle.charge - charge)) <= 1e-12
        p_inv = np.linalg.inv(p)
        q_check = np.linalg.norm(bundle.quasiparity - p_inv @ bundle.theta)
        c_check = np.linalg.norm(bundle.charge - bundle.theta @ p_inv)
        assert q_check / np.linalg.norm(bundle.quasiparity) <= 1e-10
        assert c_check / np.linalg.norm(bundle.charge) <= 1e-10
    # frozen four-level levels for the fixture above
    sys4 = solve_biorthogonal(h4)
    assert np.allclose(sys4.energies, [-0.7, -0.5, 0.7, 0.9], atol=1e-12)


def test_c12_cli_determinism_and_exit_codes(tmp_path, capsys):
    paths = {}
    fixtures = {
        "h3.json": build_h3(0.0, 0.3 + 0.4j),
        "p3.json": cyclic_p(3),
        "p2.json": parity2(),
        "h_complex.json": build_h2(1.0, 0.0, 0.6j),
        "h_degenerate.json": build_h2(1.0, 0.0, 0.5j),
        "h_lopsided.json": np.array([[1.0, 0.3], [0.2, 0.0]], dtype=complex),
    }
    for name, matrix in fixtures.items():
        target = tmp_path / name
        save_matrix(target, matrix)
        paths[name] = str(target)

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out

    # byte-identical repetition
    code_a, out_a = run("diagnose", paths["h3.json"], paths["p3.json"])
    code_b, out_b = run("diagnose", paths["h3.json"], paths["p3.json"])
    assert (code_a, out_a) == (code_b, out_b)
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    _, metric_a = run("metric", paths["h3.json"], paths["p3.json"], "--out-dir", str(m1))
    _, metric_b = run("metric", paths["h3.json"], paths["p3.json"], "--out-dir", str(m2))
    assert metric_a == metric_b
    for name in ("theta.json", "q.json", "c.json"):
        assert (m1 / name).read_bytes() == (m2 / name).read_bytes()

    # six-case exit matrix
    assert run("diagnose", paths["h3.json"], paths["p3.json"])[0] == 0
    assert run("diagnose", str(tmp_path / "absent.json"), paths["p3.json"])[0] == 1
    assert run("diagnose", paths["h_lopsided.json"], paths["p2.json"])[0] == 2
    assert run("diagnose", paths["h_complex.json"], paths["p2.json"])[0] == 3
    assert run("diagnose", paths["h_degenerate.json"], paths["p2.json"])[0] == 3
    assert run(
        "metric", paths["h3.json"], paths["p3.json"],
        "--kappa", "involutive", "--out-dir", str(tmp_path / "m3"),
    )[0] == 4

    # sanity on the report body of the successful case
    assert json.loads(out_a)["metric"]["factorizations_hold"] is True


def _spread_intertwiner():
    # H = S D S^-1 and P = S^-dag diag(w) S^-1 at N = 4, with S = (I + L)(I + U)
    # unit bidiagonal in {-1, 1}, so S^-1 and H are exact integer matrices, and
    # w positive over 5.25 decades, so P (formed in floating point) intertwines
    # H with cond(P) ~ 9e6.  The inverse form ||P H P^-1 - H^dag||_F / ||H||_F
    # reads 2.5e-10 on this pair under the SkylakeX, Haswell and Prescott
    # kernels, above the default tolerance, while every other gate passes
    lower, upper = np.eye(4), np.eye(4)
    lower[[1, 2, 3], [0, 1, 2]] = (1, 1, 1)
    upper[[0, 1, 2], [1, 2, 3]] = (-1, -1, 1)
    s = lower @ upper
    s_inv = np.linalg.inv(s).round()
    h = (s * np.array([-2.0, -1.0, 1.0, 3.0])) @ s_inv
    p = (s_inv.T * 10.0 ** (-1.75 * np.arange(4))) @ s_inv
    return h.astype(complex), p.astype(complex)


def test_c13_ill_conditioned_intertwiner_holds(tmp_path, capsys):
    # the P equation's backward error does not grow with cond(P), so a correct
    # P holds however ill-conditioned it is below CONDITION_CAP
    h, p = _spread_intertwiner()
    assert 5e6 < np.linalg.cond(p) < 2e7
    found = diagnose(h, p)
    assert [v.name for v in found.verdicts] == ["pseudo_hermitian", "quasi_hermitian"]
    assert found.verdicts[0].residual <= 1e-15
    assert found.holds and found.warnings == ()
    for name, matrix in (("h.json", h), ("p.json", p)):
        save_matrix(tmp_path / name, matrix)
    assert main(["diagnose", str(tmp_path / "h.json"), str(tmp_path / "p.json")]) == 0
    assert json.loads(capsys.readouterr().out)["metric"]["factorizations_hold"] is True
