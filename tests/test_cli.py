import json

import numpy as np
import pytest

from cryptoherm import build_h2, build_h3, cyclic_p, parity2
from cryptoherm.cli import main
from cryptoherm.io import load_matrix, save_matrix


@pytest.fixture
def files(tmp_path):
    """Standard fixture files shared by most CLI tests."""
    paths = {}

    def write(name, matrix):
        p = tmp_path / name
        save_matrix(p, matrix)
        paths[name] = str(p)

    write("h3.json", build_h3(0.0, 0.3 + 0.4j))
    write("p3.json", cyclic_p(3))
    write("h2.json", build_h2(1.0, 0.0, 0.4j))
    write("p2.json", parity2())
    write("h2_exterior.json", build_h2(1.0, 0.0, 0.6j))
    write("h2_boundary.json", build_h2(1.0, 0.0, 0.5j))
    # real spectrum but no intertwining relation with parity2 at all
    write("h_lopsided.json", np.array([[1.0, 0.3], [0.2, 0.0]], dtype=complex))
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitMatrix:
    def test_ok(self, files, capsys):
        code, out, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        assert code == 0
        assert json.loads(out)["schema"] == 1

    def test_usage_missing_file(self, files, capsys):
        code, _, err = run(capsys, "diagnose", files["dir"] + "/nope.json", files["p3.json"])
        assert code == 1
        assert "error" in err

    def test_usage_bad_flag_value(self, files, capsys):
        code, _, err = run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
                           "--b-re", "0", "--b-im", "0:1:1")
        assert code == 1
        assert "steps" in err

    def test_verdict_failure(self, files, capsys):
        code, out, _ = run(capsys, "diagnose", files["h_lopsided.json"], files["p2.json"])
        assert code == 2
        report = json.loads(out)
        assert any(not v["holds"] for v in report["verdicts"])

    def test_complex_spectrum(self, files, capsys):
        code, out, _ = run(capsys, "diagnose", files["h2_exterior.json"], files["p2.json"])
        assert code == 3
        report = json.loads(out)
        assert report["spectrum"]["all_real"] is False
        assert report["metric"] is None
        assert any("ComplexSpectrum" in w for w in report["warnings"])

    def test_degenerate_spectrum(self, files, capsys):
        code, out, _ = run(capsys, "diagnose", files["h2_boundary.json"], files["p2.json"])
        assert code == 3
        assert any("DegenerateSpectrum" in w for w in json.loads(out)["warnings"])

    def test_non_real_quasiparity(self, files, capsys):
        code, _, err = run(capsys, "metric", files["h3.json"], files["p3.json"],
                           "--kappa", "involutive", "--out-dir", files["dir"] + "/m")
        assert code == 4
        assert "levels" in err

    def test_dimension_mismatch_is_usage(self, files, capsys):
        code, _, err = run(capsys, "diagnose", files["h3.json"], files["p2.json"])
        assert code == 1
        assert "dimension mismatch" in err


def _near_ep_cases():
    # build_h2(1, 0, i beta) has disc = 1 - 4 beta^2; walk it to +-10^-k
    cases = [
        pytest.param(1.0, 0.0, 1j * np.sqrt((1.0 - sign * 10.0**-k) / 4.0),
                     id=f"disc={sign * 10.0**-k:+.0e}")
        for k in range(2, 15)
        for sign in (1, -1)
    ]
    return cases + [pytest.param(1.0, 0.0, 0.5 - 1e-9, id="b=0.5-1e-9")]


@pytest.mark.parametrize("a,d,b", _near_ep_cases())
def test_diagnose_reports_near_exceptional_point(a, d, b, files, capsys, tmp_path):
    h = tmp_path / "h.json"
    save_matrix(h, build_h2(a, d, b))
    code, out, _ = run(capsys, "diagnose", str(h), files["p2.json"])
    report = json.loads(out)
    assert "spectrum" in report and "verdicts" in report
    assert code in (0, 2, 3)
    disc = (a - d) ** 2 - 4.0 * abs(b) ** 2
    if 1e-12 * 0.99 <= disc <= 1e-6 * 1.01:
        # Theta's smallest eigenvalue shrinks like disc, but stays resolved
        assert code == 0
        assert report["metric"] is not None


@pytest.mark.parametrize(
    "command,h_name,p_name,expected",
    [
        ("diagnose", "h3.json", "p3.json", {"eig": 1, "p_svd": 1, "inv": 2}),
        ("diagnose", "h2_b.json", "p2.json", {"eig": 1, "p_svd": 1, "inv": 2}),
        ("metric", "h3.json", "p3.json", {"eig": 1, "p_svd": 1, "inv": 1}),
        ("metric", "h2_b.json", "p2.json", {"eig": 1, "p_svd": 1, "inv": 1}),
    ],
)
def test_each_operand_factored_once(command, h_name, p_name, expected, files, capsys,
                                    monkeypatch, tmp_path):
    # one eig of H, one SVD of P (svd or cond), inverses of R and, for diagnose, P
    save_matrix(tmp_path / "h2_b.json", build_h2(1.0, 0.0, 0.3j))
    paths = dict(files, **{"h2_b.json": str(tmp_path / "h2_b.json")})
    calls = {"eig": 0, "svd": 0, "cond": 0, "inv": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    code, _, _ = run(capsys, command, paths[h_name], paths[p_name],
                     "--out-dir", str(tmp_path / "out"))
    assert code == 0
    counts = {"eig": calls["eig"], "p_svd": calls["svd"] + calls["cond"], "inv": calls["inv"]}
    assert counts == expected


class TestDiagnoseReport:
    def test_schema_fields(self, files, capsys):
        _, out, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        report = json.loads(out)
        assert list(report.keys()) == [
            "schema", "command", "model_fingerprint", "tolerance",
            "spectrum", "verdicts", "metric", "warnings",
        ]

    def test_weak_triplet_included_only_for_non_self_adjoint(self, files, capsys):
        _, out3, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        names3 = [v["name"] for v in json.loads(out3)["verdicts"]]
        assert "weak_triplet" in names3
        _, out2, _ = run(capsys, "diagnose", files["h2.json"], files["p2.json"])
        names2 = [v["name"] for v in json.loads(out2)["verdicts"]]
        assert "weak_triplet" not in names2

    def test_metric_summary_contents(self, files, capsys):
        _, out, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        metric = json.loads(out)["metric"]
        assert metric["factorizations_hold"] is True
        assert metric["theta_min_eigenvalue"] > 0
        assert set(metric["residuals"]) == {"theta_hermitian", "pq", "cp", "qdag_pdag", "pdag_cdag"}
        assert max(metric["residuals"].values()) <= 1e-10
        assert len(metric["kappa"]) == 3

    def test_non_real_quasiparity_warning_without_failure(self, files, capsys):
        # cyclic candidate has unit-circle coefficients: fine for diagnose
        code, out, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        assert code == 0
        assert any("non-real quasiparity" in w for w in json.loads(out)["warnings"])

    def test_out_dir_written(self, files, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        _, out, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"],
                        "--out-dir", str(out_dir))
        on_disk = (out_dir / "report.json").read_text()
        assert on_disk == out

    def test_identity_pair_trivially_clean(self, files, capsys, tmp_path):
        h = tmp_path / "eye_h.json"
        p = tmp_path / "eye_p.json"
        save_matrix(h, np.diag([1.0 + 0j, 2.0, 3.0]))
        save_matrix(p, np.eye(3, dtype=complex))
        code, out, _ = run(capsys, "diagnose", str(h), str(p))
        assert code == 0
        report = json.loads(out)
        assert all(v["holds"] for v in report["verdicts"])


class TestMetricCommand:
    def test_writes_three_files(self, files, capsys, tmp_path):
        out_dir = tmp_path / "ops"
        code, out, _ = run(capsys, "metric", files["h2.json"], files["p2.json"],
                           "--out-dir", str(out_dir))
        assert code == 0
        for name in ("theta.json", "q.json", "c.json"):
            matrix, _ = load_matrix(out_dir / name)
            assert matrix.shape == (2, 2)
        assert json.loads(out)["involutive"] == {"applied": False}

    def test_written_theta_matches_oracle(self, files, capsys, tmp_path):
        out_dir = tmp_path / "ops"
        run(capsys, "metric", files["h2.json"], files["p2.json"], "--out-dir", str(out_dir))
        theta, _ = load_matrix(out_dir / "theta.json")
        expected = np.array(
            [[25.0 / 9.0, (20.0 / 9.0) * 1j], [-(20.0 / 9.0) * 1j, 25.0 / 9.0]]
        )
        assert np.allclose(theta, expected, atol=1e-12)

    def test_involutive_mode_reports_residuals(self, files, capsys, tmp_path):
        code, out, _ = run(capsys, "metric", files["h2.json"], files["p2.json"],
                           "--kappa", "involutive", "--out-dir", str(tmp_path / "inv"))
        assert code == 0
        block = json.loads(out)["involutive"]
        assert block["applied"] is True
        assert block["q_squared_residual"] <= 1e-10
        assert block["c_squared_residual"] <= 1e-10
        assert block["holds"] is True

    def test_kappa_of_ones_matches_default_byte_for_byte(self, files, capsys, tmp_path):
        kfile = tmp_path / "ones.json"
        kfile.write_text("[[1.0, 0.0], [1.0, 0.0]]")
        d1 = tmp_path / "default"
        d2 = tmp_path / "ones"
        run(capsys, "metric", files["h2.json"], files["p2.json"], "--out-dir", str(d1))
        run(capsys, "metric", files["h2.json"], files["p2.json"],
            "--kappa", str(kfile), "--out-dir", str(d2))
        assert (d1 / "theta.json").read_bytes() == (d2 / "theta.json").read_bytes()

    def test_phase_kappa_leaves_theta_unchanged(self, files, capsys, tmp_path):
        kfile = tmp_path / "phases.json"
        phases = np.exp(1j * np.array([0.9, -1.3]))
        kfile.write_text(json.dumps([[z.real, z.imag] for z in phases]))
        d1 = tmp_path / "plain"
        d2 = tmp_path / "phased"
        run(capsys, "metric", files["h2.json"], files["p2.json"], "--out-dir", str(d1))
        run(capsys, "metric", files["h2.json"], files["p2.json"],
            "--kappa", str(kfile), "--out-dir", str(d2))
        t1, _ = load_matrix(d1 / "theta.json")
        t2, _ = load_matrix(d2 / "theta.json")
        assert np.max(np.abs(t1 - t2)) <= 1e-12

    def test_bad_kappa_file_is_usage_error(self, files, capsys, tmp_path):
        kfile = tmp_path / "bad.json"
        kfile.write_text("[[0.0, 0.0], [1.0, 0.0]]")
        code, _, err = run(capsys, "metric", files["h2.json"], files["p2.json"],
                           "--kappa", str(kfile), "--out-dir", str(tmp_path / "x"))
        assert code == 1
        assert "nonzero" in err

    def test_obstructed_spectrum_exits_three(self, files, capsys, tmp_path):
        code, _, err = run(capsys, "metric", files["h2_exterior.json"], files["p2.json"],
                           "--out-dir", str(tmp_path / "x"))
        assert code == 3
        assert "ComplexSpectrum" in err


class TestSweep:
    def test_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
                           "--b-re", "0", "--b-im", "0:1:11")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "b_re,b_im,discriminant,class,min_gap"
        assert len(lines) == 12

    def test_flip_past_half(self, capsys):
        _, out, _ = run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
                        "--b-re", "0", "--b-im", "0:1:11")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        classes = [r[3] for r in rows]
        ims = [float(r[1]) for r in rows]
        last_interior = max(i for i, c in enumerate(classes) if c == "interior")
        first_exterior = min(i for i, c in enumerate(classes) if c == "exterior")
        assert ims[last_interior] < 0.5 < ims[first_exterior] + 1e-12
        assert classes[5] == "boundary"  # the grid hits |b| = 0.5 exactly

    def test_equal_diagonal_never_interior(self, capsys):
        _, out, _ = run(capsys, "sweep", "--model", "h2", "--a", "0.7", "--d", "0.7",
                        "--b-re", "0.1:1:4", "--b-im", "0")
        classes = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
        assert set(classes) <= {"exterior", "boundary"}

    def test_zero_b_interior_when_diagonal_split(self, capsys):
        _, out, _ = run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
                        "--b-re", "0", "--b-im", "0")
        row = out.strip().splitlines()[1].split(",")
        assert row[3] == "interior"

    def test_min_gap_is_sqrt_abs_discriminant(self, capsys):
        _, out, _ = run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
                        "--b-re", "0", "--b-im", "0:1:3")
        for line in out.strip().splitlines()[1:]:
            cols = line.split(",")
            assert float(cols[4]) == pytest.approx(np.sqrt(abs(float(cols[2]))), abs=1e-15)

    def test_negative_range_as_separate_argument(self, capsys):
        _, joined, _ = run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
                           "--b-re=-1:1:5", "--b-im=-1:1:5")
        code, spaced, _ = run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
                              "--b-re", "-1:1:5", "--b-im", "-1:1:5")
        assert code == 0
        assert spaced.encode() == joined.encode()
        assert len(spaced.strip().splitlines()) == 26

    def test_grid_order_row_major(self, capsys):
        _, out, _ = run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
                        "--b-re", "0:1:2", "--b-im", "0:1:2")
        pairs = [tuple(line.split(",")[:2]) for line in out.strip().splitlines()[1:]]
        assert pairs == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


class TestHermitize:
    def test_cyclic4_scan_singular_exactly_at_quarter_turns(self, files, capsys, tmp_path):
        p4 = tmp_path / "p4.json"
        save_matrix(p4, cyclic_p(4))
        code, out, _ = run(capsys, "hermitize", str(p4), "--theta", "scan:64")
        assert code == 0
        report = json.loads(out)
        assert report["sum"]["invertible"] is False
        singular = [i for i, row in enumerate(report["rotation"]) if not row["invertible"]]
        assert singular == [0, 16, 32, 48]  # theta in {0, pi/2, pi, 3pi/2}

    def test_explicit_theta_list(self, files, capsys, tmp_path):
        p4 = tmp_path / "p4.json"
        save_matrix(p4, cyclic_p(4))
        _, out, _ = run(capsys, "hermitize", str(p4), "--theta", "0.78539816339744831,0")
        rot = json.loads(out)["rotation"]
        assert rot[0]["invertible"] is True
        assert rot[0]["smallest_singular_value"] >= 0.1
        assert rot[1]["invertible"] is False

    def test_sum_reported_self_adjoint(self, files, capsys):
        _, out, _ = run(capsys, "hermitize", files["p3.json"], "--theta", "scan:4")
        assert json.loads(out)["sum"]["self_adjoint"] is True

    def test_bad_theta_expression(self, files, capsys):
        code, _, err = run(capsys, "hermitize", files["p3.json"], "--theta", "abc")
        assert code == 1
        assert "--theta" in err


class TestDeterminism:
    def test_diagnose_byte_identical(self, files, capsys):
        _, out1, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        _, out2, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        assert out1 == out2

    def test_metric_files_byte_identical(self, files, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        _, out1, _ = run(capsys, "metric", files["h3.json"], files["p3.json"],
                         "--out-dir", str(d1))
        _, out2, _ = run(capsys, "metric", files["h3.json"], files["p3.json"],
                         "--out-dir", str(d2))
        assert out1 == out2
        for name in ("theta.json", "q.json", "c.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_fingerprint_distinguishes_models(self, files, capsys):
        _, out1, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        _, out2, _ = run(capsys, "diagnose", files["h2.json"], files["p2.json"])
        assert json.loads(out1)["model_fingerprint"] != json.loads(out2)["model_fingerprint"]
