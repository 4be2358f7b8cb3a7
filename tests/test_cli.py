import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryptoherm.errors
import cryptoherm.linalg
from cryptoherm import build_h2, build_h3, classify_h2, cyclic_p, parity2, swap2
from cryptoherm.cli import _PARSER, _REFUSALS, _parse_axis, _UsageError, _verdict_rows, main
from cryptoherm.io import canonical_json, format_float, load_matrix, save_matrix
from cryptoherm.symmetry import SymmetryVerdict
from conftest import count_calls, sample_similar


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
        assert json.loads(out)["schema"] == 4

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

    def test_small_complex_spectrum(self, files, capsys, tmp_path):
        # max |Im E| = 6.2e-14 against rel ||H||_F = 1.3e-23: 1e-13 H is a complex pair,
        # as H is
        h = tmp_path / "h_small.json"
        save_matrix(h, 1e-13 * build_h2(1.0, 0.0, 0.8j))
        code, out, _ = run(capsys, "diagnose", str(h), files["p2.json"])
        report = json.loads(out)
        assert code == 3 and report["spectrum"]["all_real"] is False
        assert any("ComplexSpectrum" in w for w in report["warnings"])

    def test_degenerate_spectrum(self, files, capsys):
        code, out, _ = run(capsys, "diagnose", files["h2_boundary.json"], files["p2.json"])
        assert code == 3
        assert any("DegenerateSpectrum" in w for w in json.loads(out)["warnings"])

    def test_zero_hamiltonian_is_degenerate(self, files, capsys, tmp_path):
        # the 2x2 zero H has one doubly degenerate level, like H = I
        for name, h in (("zero.json", np.zeros((2, 2))), ("identity.json", np.eye(2))):
            save_matrix(tmp_path / name, h)
            code, out, err = run(capsys, "diagnose", str(tmp_path / name), files["p2.json"])
            assert (code, err) == (3, "")
            report = json.loads(out)
            assert report["spectrum"]["values"] == [[h[0, 0], 0], [h[0, 0], 0]]
            assert report["metric"] is None
            assert any("DegenerateSpectrum" in w for w in report["warnings"])

    def test_non_real_quasiparity(self, files, capsys):
        code, _, err = run(capsys, "metric", files["h3.json"], files["p3.json"],
                           "--kappa", "involutive", "--out-dir", files["dir"] + "/m")
        assert code == 4
        assert "levels" in err

    def test_dimension_mismatch_is_usage(self, files, capsys):
        code, _, err = run(capsys, "diagnose", files["h3.json"], files["p2.json"])
        assert code == 1
        assert "dimension mismatch" in err

    def test_metric_refuses_singular_pseudometric_before_writing(self, files, capsys, tmp_path):
        save_matrix(tmp_path / "p_singular.json", np.diag([1.0 + 0j, 0.0]))
        out_dir = tmp_path / "m"
        code, out, err = run(capsys, "metric", files["h2.json"], str(tmp_path / "p_singular.json"),
                             "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err == "error: pseudometric not invertible: condition estimate inf exceeds cap 1e+12\n"
        assert not out_dir.exists()
        # diagnose refuses the same pair with the same line
        assert run(capsys, "diagnose", files["h2.json"], str(tmp_path / "p_singular.json")) == (
            1, "", err)


class TestInvertibilityRule:
    """One rule: a pseudo-metric is invertible when cond(P) is finite and <= 1e12."""

    @pytest.fixture
    def diag_p(self, tmp_path):
        def write(small):
            path = tmp_path / f"p_{small}.json"
            save_matrix(path, np.diag([1.0 + 0j, small]))
            return str(path)
        return write

    def test_cond_1e11_accepted_everywhere(self, files, diag_p, capsys, tmp_path):
        p = diag_p(-1e-11)
        code, out, err = run(capsys, "hermitize", p, "--theta", "1.0")
        report = json.loads(out)
        assert (code, err, report["warnings"]) == (0, "", [])
        assert report["sum"]["invertible"] is True
        assert report["rotation"][0]["invertible"] is True
        for argv in (["diagnose", files["h2.json"], p],
                     ["metric", files["h2.json"], p, "--out-dir", str(tmp_path / "m")]):
            code, out, err = run(capsys, *argv)
            assert code != 1 and err == "" and json.loads(out)["schema"] == 4

    def test_cond_1e13_refused_everywhere(self, files, diag_p, capsys, tmp_path):
        p = diag_p(-1e-13)
        refusal = "error: pseudometric not invertible: condition estimate 1.000e+13 exceeds cap 1e+12\n"
        assert run(capsys, "diagnose", files["h2.json"], p) == (1, "", refusal)
        assert run(capsys, "metric", files["h2.json"], p,
                   "--out-dir", str(tmp_path / "m")) == (1, "", refusal)
        code, out, _ = run(capsys, "hermitize", p, "--theta", "1.0")
        report = json.loads(out)
        assert code == 0
        assert report["sum"]["invertible"] is False
        assert report["rotation"][0]["invertible"] is False
        assert report["warnings"] == ["singular Hermitian partner: P + adjoint(P)",
                                      "singular Hermitian partner at theta = 1"]

    def test_zero_up_to_rounding_refused_everywhere(self, files, diag_p, capsys, tmp_path):
        # only a Hermitian partner is zero up to rounding, under the floor 8 eps ||P||_F of
        # its P: -2 sin(pi) P is, at every scale of P, and a P given directly never is
        for scale in (1.0, 1e-13, 1e-300):
            p = str(tmp_path / f"p_{scale}.json")
            save_matrix(p, scale * parity2())
            code, out, err = run(capsys, "hermitize", p, "--theta", "1.0,3.141592653589793")
            assert (code, err) == (0, "")
            assert [row["invertible"] for row in json.loads(out)["rotation"]] == [True, False]
        # 1e-13 P (cond 1) gives the verdicts and exit codes that P gives
        small = str(tmp_path / "p_1e-13.json")
        for command, extra in (("diagnose", []), ("metric", ["--out-dir", str(tmp_path / "m")])):
            plain = run(capsys, command, files["h2.json"], files["p2.json"], *extra)
            scaled = run(capsys, command, files["h2.json"], small, *extra)
            assert scaled[0] == plain[0] == 0 and scaled[2] == plain[2] == ""
        verdicts = [json.loads(run(capsys, "diagnose", files["h2.json"], p)[1])["verdicts"]
                    for p in (files["p2.json"], small)]
        assert [v["holds"] for v in verdicts[0]] == [v["holds"] for v in verdicts[1]] == [True] * 2

    def test_inverse_beyond_float64_refused_everywhere(self, files, capsys, tmp_path):
        # cond 1 and not negligible, but 1 / 1e-320 overflows
        p = str(tmp_path / "p_subnormal.json")
        save_matrix(p, 1e-320 * parity2())
        refusal = ("error: pseudometric not invertible: smallest singular value 1.000e-320:"
                   " the inverse leaves float64\n")
        assert run(capsys, "diagnose", files["h2.json"], p) == (1, "", refusal)
        out_dir = tmp_path / "m"
        assert run(capsys, "metric", files["h2.json"], p,
                   "--out-dir", str(out_dir)) == (1, "", refusal)
        assert not out_dir.exists()


class TestIntegerBeyondFloat64:
    """An integer that float64 cannot hold is one error line, never a traceback."""

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize("command", ["diagnose", "hermitize"])
    def test_matrix_file(self, command, files, capsys, tmp_path):
        h = tmp_path / "huge.json"
        h.write_text(f'{{"dim": 2, "data": [[1, 0], [0, 0], [0, 0], [-{self.HUGE}, 0.5]]}}')
        argv = [command, str(h)] + ([files["p2.json"]] if command == "diagnose" else [])
        assert run(capsys, *argv) == (
            1, "", f"error: {h}: data[3]: entry out of float64 range [-{self.HUGE}, 0.5]\n")

    def test_kappa_file(self, files, capsys, tmp_path):
        kappa = tmp_path / "k.json"
        kappa.write_text(f"[[1, 0], [0, {self.HUGE}]]")
        out_dir = tmp_path / "m"
        assert run(capsys, "metric", files["h2.json"], files["p2.json"], "--kappa", str(kappa),
                   "--out-dir", str(out_dir)) == (
            1, "", f"error: {kappa}: [1]: entry out of float64 range [0, {self.HUGE}]\n")
        assert not out_dir.exists()


def _argv(command, path, files, tmp_path):
    """``command`` with ``path`` as its first matrix file and fixture files for the rest."""
    if command == "hermitize":
        return [command, str(path)]
    return [command, str(path), files["p2.json"], "--out-dir", str(tmp_path / "out")]


class TestFileNestedPastRecursionLimit:
    """JSON nested deeper than the decoder can recurse is invalid JSON, not a traceback."""

    @pytest.fixture
    def nested(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        return path

    def _assert_invalid(self, result, path):
        code, out, err = result
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: invalid JSON (") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["diagnose", "metric", "hermitize"])
    def test_matrix_file(self, command, nested, files, capsys, tmp_path):
        self._assert_invalid(run(capsys, *_argv(command, nested, files, tmp_path)), nested)

    def test_kappa_file(self, nested, files, capsys, tmp_path):
        out_dir = tmp_path / "m"
        self._assert_invalid(run(capsys, "metric", files["h2.json"], files["p2.json"],
                                 "--kappa", str(nested), "--out-dir", str(out_dir)), nested)
        assert not out_dir.exists()


class TestFileNotUtf8:
    """A file whose bytes are not UTF-8 is invalid JSON, not a UnicodeDecodeError traceback."""

    @pytest.fixture
    def utf16(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes('{"dim": 1, "data": [[1, 0]]}'.encode("utf-16"))  # starts ff fe
        assert path.read_bytes()[:2] == b"\xff\xfe"
        return path

    def _assert_invalid(self, result, path):
        code, out, err = result
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: invalid JSON ('utf-8' codec can't decode")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["diagnose", "metric", "hermitize"])
    def test_matrix_file(self, command, utf16, files, capsys, tmp_path):
        self._assert_invalid(run(capsys, *_argv(command, utf16, files, tmp_path)), utf16)

    def test_kappa_file(self, utf16, files, capsys, tmp_path):
        out_dir = tmp_path / "m"
        self._assert_invalid(run(capsys, "metric", files["h2.json"], files["p2.json"],
                                 "--kappa", str(utf16), "--out-dir", str(out_dir)), utf16)
        assert not out_dir.exists()


class TestFileWithBom:
    """A UTF-8 file that opens with a byte-order mark is refused as invalid JSON, naming the BOM."""

    @pytest.fixture
    def bom(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + b"[[1, 0], [1, 0]]")
        return path

    def _assert_refused(self, result, path):
        assert result == (1, "", f"error: {path}: invalid JSON (Unexpected UTF-8 BOM "
                                 "(decode using utf-8-sig): line 1 column 1 (char 0))\n")

    @pytest.mark.parametrize("command", ["diagnose", "metric", "hermitize"])
    def test_matrix_file(self, command, bom, files, capsys, tmp_path):
        self._assert_refused(run(capsys, *_argv(command, bom, files, tmp_path)), bom)

    def test_kappa_file(self, bom, files, capsys, tmp_path):
        out_dir = tmp_path / "m"
        self._assert_refused(run(capsys, "metric", files["h2.json"], files["p2.json"],
                                 "--kappa", str(bom), "--out-dir", str(out_dir)), bom)
        assert not out_dir.exists()


class TestUnusableOutDir:
    """An --out-dir that cannot be a directory is one error line, exit 1, empty stdout."""

    @pytest.fixture(params=["file", "under_file"])
    def out_dir(self, request, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        return blocker if request.param == "file" else blocker / "sub"

    @pytest.mark.parametrize("command", ["diagnose", "metric"])
    def test_refused(self, command, out_dir, files, capsys, tmp_path):
        code, out, err = run(capsys, command, files["h2.json"], files["p2.json"],
                             "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --out-dir {out_dir}: ") and err.count("\n") == 1
        assert (tmp_path / "blocker").read_text() == "not a directory\n"


class TestNormBeyondFloat64:
    """Finite entries whose Frobenius norm overflows are refused where the file is loaded.

    One error line and nothing else: pytest turns any warning into an error here.
    """

    BIG, NEG = 10**308, -(2**64) - 3
    LAYOUTS = {
        "off-diagonal": [[1, 0], [BIG, 0], [NEG, 0], [1, 0]],
        "first-row": [[BIG, 0], [NEG, 0], [0, 0], [1, 0]],
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("command", ["diagnose", "metric", "hermitize"])
    def test_refused_at_load(self, command, layout, files, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "data": self.LAYOUTS[layout]}))
        assert run(capsys, *_argv(command, path, files, tmp_path)) == (
            1, "", f"error: {path}: Frobenius norm overflows float64\n")
        assert not (tmp_path / "out").exists()

    def test_refused_as_pseudometric(self, files, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "data": self.LAYOUTS["first-row"]}))
        assert run(capsys, "diagnose", files["h2.json"], str(path)) == (
            1, "", f"error: {path}: Frobenius norm overflows float64\n")


@pytest.mark.parametrize("argv,operands", [
    pytest.param(["metric", "H", "P", "--kappa", "K", "--out-dir", "out"],
                 {"H": [[1, 2], [0.5, 3]], "P": [[1e150, 0], [0, -1e150]],
                  "K": [[-1, 1e-8], [1e154, 1e-12]]}, id="metric"),
    # ||P + P^dag||_F^2 overflows: the sum is self-adjoint by construction, not by measure
    pytest.param(["hermitize", "P", "--theta", "0"], {"P": [[0, 1e154], [0, 0]]},
                 id="hermitize"),
    # the squares in the P equation's residual overflow unless it is scaled first
    pytest.param(["diagnose", "H", "P"],
                 {"H": [[1e-170 + 1e154j]], "P": [[1 + 2j]]}, id="diagnose"),
    # ||P - P^dag||_F^2 overflows in the test of whether P is self-adjoint
    pytest.param(["diagnose", "H", "P"], {"H": [[0]], "P": [[1e154j]]},
                 id="diagnose-self-adjoint"),
])
def test_extreme_operands_keep_the_exit_contract(argv, operands, capsys, tmp_path):
    # the README's contract: an exit code from its table, exit 1 as one error line
    # on stderr and nothing on stdout, and no warning on the way
    for name, rows in operands.items():
        path = tmp_path / name
        if name == "K":
            path.write_text(json.dumps(rows))
        else:
            save_matrix(path, np.array(rows, dtype=complex))
    argv = [str(tmp_path / token) if token in operands or token == "out" else token
            for token in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


#: extreme operand entries: magnitudes from the smallest subnormal to near the
#: float64 limit, each of either sign, and half of them zero, so that most
#: operands are sparse enough to load and reach the checks
_MAGNITUDES = (0.0, 5e-324, 1e-320, 1e-170, 1e-8, 1.0, 1e154, 1e200, 1e300, 1.7e308)
_EXTREME = st.one_of(st.just(0.0),
                     st.sampled_from([sign * x for x in _MAGNITUDES for sign in (1.0, -1.0)]))


def _extreme_pairs(count):
    return st.lists(st.lists(_EXTREME, min_size=2, max_size=2), min_size=count, max_size=count)


@st.composite
def _extreme_runs(draw):
    """An argv over the four commands and the tolerance flag, and the files it reads."""
    command = draw(st.sampled_from(["diagnose", "metric", "sweep", "hermitize"]))
    if command == "sweep":
        return ["sweep", "--model", "h2",
                *(f"--{flag}={draw(_EXTREME)!r}" for flag in ("a", "d", "b-re", "b-im"))], {}
    n = draw(st.integers(1, 3))
    files = {"P": {"dim": n, "data": draw(_extreme_pairs(n * n))}}
    if command == "hermitize":
        argv = ["hermitize", "P", "--theta", draw(st.sampled_from(["0", "scan:4", "1e-8,3"]))]
    else:
        files["H"] = {"dim": n, "data": draw(_extreme_pairs(n * n))}
        argv = [command, "H", "P"]
    if command == "metric":
        kappa = draw(st.sampled_from(["none", "involutive", "K"]))
        if kappa == "K":
            files["K"] = draw(_extreme_pairs(n))
        argv += ["--out-dir", "out"] + ([] if kappa == "none" else ["--kappa", kappa])
    if command != "hermitize" and draw(st.booleans()):
        argv.append(f"--tol-rel={draw(st.sampled_from(_MAGNITUDES))!r}")
    return argv, files


def _run_in(tmp: Path, argv, files):
    """exit code, stdout, stderr and the out dir's files of one in-process run, and its warnings."""
    for name, payload in files.items():
        (tmp / name).write_text(json.dumps(payload))
    argv = [str(tmp / token) if token in files or token == "out" else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    written = {p.name: p.read_bytes() for p in sorted((tmp / "out").glob("*"))}
    return (code, out.getvalue(), err.getvalue(), written), [
        f"{w.category.__name__}: {w.message}" for w in caught]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_extreme_runs())
def test_extreme_operands_never_escape_the_exit_contract(run_case):
    # the README's contract, whatever the operands' magnitudes: an exit code from
    # its table, exit 1 as one error line and nothing on stdout, a diagnose report
    # on exit 3, no warning, and the same bytes on a second run
    argv, files = run_case
    with tempfile.TemporaryDirectory() as tmp:
        first, caught = _run_in(Path(tmp), argv, files)
        shutil.rmtree(Path(tmp, "out"), ignore_errors=True)
        again, _ = _run_in(Path(tmp), argv, files)
    code, out, err, _ = first
    assert caught == []
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if code == 3 and argv[0] == "diagnose":
        assert "spectrum" in json.loads(out)
    assert again == first


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
        ("diagnose", "h3.json", "p3.json",
         {"eig": 1, "p_svd": 1, "r_svd": 1, "inv": 1, "eigvalsh": 0, "norm": 11, "acm": 3}),
        ("diagnose", "h2_b.json", "p2.json",
         {"eig": 1, "p_svd": 1, "r_svd": 1, "inv": 1, "eigvalsh": 0, "norm": 11, "acm": 3}),
        ("metric", "h3.json", "p3.json",
         {"eig": 1, "p_svd": 1, "r_svd": 1, "inv": 1, "eigvalsh": 0, "norm": 9, "acm": 6}),
        ("metric", "h2_b.json", "p2.json",
         {"eig": 1, "p_svd": 1, "r_svd": 1, "inv": 1, "eigvalsh": 0, "norm": 9, "acm": 6}),
    ],
)
def test_each_operand_factored_once(command, h_name, p_name, expected, files, capsys,
                                    monkeypatch, tmp_path):
    # one eig of H, one SVD of P (svd or cond), one inverse, of R (nothing inverts P),
    # and one values-only SVD of R, from which the report reads Theta's spectrum, so
    # nothing eigensolves Theta;
    # "norm" counts linalg.frobenius (the load check, ||H||_F once, ||P||_F once, which the
    # P equation and the overlap floor share, ||Theta||_F once, which
    # the bundle keeps for the quasi-Hermiticity check, and the residuals of PQ and CP;
    # nothing tests P's Hermiticity within the tolerance, and Theta is Hermitian as
    # built, so nothing tests it) and "acm" counts as_complex_matrix, both
    # through every module's binding: each loaded operand is coerced where it enters the
    # library, not again at each inner step, and not for the fingerprint, which hashes the
    # loaded arrays as they are
    save_matrix(tmp_path / "h2_b.json", build_h2(1.0, 0.0, 0.3j))
    paths = dict(files, **{"h2_b.json": str(tmp_path / "h2_b.json")})
    p_matrix = load_matrix(paths[p_name])
    calls = {"eig": 0, "p_svd": 0, "r_svd": 0, "inv": 0, "eigvalsh": 0}
    for name in ("eig", "svd", "cond", "inv", "eigvalsh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            if _name in ("svd", "cond"):  # P's SVD is taken of P, R's of anything else
                calls["p_svd" if np.array_equal(args[0], p_matrix) else "r_svd"] += 1
            else:
                calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    norms, coerced = [], []
    count_calls(monkeypatch, cryptoherm.linalg.frobenius, norms.append)
    count_calls(monkeypatch, cryptoherm.linalg.as_complex_matrix, coerced.append)
    code, _, _ = run(capsys, command, paths[h_name], paths[p_name],
                     "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert dict(calls, norm=len(norms), acm=len(coerced)) == expected


def test_main_builds_no_parser(files, capsys, monkeypatch, tmp_path):
    added = []
    real = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    codes = [
        run(capsys, "diagnose", files["h3.json"], files["p3.json"])[0],
        run(capsys, "metric", files["h3.json"], files["p3.json"],
            "--out-dir", str(tmp_path / "m"))[0],
        run(capsys, "sweep", "--model", "h2", "--a", "1", "--d", "0",
            "--b-re", "-1:1:3", "--b-im", "0")[0],
        run(capsys, "hermitize", files["p3.json"], "--theta", "scan:4")[0],
    ]
    assert codes == [0, 0, 0, 0]
    assert added == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "h2", "--a", "1", "--d", "0", "--b-re", "nan", "--b-im", "0"],
        ["sweep", "--model", "h2", "--a", "inf", "--d", "0", "--b-re", "0", "--b-im", "0"],
        ["sweep", "--model", "h2", "--a", "1", "--d=-inf", "--b-re", "0", "--b-im", "0"],
        ["sweep", "--model", "h2", "--a", "1", "--d", "0", "--b-re", "0", "--b-im", "0:nan:3"],
        ["sweep", "--model", "h2", "--a", "1", "--d", "0", "--b-re", "0:1:2",
         "--b-im", "1e308:1e308:2"],
        ["sweep", "--model", "h2", "--a", "1e308", "--d=-1e308", "--b-re", "0", "--b-im", "0"],
        ["sweep", "--model", "h2", "--a", "1", "--d", "0", "--b-re", "-1e308:1e308:3",
         "--b-im", "0"],
        ["hermitize", "P", "--theta", "nan"],
        ["hermitize", "P", "--theta", "0,inf"],
    ],
    ids=lambda argv: " ".join(argv[3:] if argv[0] == "sweep" else argv[2:]),
)
def test_non_finite_or_overflowing_argument_is_usage(argv, files, capsys):
    argv = [files["p3.json"] if token == "P" else token for token in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


_SWEEP = ["sweep", "--model", "h2", "--a", "1", "--d", "0", "--b-re", "0", "--b-im", "0"]


def _swept(flag, value):
    """The plain sweep argv with ``flag`` set to ``value``."""
    argv = list(_SWEEP)
    argv[argv.index(flag) + 1] = value
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope"],
        ["sweep"],
        _swept("--model", "h3"),
        _swept("--a", "abc"),
        ["diagnose", "H", "P", "--bogus"],
        ["diagnose", "H", "P", "--tol-rel", "-1"],
        _swept("--b-re", "abc"),
        _swept("--b-re", "1:2"),
        ["hermitize", "P", "--theta", "scan:x"],
        ["hermitize", "P", "--theta", "scan:0"],
        # one tolerance, relative, and hermitize reads none
        ["diagnose", "H", "P", "--tol-abs", "0"],
        ["metric", "H", "P", "--tol-abs", "0"],
        ["hermitize", "P", "--tol-abs", "0"],
        ["hermitize", "P", "--tol-rel", "1e-8"],
    ],
    ids=["no-command", "unknown-command", "sweep-no-flags", "model", "a", "unknown-flag",
         "tol-rel", "b-re-value", "b-re-form", "theta-scan-count", "theta-scan-zero",
         "diagnose-tol-abs", "metric-tol-abs", "hermitize-tol-abs", "hermitize-tol-rel"],
)
def test_refused_argument_is_one_error_line(argv, files, capsys):
    argv = [{"H": files["h2.json"], "P": files["p2.json"]}.get(token, token) for token in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def _every_option():
    """(command, option) for every option of every command but --help, read off the parser."""
    commands = next(action.choices for action in _PARSER._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [pytest.param(command, action.option_strings[-1], id=command + action.option_strings[-1])
            for command, parser in commands.items()
            for action in parser._actions if action.option_strings[-1:] not in ([], ["--help"])]


@pytest.mark.parametrize("command,option", _every_option())
def test_lone_double_dash_value_is_one_error_line(command, option, files, capsys, tmp_path):
    # Python 3.11's argparse drops the "--" and would pass the command an empty list
    argv = {"diagnose": ["diagnose", files["h2.json"], files["p2.json"]],
            "metric": ["metric", files["h2.json"], files["p2.json"], "--out-dir", str(tmp_path)],
            "sweep": list(_SWEEP),
            "hermitize": ["hermitize", files["p2.json"]]}[command]
    code, out, err = run(capsys, *argv, f"{option}=--")
    assert (code, out) == (1, "")
    assert err == f"error: argument {option}: expected a value, got '--'\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["diagnose", "H", "P"], _SWEEP, ["--help"]],
                         ids=["diagnose", "sweep", "help"])
def test_closed_stdout_is_one_error_line(argv, unbuffered, files):
    # buffered, the output first meets the closed pipe at the flush in main;
    # unbuffered, at the write itself
    argv = [{"H": files["h2.json"], "P": files["p2.json"]}.get(token, token) for token in argv]
    src = str(Path(cryptoherm.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte
    try:
        done = subprocess.run([sys.executable, "-m", "cryptoherm.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "error: stdout was closed before the output was written\n"


def _similar_pair(n: int, u) -> tuple[np.ndarray, np.ndarray]:
    """H = S D S^-1 with levels 0, 1, ..., n - 1, and P = S^-dag diag(u) S^-1 intertwining it."""
    h, s_inv = sample_similar(np.random.default_rng(n), n)
    return h, (s_inv.conj().T * u) @ s_inv


#: one argv of each kind a process runs, with its exit code; {name} is a file
_ONE_OF_EACH = {
    "diagnose-h2": (["diagnose", "{h2}", "{p2}"], 0),
    "diagnose-n16": (["diagnose", "{h16}", "{p16}"], 0),
    "metric-n64-involutive": (["metric", "{h64}", "{p64}", "--kappa", "involutive",
                               "--out-dir", "{out}"], 0),
    "sweep-100x100": (["sweep", "--model", "h2", "--a", "0.7", "--d=-0.3", "--b-re=-1:1:100",
                       "--b-im=-1:1:100"], 0),
    "hermitize-scan-64": (["hermitize", "{p3}", "--theta", "scan:64"], 0),
    "sweep-refused": (["sweep", "--model", "h2", "--a", "1", "--d", "0", "--b-re", "0",
                       "--b-im", "0:1:1"], 1),
    "missing-file": (["diagnose", "{missing}", "{p3}"], 1),
}


@pytest.mark.parametrize("case", _ONE_OF_EACH)
def test_a_run_leaves_no_cyclic_garbage(case, files, capsys, tmp_path):
    # what makes cli.entry's disabled collector free: a warm run of any command
    # leaves nothing that only the collector could reclaim
    h16, p16 = _similar_pair(16, np.exp(1j * np.linspace(0.5, 2.5, 16)))
    h64, p64 = _similar_pair(64, np.resize([1.0, -1.0], 64))
    paths = {"h2": files["h2.json"], "p2": files["p2.json"], "p3": files["p3.json"],
             "missing": str(tmp_path / "nope.json"), "out": str(tmp_path / "out")}
    for name, matrix in [("h16", h16), ("p16", p16), ("h64", h64), ("p64", p64)]:
        paths[name] = str(tmp_path / f"{name}.json")
        save_matrix(paths[name], matrix)
    template, expected = _ONE_OF_EACH[case]
    argv = [token.format(**paths) for token in template]
    for _ in range(2):
        assert main(argv) == expected
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert (code, garbage) == (expected, 0)


#: the exit code and the one stderr line the CLI promises for each refused run
_EXPECTED_REFUSALS = {
    "_UsageError": (1, "error: boom\n"),
    "MatrixFileError": (1, "error: boom\n"),
    "DimensionMismatch": (1, "error: boom\n"),
    "ZeroKappa": (1, "error: boom\n"),
    "SingularMatrix": (1, "error: pseudometric not invertible: boom\n"),
    "NonRealQuasiparity": (4, "error: boom\n"),
    "SpectrumObstruction": (3, "error: SpectrumObstruction: boom\n"),
    "ConvergenceFailure": (3, "error: ConvergenceFailure: boom\n"),
    "ComplexSpectrum": (3, "error: ComplexSpectrum: boom\n"),
    "DegenerateSpectrum": (3, "error: DegenerateSpectrum: boom\n"),
    "VanishingOverlap": (2, "error: boom\n"),
    "CryptoHermError": (2, "error: CryptoHermError: boom\n"),
    "NotHermitian": (2, "error: NotHermitian: boom\n"),
    "NotPositiveDefinite": (2, "error: NotPositiveDefinite: boom\n"),
}


def _refusal_kinds():
    """``_UsageError`` and every exception class defined in ``cryptoherm.errors``."""
    kinds = [cls for cls in vars(cryptoherm.errors).values()
             if isinstance(cls, type) and issubclass(cls, Exception)
             and cls.__module__ == "cryptoherm.errors"]
    return [pytest.param(cls, id=cls.__name__) for cls in [_UsageError, *kinds]]


@pytest.mark.parametrize("kind", _refusal_kinds())
def test_each_refusal_has_its_exit_code_and_line(kind, files, capsys, monkeypatch):
    def refuse(args):
        raise kind("boom")

    commands = next(action.choices for action in _PARSER._actions
                    if isinstance(action, argparse._SubParsersAction))
    monkeypatch.setitem(commands["diagnose"]._defaults, "func", refuse)
    expected_code, expected_err = _EXPECTED_REFUSALS[kind.__name__]
    assert run(capsys, "diagnose", files["h2.json"], files["p2.json"]) == \
        (expected_code, "", expected_err)


def test_no_refusal_row_is_shadowed():
    # a row whose kinds all subclass an earlier row's kinds could never be reached
    for i, (kinds, _, _) in enumerate(_REFUSALS):
        earlier = tuple(cls for row in _REFUSALS[:i] for cls in row[0])
        assert not all(issubclass(cls, earlier) for cls in kinds)


def test_metric_vanishing_overlap_exits_two_and_writes_nothing(files, capsys, tmp_path):
    # <v_0|swap2|v_0> is exactly zero for build_h2(1, 0, 0.4j)
    save_matrix(tmp_path / "swap2.json", swap2())
    out_dir = tmp_path / "m"
    code, out, err = run(capsys, "metric", files["h2.json"], str(tmp_path / "swap2.json"),
                         "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith("error: <v_0|P|v_0> = ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_bare_theta_scan_is_scan_64(files, capsys):
    bare = run(capsys, "hermitize", files["p3.json"], "--theta", "scan")
    assert bare[0] == 0
    assert bare == run(capsys, "hermitize", files["p3.json"], "--theta", "scan:64")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "h2", "--a", "-1e-3", "--d", "0.5", "--b-re", "0", "--b-im", "0"],
        ["sweep", "--model", "h2", "--a", "1", "--d", "-2e-1", "--b-re", "0", "--b-im", "0"],
        ["hermitize", "P", "--theta", "-1.5,0"],
        ["sweep", "--model", "h2", "--a", "1", "--d", "0", "--b-re", "0", "--b-im", "-1:1:3"],
    ],
    ids=["a", "d", "theta", "b-im"],
)
def test_negative_option_value_as_separate_argument(argv, files, capsys):
    argv = [files["p3.json"] if token == "P" else token for token in argv]
    flag = next(i for i, token in enumerate(argv) if token.startswith("--") and
                argv[i + 1].startswith("-"))
    joined = argv[:flag] + [f"{argv[flag]}={argv[flag + 1]}"] + argv[flag + 2:]
    expected = run(capsys, *joined)
    assert expected[0] == 0 and expected[1]
    assert run(capsys, *argv) == expected  # exit code, stdout and stderr


class TestDiagnoseReport:
    def test_schema_fields(self, files, capsys):
        _, out, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        report = json.loads(out)
        assert list(report.keys()) == [
            "schema", "command", "model_fingerprint", "tolerance",
            "spectrum", "verdicts", "metric", "warnings",
        ]

    def test_verdict_rows_are_measured_checks(self, files, capsys):
        # a non-self-adjoint P adds no weak-triplet row, whose residual would be the P
        # equation's, and no row carries a detail map
        for h, p in (("h3.json", "p3.json"), ("h2.json", "p2.json")):
            _, out, _ = run(capsys, "diagnose", files[h], files[p])
            rows = json.loads(out)["verdicts"]
            assert [v["name"] for v in rows] == ["pseudo_hermitian", "quasi_hermitian"]
            assert all(list(v) == ["name", "residual", "holds", "tolerance"] for v in rows)

    def test_metric_summary_contents(self, files, capsys):
        _, out, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        metric = json.loads(out)["metric"]
        assert metric["factorizations_hold"] is True
        assert metric["theta_min_eigenvalue"] > 0
        assert list(metric) == ["kappa", "quasiparity_coeffs", "theta_min_eigenvalue",
                                "residuals", "factorizations_hold"]
        assert list(metric["residuals"]) == ["pq", "cp"]
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


_finite = st.floats(allow_nan=False, allow_infinity=False)
_verdicts = st.lists(st.builds(
    SymmetryVerdict,
    name=st.text(max_size=12),
    residual=_finite,
    holds=st.booleans(),
    tolerance=_finite,
), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_verdicts)
def test_verdict_rows_render_as_asdict(verdicts):
    assert canonical_json(_verdict_rows(verdicts)) == \
        canonical_json([asdict(v) for v in verdicts])


class TestMetricCommand:
    def test_writes_three_files(self, files, capsys, tmp_path):
        out_dir = tmp_path / "ops"
        code, out, _ = run(capsys, "metric", files["h2.json"], files["p2.json"],
                           "--out-dir", str(out_dir))
        assert code == 0
        for name in ("theta.json", "q.json", "c.json"):
            matrix = load_matrix(out_dir / name)
            assert matrix.shape == (2, 2)
        assert json.loads(out)["involutive"] == {"applied": False}

    def test_written_theta_matches_oracle(self, files, capsys, tmp_path):
        out_dir = tmp_path / "ops"
        run(capsys, "metric", files["h2.json"], files["p2.json"], "--out-dir", str(out_dir))
        theta = load_matrix(out_dir / "theta.json")
        expected = np.array(
            [[25.0 / 9.0, (20.0 / 9.0) * 1j], [-(20.0 / 9.0) * 1j, 25.0 / 9.0]]
        )
        assert np.allclose(theta, expected, atol=1e-12)

    def test_involutive_mode_reports_residuals(self, files, capsys, tmp_path):
        code, out, _ = run(capsys, "metric", files["h2.json"], files["p2.json"],
                           "--kappa", "involutive", "--out-dir", str(tmp_path / "inv"))
        assert code == 0
        block = json.loads(out)["involutive"]
        # the solved kappa is the metric block's, printed once
        assert list(block) == ["applied", "q_squared_residual", "c_squared_residual", "holds"]
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
        t1 = load_matrix(d1 / "theta.json")
        t2 = load_matrix(d2 / "theta.json")
        assert np.max(np.abs(t1 - t2)) <= 1e-12

    def test_bad_kappa_file_is_usage_error(self, files, capsys, tmp_path):
        kfile = tmp_path / "bad.json"
        kfile.write_text("[[0.0, 0.0], [1.0, 0.0]]")
        code, _, err = run(capsys, "metric", files["h2.json"], files["p2.json"],
                           "--kappa", str(kfile), "--out-dir", str(tmp_path / "x"))
        assert code == 1
        assert "nonzero" in err

    @pytest.mark.parametrize(
        "kappa, error",
        [
            ("1e-200", "|kappa_0| = 1.000e-200: |kappa_0|^2 or its inverse leaves float64"),
            ("1e-160", "|kappa_0| = 1.000e-160: |kappa_0|^2 or its inverse leaves float64"),
            ("1e200", "|kappa_0| = 1.000e+200: |kappa_0|^2 or its inverse leaves float64"),
            # |kappa|^2 and its inverse fit, but C overflows: the bundle itself is refused
            ("1e-150", "metric operators leave float64: theta, Q, C or a residual is not finite"),
            # every operator is finite, but ||Theta||_F overflows: its residuals are undefined
            ("1e-80", "metric operators leave float64: theta, Q, C or a residual is not finite"),
        ],
        ids=["1e-200", "1e-160", "1e200", "1e-150", "1e-80"],
    )
    def test_kappa_out_of_float64_range_is_one_error_line(self, kappa, error, files, capsys,
                                                          tmp_path):
        kfile = tmp_path / "k.json"
        kfile.write_text(f"[[{kappa}, 0], [1, 0]]")
        h = tmp_path / "h.json"
        save_matrix(h, build_h2(1.0, 0.0, 0.3j))
        out_dir = tmp_path / "out"
        assert run(capsys, "metric", str(h), files["p2.json"], "--kappa", str(kfile),
                   "--out-dir", str(out_dir)) == (1, "", f"error: {error}\n")
        assert not out_dir.exists()

    def test_kappa_below_the_float64_gate_reports_its_residuals(self, files, capsys, tmp_path):
        # at kappa_0 = 1e-75, ||Theta||_F = 1.6e150 is finite: the run stands, with round-off
        # residuals rather than zeros
        kfile = tmp_path / "k.json"
        kfile.write_text("[[1e-75, 0], [1, 0]]")
        h = tmp_path / "h.json"
        save_matrix(h, build_h2(1.0, 0.0, 0.3j))
        code, out, err = run(capsys, "metric", str(h), files["p2.json"], "--kappa", str(kfile),
                             "--out-dir", str(tmp_path / "out"))
        assert (code, err) == (0, "")
        residuals = json.loads(out)["metric"]["residuals"]
        for key in ("pq", "cp"):
            assert 1e-17 < residuals[key] < 1e-15
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["c.json", "q.json",
                                                                       "theta.json"]

    def test_theta_norm_underflow_is_one_error_line(self, files, capsys, tmp_path):
        # the involutive kappa makes ||Theta||_F underflow to 0: no residual is defined
        p = str(tmp_path / "p_tiny.json")
        save_matrix(p, 1e-308 * parity2())
        out_dir = tmp_path / "out"
        refusal = "metric operators leave float64: theta, Q, C or a residual is not finite"
        assert run(capsys, "metric", files["h2.json"], p, "--kappa", "involutive",
                   "--out-dir", str(out_dir)) == (1, "", f"error: {refusal}\n")
        assert not out_dir.exists()

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

    @pytest.mark.parametrize(
        "argv,point",
        [
            (["--a", "1e200", "--d=-1e200", "--b-re", "0:1:3", "--b-im", "0"],
             "b_re = 0, b_im = 0"),
            (["--a", "1", "--d", "0", "--b-re", "0:1e200:3", "--b-im", "0"],
             "b_re = 4.9999999999999998e+199, b_im = 0"),
            (["--a", "1e154", "--d", "0", "--b-re", "0", "--b-im", "0:2e154:3"],
             "b_re = 0, b_im = 1e+154"),
            (["--a", "1e308", "--d=-1e308", "--b-re", "0", "--b-im", "0"],
             "b_re = 0, b_im = 0"),
        ],
        ids=["a-d squared raises", "4|b|^2 raises", "4|b|^2 reaches inf", "a-d is inf"],
    )
    def test_overflow_names_the_first_point(self, argv, point, capsys):
        assert run(capsys, "sweep", "--model", "h2", *argv) == (
            1, "", f"error: h2 classification overflows at {point}\n")


def _axis_value():
    """0, or a float whose magnitude runs from 1e-300 to 1e160, either sign."""
    magnitude = st.floats(min_value=-300.0, max_value=160.0).map(lambda e: 10.0**e)
    signed = st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda t: t[0] * t[1])
    return st.one_of(st.just(0.0), signed)


_AXIS = st.one_of(
    _axis_value().map(lambda v: (repr(v), np.array([v]))),
    st.tuples(_axis_value(), _axis_value(), st.integers(min_value=2, max_value=5)).map(
        lambda t: (f"{t[0]!r}:{t[1]!r}:{t[2]}", np.linspace(t[0], t[1], t[2]))),
)
_DIAGONAL = st.one_of(_axis_value(), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(a=_DIAGONAL, d=_DIAGONAL, re_axis=_AXIS, im_axis=_AXIS)
def test_sweep_rows_match_classify_h2(a, d, re_axis, im_axis):
    (re_expr, re_values), (im_expr, im_values) = re_axis, im_axis
    expected = ["b_re,b_im,discriminant,class,min_gap"]
    refused = None
    for re, im in itertools.product(re_values, im_values):
        try:
            dc = classify_h2(a, d, complex(re, im))
        except OverflowError:
            refused = (f"error: h2 classification overflows at "
                       f"b_re = {format_float(re)}, b_im = {format_float(im)}\n")
            break
        expected.append(
            f"{format_float(re)},{format_float(im)},{format_float(dc.discriminant)},"
            f"{dc.tag},{format_float(math.sqrt(abs(dc.discriminant)))}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", "--model", "h2", f"--a={a!r}", f"--d={d!r}",
                     f"--b-re={re_expr}", f"--b-im={im_expr}"])
    got = (code, out.getvalue(), err.getvalue())
    if refused:
        assert got == (1, "", refused)
    else:
        assert got == (0, "\n".join(expected) + "\n", "")


#: any float64, NaN and the infinities included, from a random 64-bit pattern
_ANY_FLOAT = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@settings(max_examples=400, deadline=None)
@given(lo=st.one_of(st.floats(), _ANY_FLOAT), hi=st.one_of(st.floats(), _ANY_FLOAT),
       steps=st.integers(min_value=2, max_value=40))
@example(lo=5e-324, hi=1e-323, steps=3)  # the step underflows to 0: numpy's denormal branch
@example(lo=3.0, hi=-3.0, steps=9)  # reversed range
@example(lo=0.0, hi=0.0, steps=4)
@example(lo=-1e308, hi=1e308, steps=5)  # hi - lo overflows: NaN and inf points
def test_axis_is_np_linspace_bit_for_bit(lo, hi, steps):
    # the sweep's MIN:MAX:STEPS axis needs no numpy, and must not move one bit from it
    expr = f"{lo!r}:{hi!r}:{steps}"
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linspace(lo, hi, steps)
    if np.isfinite(expected).all():
        assert np.array(_parse_axis(expr, "--b-re")).tobytes() == expected.tobytes()
        return
    with pytest.raises(_UsageError):
        _parse_axis(expr, "--b-re")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", "--model", "h2", "--a", "1", "--d", "0", f"--b-re={expr}",
                     "--b-im", "0"])
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", "error: --b-re: values must be finite\n")


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

    def test_self_adjoint_scan_singular_at_zero_and_pi(self, files, capsys):
        # for parity2 the partner is -2 sin(theta) P: exactly 0 at theta = 0,
        # and about 2.4e-16 P at theta = pi, zero up to rounding
        code, out, _ = run(capsys, "hermitize", files["p2.json"], "--theta", "scan:4")
        assert code == 0
        report = json.loads(out)
        assert [row["invertible"] for row in report["rotation"]] == [False, True, False, True]
        assert report["warnings"] == ["singular Hermitian partner at theta = 0",
                                      "singular Hermitian partner at theta = 3.1415926535897931"]

    def test_explicit_theta_list(self, files, capsys, tmp_path):
        p4 = tmp_path / "p4.json"
        save_matrix(p4, cyclic_p(4))
        _, out, _ = run(capsys, "hermitize", str(p4), "--theta", "0.78539816339744831,0")
        rot = json.loads(out)["rotation"]
        assert rot[0]["invertible"] is True
        assert rot[0]["smallest_singular_value"] >= 0.1
        assert rot[1]["invertible"] is False

    @pytest.mark.parametrize("points", [4, 64])
    def test_p_validated_once_per_run(self, points, files, capsys, monkeypatch):
        # hermitian_partners coerces P once for the whole scan, the fingerprint
        # hashes it as loaded, and no partner is coerced again
        coerced = []
        count_calls(monkeypatch, cryptoherm.linalg.as_complex_matrix, coerced.append)
        code, _, _ = run(capsys, "hermitize", files["p3.json"], "--theta", f"scan:{points}")
        assert code == 0
        assert len(coerced) == 1

    def test_sum_reports_only_measured_fields(self, files, capsys):
        # P + adjoint(P) equals its adjoint bit for bit, so that is not printed as a finding,
        # and no tolerance is echoed, since the scan reads none
        _, out, _ = run(capsys, "hermitize", files["p3.json"], "--theta", "scan:4")
        report = json.loads(out)
        assert list(report["sum"]) == ["smallest_singular_value", "invertible"]
        assert list(report) == ["schema", "command", "model_fingerprint", "sum", "rotation",
                                "warnings"]

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

    def test_hermitize_byte_identical(self, files, capsys):
        first = run(capsys, "hermitize", files["p3.json"], "--theta", "scan:16")
        assert first[0] == 0
        assert run(capsys, "hermitize", files["p3.json"], "--theta", "scan:16") == first

    def test_fingerprint_distinguishes_models(self, files, capsys):
        _, out1, _ = run(capsys, "diagnose", files["h3.json"], files["p3.json"])
        _, out2, _ = run(capsys, "diagnose", files["h2.json"], files["p2.json"])
        assert json.loads(out1)["model_fingerprint"] != json.loads(out2)["model_fingerprint"]


def _spellings(x: float) -> list[str]:
    """JSON spellings of ``x`` that parse back to its exact bits.

    '%.17g' spells -0.0 as "-0", which JSON reads as the integer 0, so it
    is left out there.
    """
    x = float(x)
    forms = [repr(x), "%.17g" % x, "%.16e" % x]
    if x.is_integer() and abs(x) < 2.0 ** 53:
        forms += [str(int(x)), f"{int(x)}.0", f"{int(x)}e0"]
    return [f for f in forms if struct.pack("<d", float(json.loads(f))) == struct.pack("<d", x)]


#: the eight floats of a 2x2 operand; the diagonal real parts lie in [3.5, 4.5], so
#: every operand is well conditioned and every run has a report to read
_PART = st.floats(-1.0, 1.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
_OPERAND = st.lists(_PART, min_size=8, max_size=8).map(
    lambda parts: [4.0 + x / 2.0 if i in (0, 6) else x for i, x in enumerate(parts)])


def _entry_bits(parts) -> bytes:
    return struct.pack("<8d", *parts)


def _diagnose_fingerprint(h_text: str, p_text: str) -> str:
    """The model_fingerprint of ``diagnose`` on two 2x2 files, each given by its data pairs."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "h.json"), Path(tmp, "p.json")]
        for path, text in zip(paths, (h_text, p_text)):
            path.write_text(f'{{"dim": 2, "data": [{text}]}}')
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["diagnose", *map(str, paths)])
    return json.loads(out.getvalue())["model_fingerprint"]


@settings(max_examples=60, deadline=None)
@given(h=_OPERAND, p=_OPERAND, change=st.sampled_from(["none", "sign", "ulp", "swap"]),
       where=st.integers(0, 15), spell=st.randoms(use_true_random=False))
def test_fingerprint_identifies_parsed_bits(h, p, change, where, spell):
    # two diagnose runs share a model_fingerprint exactly when their parsed H
    # and P are bit-identical, however each file spells its numbers
    h2, p2 = list(h), list(p)
    if change == "swap":
        h2, p2 = p2, h2
    elif change != "none":
        parts = h2 if where < 8 else p2
        x = parts[where % 8]
        parts[where % 8] = -x if change == "sign" else math.nextafter(x, math.inf)

    def spelled(parts) -> str:
        return ", ".join(f"[{spell.choice(_spellings(re))}, {spell.choice(_spellings(im))}]"
                         for re, im in zip(parts[0::2], parts[1::2]))

    same_bits = (_entry_bits(h), _entry_bits(p)) == (_entry_bits(h2), _entry_bits(p2))
    first = _diagnose_fingerprint(spelled(h), spelled(p))
    assert (first == _diagnose_fingerprint(spelled(h2), spelled(p2))) == same_bits


def test_fingerprint_examples():
    p = "[1, 0], [0.25, 0], [0, 0], [-1, 0]"
    reference = _diagnose_fingerprint("[1, 0], [0, 0], [0, 0], [2, 0]", p)
    # 1, 1.0 and 1e0 are one float
    assert _diagnose_fingerprint("[1.0, 0], [0, 0], [0, 0], [2, 0]", p) == reference
    assert _diagnose_fingerprint("[1e0, 0], [0.0, 0], [0, 0], [2.0, 0.0]", p) == reference
    # 0.0 and -0.0 are not, nor are two floats one ulp apart
    assert _diagnose_fingerprint("[1, 0], [-0.0, 0], [0, 0], [2, 0]", p) != reference
    assert _diagnose_fingerprint("[1.0000000000000002, 0], [0, 0], [0, 0], [2, 0]", p) != reference
    # H and P swapped is another model
    assert _diagnose_fingerprint(p, "[1, 0], [0, 0], [0, 0], [2, 0]") != reference


@pytest.mark.parametrize("kappa,same", [
    ("[[2, 0], [1, 0]]", True),
    ("[[2e0, 0.0], [1.0, 0]]", True),
    ("[[2, -0.0], [1, 0]]", False),
    ("[[2, -0], [1, 0]]", False),
    ("[[2.0000000000000004, 0], [1, 0]]", False),
])
def test_fingerprint_identifies_parsed_kappa(kappa, same, files, capsys, tmp_path):
    def fingerprint(text: str) -> str:
        (tmp_path / "k.json").write_text(text)
        code, out, _ = run(capsys, "metric", files["h2.json"], files["p2.json"], "--kappa",
                           str(tmp_path / "k.json"), "--out-dir", str(tmp_path / "out"))
        assert code == 0
        return json.loads(out)["model_fingerprint"]

    assert (fingerprint(kappa) == fingerprint("[[2.0, 0.0], [1.0, 0.0]]")) == same
