"""The CLI byte corpus: a fixed list of argv cases and what each one leaves behind.

Usage::

    python tools/golden.py --write

runs every case and rewrites the two committed files under
``tests/golden/``:

* ``manifest.json`` - a header with the Python, numpy and BLAS versions
  and the BLAS kernel picked at run time, then, for each case, its argv,
  its exit code and the warnings it raised;
* ``outputs.txt`` - the one record of the expected bytes: the stdout, the
  stderr and every file each case wrote, one section per stream, so a
  deliberate output change shows up line by line in a diff, and a run
  under another header can be compared token by token
  (``tests/test_golden.py``).

``--write`` prints the header it recorded next to the case count, so a
regeneration on a host with another kernel shows before its diff does,
and then, one per line, the name of each case whose exit code, warnings,
stdout, stderr or files differ from the committed corpus (none when
nothing moved), so a deliberate output change can list what it moved.

Every case runs ``cryptoherm.cli.main`` in-process, with a fresh empty
working directory, so the files it writes (``--out-dir`` or not) are all
the directory holds afterwards; the closed-stdout cases run in a child
process whose stdout is a pipe with no reader.  Input files are written
here, with ``json.dumps``, not with the package's own writer: operands
are exact (integers, dyadic fractions, correctly rounded square roots),
so the inputs and every ``model_fingerprint`` are the same bytes on any
host.  Paths in argv are relative (``../in/NAME``), so error lines do not
depend on where the corpus runs.

Only the standard library, numpy and the package are used.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "manifest.json"
OUTPUTS = GOLDEN / "outputs.txt"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from cryptoherm.cli import main  # noqa: E402


def _blas_kernel() -> str:
    """The core name of the OpenBLAS bundled with numpy, as chosen at run time; ``?`` if none.

    A DYNAMIC_ARCH OpenBLAS picks its kernel for the CPU it runs on, and
    LAPACK's last bits follow that choice.  Loading the bundled library
    again returns the instance numpy already loaded.
    """
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "?"


def environment() -> dict:
    """The versions and the BLAS kernel a byte-exact comparison depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "blas_kernel": _blas_kernel(),
    }


# -- inputs -------------------------------------------------------------------


def _matrix_text(m) -> str:
    """A MatrixFile of ``m``, each float as its shortest round-trip repr."""
    a = np.asarray(m, dtype=np.complex128)
    pairs = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return json.dumps({"dim": a.shape[0], "data": pairs})


def _sds(n: int, seed: int | None = None) -> tuple[np.ndarray, dict[str, np.ndarray],
                                                   np.ndarray, np.ndarray]:
    """H = S D S^-1 and, per kind, P = S^-dag diag(u) S^-1, in exact integer arithmetic.

    S = (I + L)(I + U) with L (U) unit-lower (upper) bidiagonal in {-1, 0, 1},
    so S^-1 is an integer matrix; D holds n distinct integer levels.  u is
    all ones (P positive definite), +-1 (indefinite) or +-1, +-i (P not
    self-adjoint); P H P^-1 = H^dag holds exactly for each.  Returns H, the
    P of each kind, and the integer S and levels (the diagonal of D, in S's
    column order), from which every spectral quantity has a closed form.
    ``seed`` None draws the corpus's matrices; an integer draws another
    derandomized sample of the same size.
    """
    rng = random.Random(f"sds-{n}" if seed is None else f"sds-{n}-{seed}")
    lower = np.eye(n, dtype=np.int64)
    upper = np.eye(n, dtype=np.int64)
    for i in range(1, n):
        lower[i, i - 1] = rng.choice((-1, 0, 1))
        upper[i - 1, i] = rng.choice((-1, 0, 1))

    def inverse_unit_lower(m):
        inv = np.eye(n, dtype=np.int64)
        for i in range(1, n):
            inv[i] -= m[i, i - 1] * inv[i - 1]
        return inv

    s_inv = inverse_unit_lower(upper.T).T @ inverse_unit_lower(lower)
    levels = np.array(rng.sample(range(-n, n), n), dtype=np.int64)
    s = lower @ upper
    h = ((s * levels) @ s_inv).astype(np.complex128)
    s_inv = s_inv.astype(np.complex128)
    pseudometrics = {}
    for kind, units in (("definite", (1,)), ("indefinite", (1, -1)),
                        ("nonhermitian", (1, -1, 1j, -1j))):
        u = np.array([units[i % len(units)] for i in range(n)], dtype=np.complex128)
        rng.shuffle(u)
        pseudometrics[kind] = (s_inv.T * u) @ s_inv  # integer parts: exact
    return h, pseudometrics, s, levels


def _h2(a: float, d: float, b: complex) -> list[list[complex]]:
    """``cryptoherm.build_h2(a, d, b)``: [[a, b], [-conj(b), d]]."""
    return [[a, b], [-b.conjugate(), d]]


def _walk_b(disc: float) -> complex:
    """b on the imaginary axis with (a - d)^2 - 4|b|^2 = disc for (a, d) = (1, -1)."""
    return complex(0.0, math.sqrt(1.0 - disc / 4.0))


def inputs() -> dict[str, str]:
    """File name -> text of every input file the cases read."""
    files = {
        "h2.json": _matrix_text(_h2(1.0, 0.0, 0.4j)),
        "h2_exterior.json": _matrix_text(_h2(1.0, 0.0, 0.6j)),
        "h2_boundary.json": _matrix_text(_h2(1.0, 0.0, 0.5j)),
        "h2_lopsided.json": _matrix_text([[1.0, 0.3], [0.2, 0.0]]),
        "h2_real.json": _matrix_text([[1.0, 2.0], [0.5, 3.0]]),
        "h2_zero.json": _matrix_text(np.zeros((2, 2))),
        # disc = 1e-12: a resolved gap of 1e-6, under the proximity warning's 1e-6 ||H||_F
        "h2_near_ep.json": _matrix_text(_h2(1.0, 0.0, 0.5j * math.sqrt(1.0 - 1e-12))),
        "h3.json": _matrix_text([[0, 0.3 + 0.4j, 0.3 - 0.4j],
                                 [0.3 - 0.4j, 0, 0.3 + 0.4j],
                                 [0.3 + 0.4j, 0.3 - 0.4j, 0]]),
        "p2.json": _matrix_text([[1, 0], [0, -1]]),
        "swap2.json": _matrix_text([[0, 1], [1, 0]]),
        "p_singular.json": _matrix_text([[1, 0], [0, 0]]),
        "p_subnormal.json": _matrix_text([[1e-320, 0], [0, -1e-320]]),
        "p_tiny.json": _matrix_text([[1e-308, 0], [0, -1e-308]]),
        "p_large.json": _matrix_text([[1e150, 0], [0, -1e150]]),
        # ||P + P^dag||_F^2 overflows float64, though ||P||_F does not
        "p_offdiag_large.json": _matrix_text([[0, 1e154], [0, 0]]),
        # with p1_complex, the squares in the P equation's plain residual overflow
        "h1_large_imag.json": _matrix_text([[1e-170 + 1e154j]]),
        "p1_complex.json": _matrix_text([[1 + 2j]]),
        "p3.json": _matrix_text(np.roll(np.eye(3), 1, axis=0)),
        "p4.json": _matrix_text(np.roll(np.eye(4), 1, axis=0)),
        "huge.json": _matrix_text([[1e308, 1e308], [1e308, 1e308]]),
        "kappa.json": "[[2, 0], [0, 0.5]]",
        "kappa_zero.json": "[[0, 0], [1, 0]]",
        "kappa_tiny.json": "[[1e-200, 0], [1, 0]]",
        "kappa_small.json": "[[1e-150, 0], [1, 0]]",
        # with p_large, q_1 = 1/<v|P|v>/|kappa_1|^2 underflows to -0
        "kappa_underflow.json": "[[-1, 1e-8], [1e154, 1e-12]]",
        "not_json.json": "{\"dim\": 2, \"data\": [",
        "bad_layout.json": "{\"dim\": 2, \"data\": [[1, 0], [0, 0], [0, 0]]}",
    }
    for k in range(6, 17):
        for sign, label in ((1.0, "p"), (-1.0, "m")):
            h = _h2(1.0, -1.0, _walk_b(sign * 10.0 ** -k))
            files[f"walk_{label}{k}.json"] = _matrix_text(h)
    for n in (4, 16, 64):
        h, pseudometrics, _, _ = _sds(n)
        files[f"sds{n}_h.json"] = _matrix_text(h)
        for kind, p in pseudometrics.items():
            files[f"sds{n}_{kind}.json"] = _matrix_text(p)
    return files


# -- cases --------------------------------------------------------------------

_SWEEP = ["sweep", "--model", "h2"]


def _in(*names: str) -> list[str]:
    return [f"../in/{name}" for name in names]


def cases() -> dict[str, list[str]]:
    """Case name -> argv; a name starting with ``closed-`` runs with stdout closed."""
    c: dict[str, list[str]] = {}
    # help and argparse's own refusals
    c["help"] = ["--help"]
    for command in ("diagnose", "metric", "sweep", "hermitize"):
        c[f"help-{command}"] = [command, "--help"]
    c["usage-none"] = []
    c["usage-unknown-command"] = ["nope"]
    c["usage-sweep-model"] = [*_SWEEP[:2], "h3", "--a", "1", "--d", "0", "--b-re", "0",
                              "--b-im", "0"]
    c["usage-unknown-flag"] = ["diagnose", *_in("h2.json", "p2.json"), "--bogus"]
    c["usage-missing-operand"] = ["diagnose", *_in("h2.json")]
    c["usage-lone-dash-sweep"] = [*_SWEEP, "--a=--", "--d", "0", "--b-re", "0", "--b-im", "0"]
    c["usage-lone-dash-out-dir"] = ["diagnose", *_in("h2.json", "p2.json"), "--out-dir=--"]
    # the CLI's own refusals, one per row of cli._REFUSALS that an input reaches
    c["refuse-tolerance"] = ["diagnose", *_in("h2.json", "p2.json"), "--tol-rel", "-1"]
    c["refuse-missing-file"] = ["diagnose", *_in("nope.json", "p2.json")]
    c["refuse-invalid-json"] = ["hermitize", *_in("not_json.json")]
    c["refuse-layout"] = ["metric", *_in("bad_layout.json", "p2.json"), "--out-dir", "out"]
    c["refuse-norm-overflow"] = ["diagnose", *_in("huge.json", "p2.json")]
    c["refuse-dimension-mismatch"] = ["diagnose", *_in("h3.json", "p2.json")]
    c["refuse-kappa-zero"] = ["metric", *_in("h2.json", "p2.json"), "--kappa",
                              *_in("kappa_zero.json"), "--out-dir", "out"]
    c["refuse-kappa-range"] = ["metric", *_in("h2.json", "p2.json"), "--kappa",
                               *_in("kappa_tiny.json"), "--out-dir", "out"]
    c["refuse-metric-range"] = ["metric", *_in("h2.json", "p2.json"), "--kappa",
                                *_in("kappa_small.json"), "--out-dir", "out"]
    c["refuse-theta-underflow"] = ["metric", *_in("h2.json", "p_tiny.json"), "--kappa",
                                   "involutive", "--tol-abs", "0", "--out-dir", "out"]
    c["refuse-coefficient-underflow"] = ["metric", *_in("h2_real.json", "p_large.json"),
                                         "--kappa", *_in("kappa_underflow.json"),
                                         "--out-dir", "out"]
    c["refuse-out-dir"] = ["diagnose", *_in("h2.json", "p2.json"), "--out-dir",
                           "../in/h2.json/sub"]
    c["refuse-singular"] = ["diagnose", *_in("h2.json", "p_singular.json")]
    c["refuse-singular-metric"] = ["metric", *_in("h2.json", "p_singular.json"),
                                   "--out-dir", "out"]
    c["refuse-inverse-range"] = ["diagnose", *_in("h2.json", "p_subnormal.json"),
                                 "--tol-abs", "0"]
    c["refuse-nonreal-quasiparity"] = ["metric", *_in("h3.json", "p3.json"), "--kappa",
                                       "involutive", "--out-dir", "out"]
    c["refuse-spectrum-metric"] = ["metric", *_in("h2_exterior.json", "p2.json"),
                                   "--out-dir", "out"]
    c["refuse-vanishing-overlap"] = ["metric", *_in("h2.json", "swap2.json"),
                                     "--out-dir", "out"]
    c["refuse-sweep-steps"] = [*_SWEEP, "--a", "1", "--d", "0", "--b-re", "0",
                               "--b-im", "0:1:1"]
    c["refuse-sweep-non-finite"] = [*_SWEEP, "--a", "nan", "--d", "0", "--b-re", "0",
                                    "--b-im", "0"]
    c["refuse-sweep-overflow"] = [*_SWEEP, "--a", "1e300", "--d", "-1e300",
                                  "--b-re", "0:1:3", "--b-im", "0"]
    c["refuse-theta"] = ["hermitize", *_in("p2.json"), "--theta", "scan:0"]
    for command, argv in (("diagnose", ["diagnose", *_in("h2.json", "p2.json")]),
                          ("sweep", [*_SWEEP, "--a", "1", "--d", "0", "--b-re", "0",
                                     "--b-im", "0"]),
                          ("help", ["--help"])):
        c[f"closed-{command}"] = argv
    # diagnose: every exit code a report comes with
    c["diagnose-h2"] = ["diagnose", *_in("h2.json", "p2.json")]
    c["diagnose-h3-out-dir"] = ["diagnose", *_in("h3.json", "p3.json"), "--out-dir", "out"]
    c["diagnose-tolerances"] = ["diagnose", *_in("h3.json", "p3.json"), "--tol-rel", "1e-8",
                                "--tol-abs", "1e-14"]
    c["diagnose-verdict-fails"] = ["diagnose", *_in("h2_lopsided.json", "p2.json")]
    c["diagnose-complex"] = ["diagnose", *_in("h2_exterior.json", "p2.json")]
    c["diagnose-degenerate"] = ["diagnose", *_in("h2_boundary.json", "p2.json")]
    c["diagnose-zero-h"] = ["diagnose", *_in("h2_zero.json", "p2.json")]
    c["diagnose-proximity"] = ["diagnose", *_in("h2_near_ep.json", "p2.json")]
    c["diagnose-vanishing-overlap"] = ["diagnose", *_in("h2.json", "swap2.json")]
    c["diagnose-metric-range"] = ["diagnose", *_in("h2.json", "p_tiny.json"), "--tol-abs", "0"]
    c["diagnose-residual-range"] = ["diagnose", *_in("h1_large_imag.json", "p1_complex.json"),
                                    "--tol-abs", "0"]
    for k in range(6, 17):
        for label in ("p", "m"):
            c[f"walk-{label}{k}"] = ["diagnose", *_in(f"walk_{label}{k}.json", "p2.json")]
    # metric: every kappa mode, the default out-dir included
    c["metric-h2"] = ["metric", *_in("h2.json", "p2.json"), "--out-dir", "out"]
    c["metric-h2-cwd"] = ["metric", *_in("h2.json", "p2.json")]
    c["metric-kappa-file"] = ["metric", *_in("h2.json", "p2.json"), "--kappa",
                              *_in("kappa.json"), "--out-dir", "out"]
    c["metric-involutive"] = ["metric", *_in("h2.json", "p2.json"), "--kappa", "involutive",
                              "--out-dir", "out"]
    c["metric-h3"] = ["metric", *_in("h3.json", "p3.json"), "--out-dir", "out"]
    # sweep: fixed values, ranges, and negative values as separate arguments
    c["sweep-point"] = [*_SWEEP, "--a", "1", "--d", "0", "--b-re", "0.3", "--b-im", "0.4"]
    c["sweep-5x5"] = [*_SWEEP, "--a", "0.7", "--d", "-0.3", "--b-re", "-1:1:5",
                      "--b-im", "-1:1:5"]
    c["sweep-16x16"] = [*_SWEEP, "--a=0.26416978289279486", "--d=-0.8007315433720227",
                        "--b-re=-1:1:16", "--b-im=-1:1:16"]
    # hermitize: the default scan, a scan count and an angle list
    c["hermitize-p3"] = ["hermitize", *_in("p3.json")]
    c["hermitize-p4-scan8"] = ["hermitize", *_in("p4.json"), "--theta", "scan:8"]
    c["hermitize-p2-list"] = ["hermitize", *_in("p2.json"), "--theta", "-1.5,0,3.141592653589793"]
    c["hermitize-sum-range"] = ["hermitize", *_in("p_offdiag_large.json"), "--theta", "0"]
    # seeded S D S^-1 pairs
    for n in (4, 16, 64):
        for kind in ("definite", "indefinite", "nonhermitian"):
            c[f"sds{n}-{kind}"] = ["diagnose", *_in(f"sds{n}_h.json", f"sds{n}_{kind}.json")]
        c[f"sds{n}-hermitize"] = ["hermitize", *_in(f"sds{n}_nonhermitian.json"),
                                  "--theta", "scan:16"]
    for n in (4, 16):
        c[f"sds{n}-metric-involutive"] = ["metric", *_in(f"sds{n}_h.json",
                                                         f"sds{n}_indefinite.json"),
                                          "--kappa", "involutive", "--out-dir", "out"]
    return c


# -- running ------------------------------------------------------------------


def _run_in_process(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # --help exits from inside the parser
                code = exc.code
    finally:
        os.chdir(here)
    shown = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue().encode(), err.getvalue().encode(), shown


def _run_closed_stdout(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes, list[str]]:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte
    try:
        done = subprocess.run([sys.executable, "-m", "cryptoherm.cli", *argv], cwd=cwd,
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    return done.returncode, b"", done.stderr, []


def run_all(work: Path) -> dict[str, dict]:
    """Case name -> {"argv", "exit", "warnings", "streams": {stream name: bytes}}.

    Stream names are ``stdout``, ``stderr`` and ``file:<path>`` for every
    file the case left in its working directory, in sorted order.
    """
    (work / "in").mkdir(parents=True)
    for name, text in inputs().items():
        (work / "in" / name).write_text(text, encoding="utf-8")
    results = {}
    for name, argv in cases().items():
        cwd = work / name  # no case is named "in"
        cwd.mkdir(parents=True)
        runner = _run_closed_stdout if name.startswith("closed-") else _run_in_process
        code, out, err, shown = runner(argv, cwd)
        streams = {"stdout": out, "stderr": err}
        for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
            streams[f"file:{path.relative_to(cwd).as_posix()}"] = path.read_bytes()
        results[name] = {"argv": argv, "exit": code, "warnings": shown, "streams": streams}
    return results


# -- the two committed files --------------------------------------------------


def manifest(results: dict[str, dict]) -> dict:
    """The header, then each case's argv, exit code and warnings; its bytes are in outputs.txt."""
    return {
        "header": environment(),
        "cases": {name: {key: r[key] for key in ("argv", "exit", "warnings")}
                  for name, r in results.items()},
    }


def render_outputs(results: dict[str, dict]) -> bytes:
    """Every stream as a ``### <case> <stream> <byte count>`` line, its bytes and a newline."""
    parts = []
    for name, r in results.items():
        for stream, data in r["streams"].items():
            parts.append(f"### {name} {stream} {len(data)}\n".encode() + data + b"\n")
    return b"".join(parts)


def parse_outputs(blob: bytes) -> dict[tuple[str, str], bytes]:
    """(case, stream) -> bytes, read back from ``render_outputs``'s layout."""
    sections, at = {}, 0
    while at < len(blob):
        end = blob.index(b"\n", at)
        marker, name, stream, size = blob[at:end].decode().split(" ")
        if marker != "###":
            raise ValueError(f"corrupt outputs file at byte {at}")
        start = end + 1
        sections[(name, stream)] = blob[start:start + int(size)]
        at = start + int(size) + 1
    return sections


def moved_cases(results: dict[str, dict]) -> list[str]:
    """Cases of ``results`` that differ from the committed corpus, then the ones it dropped.

    A case differs in its argv, exit code or warnings (``manifest.json``),
    or in any stream, its name or its order (``outputs.txt``).  With no
    committed corpus, every case has moved.
    """
    committed, streams = {}, {}
    if MANIFEST.exists() and OUTPUTS.exists():
        committed = json.loads(MANIFEST.read_text(encoding="utf-8"))["cases"]
        for (name, stream), data in parse_outputs(OUTPUTS.read_bytes()).items():
            streams.setdefault(name, []).append((stream, data))
    cases = manifest(results)["cases"]
    return ([name for name, r in results.items() if cases[name] != committed.get(name)
             or list(r["streams"].items()) != streams.get(name)]
            + [name for name in committed if name not in results])


def write(work: Path) -> None:
    results = run_all(work)
    moved = moved_cases(results)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    recorded = manifest(results)
    MANIFEST.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    OUTPUTS.write_bytes(render_outputs(results))
    codes = sorted({r["exit"] for r in results.values()})
    print(f"{len(results)} cases, exit codes {codes}, header {recorded['header']}: "
          f"wrote {MANIFEST.relative_to(ROOT)} and {OUTPUTS.relative_to(ROOT)}")
    for name in moved:
        print(name)


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="run every case and rewrite the committed corpus")
    parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
