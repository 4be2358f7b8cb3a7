"""What starts on the standard library alone, each check in a fresh interpreter.

``sweep``, ``--help``, a usage error and ``import cryptoherm`` run where
numpy is not installed.  Each child is ``sys.executable`` with ``src``
on ``PYTHONPATH``, started in an empty directory that must stay empty.
A check asserts the child's exit code, its stdout and stderr bytes, the
collector it leaves, and that the child's code brought none of
``PROBED`` into its ``sys.modules``: what the interpreter's own start-up
loaded (a ``sitecustomize`` that imports ``inspect``, say) is not
counted.  Two contracts that ``cli`` relies on along the same
path are checked in the running interpreter: the exceptions', and that
``cli._parse``, which hands an argv that names a command to that
command's own parser, parses each argv of ``ARGVS`` as the top-level
parser does, on this Python's argparse.

This module imports only the standard library, ``cryptoherm.errors`` and
``cryptoherm.cli``, neither of which loads numpy, so pytest collects it
and it also runs on any supported Python with no third-party package
installed::

    PYTHONPATH=src python tests/test_numpy_free.py
"""
import contextlib
import hashlib
import io
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import cryptoherm.cli as cli
import cryptoherm.errors as errors

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``python -m cryptoherm.cli ARGS`` (runpy is what -m runs)
AS_MAIN = """
import runpy
try:
    runpy.run_module("cryptoherm.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
"""
#: the ``cryptoherm`` console script: the wrapper pip writes for pyproject's entry
CONSOLE_SCRIPT = """
from cryptoherm.cli import entry
try:
    sys.exit(entry())
except SystemExit as exc:
    code = exc.code
"""
#: ``cryptoherm.cli.main`` called by a program that embeds it
IN_PROCESS = """
from cryptoherm.cli import main
code = main(sys.argv[1:])
"""

#: numpy, and what loading ``models`` brings with it: its dataclasses need
#: ``dataclasses``, which imports ``inspect``
PROBED = ("numpy", "dataclasses", "inspect", "cryptoherm.models")

#: the collector after ``cli.entry`` (off, heap frozen), and as a fresh interpreter has it
ENTRY_GC, UNTOUCHED_GC = (False, True), (True, False)


def _child(code: str, *args: str,
           site: str | None = None) -> tuple[int, bytes, bytes, list[str], tuple[bool, bool]]:
    """``code`` run in a fresh interpreter in an empty directory.

    Returns the ``code`` variable it sets, its stdout and stderr, those of
    ``PROBED`` that entered its sys.modules while ``code`` ran, and the
    collector after it as (enabled, any object frozen since it started).
    The probe prints its line last, after the command's own output, which
    ends with a newline.  ``site``, when given, is the source of a
    ``sitecustomize`` module in a directory put first on the child's
    PYTHONPATH (empty otherwise), which the interpreter's start-up imports.
    """
    # a fresh 3.12.1 interpreter already counts 375 frozen objects
    probe = (f"import gc, sys\nfrozen = gc.get_freeze_count()\nstarted = set(sys.modules)\n"
             f"{code}\nprint(code, gc.isenabled(), gc.get_freeze_count() > frozen, "
             f"*[m for m in {PROBED!r} if m in sys.modules and m not in started])\n")
    with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryDirectory() as site_dir:
        if site is not None:
            Path(site_dir, "sitecustomize.py").write_text(site, encoding="utf-8")
        path = os.pathsep.join(filter(None, [site_dir, str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, cwd=cwd,
                              env={**os.environ, "PYTHONPATH": path})
        assert os.listdir(cwd) == [], "the child left files in its directory"
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    *out, state = done.stdout.splitlines(keepends=True)
    exit_code, enabled, frozen, *loaded = state.decode().split()
    return int(exit_code), b"".join(out), done.stderr, loaded, (enabled == "True", frozen == "True")


def _matches(data: bytes, expected) -> bool:
    """``data`` against a sha256 hex digest (a str) or a regular expression (bytes)."""
    if isinstance(expected, str):
        return hashlib.sha256(data).hexdigest() == expected
    return re.fullmatch(expected, data, re.S) is not None


#: the README's sweep, and the sha256 of its stdout
SWEEP = ["sweep", "--model", "h2", "--a", "0.7", "--d", "-0.3", "--b-re", "-1:1:5",
         "--b-im", "-1:1:5"]
SWEEP_SHA256 = "811012eebe24b47495fb73d7fb8eff25159e019d0a7661f222c7e96c778a29dc"


def _refused(option: str) -> bytes:
    """The one stderr line of a run that gives ``option`` the lone value ``--``."""
    return re.escape(f"error: argument {option}: expected a value, got '--'\n".encode())


#: (code, argv, exit code, stdout, stderr, collector) of each child.  The sweep
#: digests were recorded before the sweep moved to models.sweep_h2: the README
#: form (also as ``--d=-0.3``, which prints the same bytes), a 100x100 grid as in
#: the cli_batch workload and a 16x16 grid as in paper_small, so a change to the
#: h2 arithmetic that moves one byte fails here.  Those recorded before the sweep
#: ran its kernel once per distinct |b|: the README's model on paper_small's 16x16
#: grid, whose 256 points hold 47 distinct |b|, a 100x100 grid on disjoint axes,
#: whose 10000 points hold 9855, and an overflow after the repeated rows of b_re = 0.
#: argparse's wording differs between versions, so --help and the usage error
#: pin only their first words; a lone "--" as a value is one exact line on every
#: Python, refused before diagnose would load numpy or read its files.
CHILDREN = {
    "python-m-sweep": (AS_MAIN, SWEEP, 0, SWEEP_SHA256, b"", ENTRY_GC),
    "script-sweep": (CONSOLE_SCRIPT, SWEEP, 0, SWEEP_SHA256, b"", ENTRY_GC),
    "main-sweep": (IN_PROCESS, SWEEP, 0, SWEEP_SHA256, b"", UNTOUCHED_GC),
    "sweep-readme": (IN_PROCESS, [*SWEEP[:5], "--d=-0.3", *SWEEP[7:]], 0, SWEEP_SHA256, b"",
                     UNTOUCHED_GC),
    "sweep-100x100": (
        AS_MAIN, ["sweep", "--model", "h2", "--a=1.1363729474083468", "--d=-0.34082498412710244",
                  "--b-re=-1:1:100", "--b-im=-1:1:100"],
        0, "f85321da55a33358b885c9a4ab11b95cd7cfc077d8d906d9f79b3ecadcd8f8fc", b"", ENTRY_GC),
    "sweep-16x16": (
        AS_MAIN, ["sweep", "--model", "h2", "--a=0.26416978289279486", "--d=-0.8007315433720227",
                  "--b-re=-1:1:16", "--b-im=-1:1:16"],
        0, "caa94018d12df6791f6cd9368e5ead4229cdb13666f6eeadb18e4e149c16b178", b"", ENTRY_GC),
    "sweep-16x16-readme-model": (
        AS_MAIN, [*SWEEP[:5], "--d=-0.3", "--b-re=-1:1:16", "--b-im=-1:1:16"],
        0, "6d56e9716732b52d4b439c30b0429608331b46fba8c22e3c5e14d525dceda47f", b"", ENTRY_GC),
    "sweep-disjoint-100x100": (
        AS_MAIN, [*SWEEP[:5], "--d=-0.3", "--b-re=0.1:0.9:100", "--b-im=0.05:0.95:100"],
        0, "2447a288e53074a2f09bc09206d60583136642c193c02864f681b48bffbe7718", b"", ENTRY_GC),
    "sweep-overflow-after-repeats": (
        AS_MAIN, ["sweep", "--model", "h2", "--a=1", "--d=0", "--b-re=0:1e200:3", "--b-im=-1:1:5"],
        1, b"", re.escape(b"error: h2 classification overflows at "
                          b"b_re = 4.9999999999999998e+199, b_im = -1\n"), ENTRY_GC),
    "help": (AS_MAIN, ["--help"], 0, rb"usage: cryptoherm .*\n", b"", ENTRY_GC),
    "usage-error": (AS_MAIN, ["sweep", "--model", "h3"], 1, b"",
                    rb"error: argument --model: invalid choice: [^\n]*\n", ENTRY_GC),
    "lone-dash-sweep": (
        AS_MAIN, ["sweep", "--model", "h2", "--a=--", "--d", "0", "--b-re", "0", "--b-im", "0"],
        1, b"", _refused("--a"), ENTRY_GC),
    "lone-dash-diagnose": (AS_MAIN, ["diagnose", "H.json", "P.json", "--out-dir=--"],
                           1, b"", _refused("--out-dir"), ENTRY_GC),
    "import-cryptoherm": ("import cryptoherm\ncode = 0", [], 0, b"", b"", UNTOUCHED_GC),
}


#: the source of a ``sitecustomize`` for each start-up check: what start-up loads
#: before the child's code runs is the interpreter's, as a conda CPython whose site
#: imports ``inspect`` has it, and the README's sweep still loads none of ``PROBED``
START_UPS = {"sitecustomize-imports-inspect": "import inspect\n"}


def test_start_up_imports_are_not_counted(name, case):
    got_code, out, err, loaded, _ = _child(AS_MAIN, *SWEEP, site=case)
    assert (got_code, loaded, err) == (0, [], b""), name
    assert _matches(out, SWEEP_SHA256), (name, out[-500:])


def test_child_runs_without_numpy(name, case):
    # the process entry also turns the collector off and freezes the heap, even
    # on --help's SystemExit; a program that embeds main keeps its own policy
    code, argv, exit_code, stdout, stderr, collector = case
    got_code, out, err, loaded, got_collector = _child(code, *argv)
    assert (got_code, loaded, got_collector) == (exit_code, [], collector), (name, err)
    assert _matches(out, stdout), (name, out[-500:])
    assert _matches(err, stderr), (name, err)


#: each context-carrying class of cryptoherm.errors: its attributes as (default, a value)
CONTEXTS = {
    "SingularMatrix": {"condition": (math.inf, 3.5e17)},
    "SpectrumObstruction": {"eigenvalues": (None, (1.0, 2.0))},
    "ConvergenceFailure": {"eigenvalues": (None, (1.0, 2.0))},
    "ComplexSpectrum": {"eigenvalues": (None, (1.0, 1j))},
    "DegenerateSpectrum": {"eigenvalues": (None, (1.0, 1.0)), "gap": (0.0, 1e-15),
                           "threshold": (0.0, 2.5e-14)},
    "VanishingOverlap": {"index": (-1, 2), "overlap": (0j, 1e-20 - 3e-21j)},
    "NonRealQuasiparity": {"indices": ((), (0, 2))},
}


def test_exception_keeps_its_context(name, case):
    # cli imports errors on its numpy-free path: each class keeps its defaults
    # and its keywords, and survives a pickle round trip, on every supported Python
    cls = getattr(errors, name)
    for column, context in ((0, {}), (1, {key: pair[1] for key, pair in case.items()})):
        exc = cls("message", **context)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and back.args == exc.args == ("message",), name
        for key, pair in case.items():
            assert (getattr(exc, key), getattr(back, key)) == (pair[column],) * 2, (name, key)


def parse_outcome(parse, argv: list[str]) -> tuple:
    """What ``parse(argv)`` gives, as a value two parsers can be compared by.

    ("args", the namespace's dict), ("usage", the usage error's text) or,
    for help, ("exit", the SystemExit code, the bytes written to stdout).
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return ("args", vars(parse(list(argv))))
    except cli._UsageError as exc:
        return ("usage", str(exc))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue().encode())


#: argvs whose parse turns on argparse's version-dependent handling of "--",
#: of abbreviations and of "=--", and the other ways an argv can start: each
#: goes to both parsers as it is, without main's rewriting of option values
ARGVS = {
    "empty": [],
    "help": ["--help"],
    "help-short": ["-h"],
    "help-abbreviated": ["--he"],
    "unknown-command": ["nope"],
    "unknown-command-help": ["nope", "--help"],
    "option-first": ["--model", "h2", "sweep"],
    "dashes-first": ["--", "sweep", "--model", "h2", "--a", "1", "--d", "0", "--b-re", "0",
                     "--b-im", "0"],
    "diagnose": ["diagnose", "H", "P", "--out-dir", "d", "--tol-rel", "1e-8"],
    "metric": ["metric", "H", "P", "--kappa", "involutive", "--out-dir=d"],
    "sweep": ["sweep", "--model", "h2", "--a", "1", "--d=-0.3", "--b-re", "-1:1:5",
              "--b-im=0"],
    "hermitize": ["hermitize", "P", "--theta", "scan:4"],
    "diagnose-help": ["diagnose", "--help"],
    "metric-help-abbreviated": ["metric", "H", "--he"],
    "sweep-help-short": ["sweep", "-h"],
    "hermitize-help-value": ["hermitize", "--help=1"],
    "abbreviations": ["sweep", "--mod", "h2", "--a", "1", "--d", "0", "--b-r", "0", "--b-i", "0"],
    "abbreviations-diagnose": ["diagnose", "H", "P", "--out", "d", "--tol", "1e-3"],
    "abbreviation-ambiguous": ["sweep", "--model", "h2", "--a", "1", "--d", "0", "--b", "0"],
    "dashes-before-positionals": ["diagnose", "--", "H", "P"],
    "dashes-between-positionals": ["diagnose", "H", "--", "P"],
    "dashes-after-positionals": ["diagnose", "H", "P", "--"],
    "dashes-before-option": ["hermitize", "P", "--", "--theta", "1"],
    "dashes-as-value": ["hermitize", "P", "--theta", "--"],
    "dashes-twice": ["metric", "--", "H", "--", "P"],
    "equals-dashes": ["diagnose", "H", "P", "--out-dir=--"],
    "equals-dashes-abbreviated": ["sweep", "--mod=--", "--a", "1", "--d", "0", "--b-re", "0",
                                  "--b-im", "0"],
    "equals-dashes-positional": ["hermitize", "--theta=--", "P"],
    "negative-separate": ["hermitize", "P", "--theta", "-1.5,0"],
    "negative-range-separate": ["sweep", "--model", "h2", "--a", "1", "--d", "0",
                                "--b-re", "-1:1:5", "--b-im", "0"],
    "negative-positional": ["hermitize", "-1"],
    "missing-required": ["sweep", "--model", "h2"],
    "missing-positional": ["diagnose", "H"],
    "extra-positional": ["hermitize", "P", "Q"],
    "unknown-option": ["diagnose", "H", "P", "--bogus"],
    "invalid-choice": ["sweep", "--model", "h3"],
    "repeated-option": ["hermitize", "P", "--theta", "1", "--theta", "2"],
    "command-names-as-operands": ["diagnose", "sweep", "metric"],
}


def test_command_parser_parses_as_the_top_level_parser(name, case):
    # main parses once: an argv that names a command goes to that command's
    # parser alone, and must come out as the two-step top-level parse does
    assert parse_outcome(cli._parse, case) == parse_outcome(cli._PARSER.parse_args, case), name


#: each test and its cases, by name: pytest's ids and this module's own runner
TABLES = {test_child_runs_without_numpy: CHILDREN,
          test_start_up_imports_are_not_counted: START_UPS,
          test_exception_keeps_its_context: CONTEXTS,
          test_command_parser_parses_as_the_top_level_parser: ARGVS}


def pytest_generate_tests(metafunc):
    """Parametrize each test over its table, as ``pytest.mark.parametrize`` would."""
    table = TABLES[metafunc.function]
    metafunc.parametrize(("name", "case"), list(table.items()), ids=list(table))


if __name__ == "__main__":
    for test, table in TABLES.items():
        for name, case in table.items():
            test(name, case)
            print("passed", f"{test.__name__}[{name}]")
