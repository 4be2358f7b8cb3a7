"""The CLI byte corpus of ``tools/golden.py`` against its committed manifest.

Each case of the corpus runs once per pytest run, and every stream it
leaves (stdout, stderr, each written file) is compared with its section
of ``tests/golden/outputs.txt``, the one record of the expected bytes.
Where the running Python, numpy and BLAS versions and the BLAS kernel
picked at run time equal the manifest's header, the bytes are compared
exactly.  Elsewhere LAPACK's last bits may differ, so each stream is
compared token by token: every token but a number exactly, and each
number to ``REL_TOL`` relative to the larger of its expected magnitude
and the largest one in the same expected stream (round-off residuals
near 1e-16 sit next to values of order one).  Exit codes, warnings and
the names of written files are compared exactly on both paths.  argparse
words its own messages differently across Python minor versions, so on
another minor version than the header's the help and usage cases are
skipped.

The path taken is printed in the pytest summary (``conftest.py``)
and named in every failure.  A deliberate output change regenerates
the corpus with ``python tools/golden.py --write``.
"""
from __future__ import annotations

import difflib
import importlib.util
import json
import platform
import re
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

#: numbers off the exact path agree to this, relative to max(|expected|, stream scale)
REL_TOL = 1e-6

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
OUTPUTS = golden.parse_outputs(golden.OUTPUTS.read_bytes())
EXACT = MANIFEST["header"] == golden.environment()
COMPARISON = (
    f"exact bytes (environment {MANIFEST['header']} matches the manifest header)" if EXACT else
    f"tokens, numbers to relative {REL_TOL:g} (environment {golden.environment()} "
    f"differs from the manifest header {MANIFEST['header']})"
)
_SAME_MINOR = platform.python_version_tuple()[:2] == \
    tuple(MANIFEST["header"]["python"].split(".")[:2])

#: a number as the CLI prints one: '%.17g', '%.3e', an integer
_NUMBER = re.compile(rb"(?<![\w.+-])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return golden.run_all(tmp_path_factory.mktemp("golden"))


def test_case_list_matches_manifest():
    assert {name: case["argv"] for name, case in MANIFEST["cases"].items()} == golden.cases()


def _diff(expected: bytes, actual: bytes) -> str:
    lines = difflib.unified_diff(expected.decode(errors="replace").splitlines(),
                                 actual.decode(errors="replace").splitlines(),
                                 "expected", "actual", lineterm="", n=1)
    return "\n".join(list(lines)[:40])


def _tokens(data: bytes) -> tuple[list[bytes], list[float]]:
    """The text between numbers, and the numbers."""
    parts = _NUMBER.split(data)
    return parts[0::2], [float(x) for x in parts[1::2]]


def _assert_close(stream: str, expected: bytes, actual: bytes) -> None:
    words, numbers = _tokens(expected)
    got_words, got_numbers = _tokens(actual)
    assert got_words == words, f"{stream}: text differs\n{_diff(expected, actual)}"
    assert len(got_numbers) == len(numbers)
    scale = max(map(abs, numbers), default=0.0)
    for i, (want, got) in enumerate(zip(numbers, got_numbers)):
        assert abs(got - want) <= REL_TOL * max(abs(want), scale), \
            f"{stream}: number {i} is {got!r}, expected {want!r}"


@pytest.mark.parametrize("name", list(golden.cases()))
def test_case(name, results):
    if not (EXACT or _SAME_MINOR) and name.startswith(("help", "usage-")):
        pytest.skip(f"argparse wording is pinned for Python {MANIFEST['header']['python']}")
    expected, got = MANIFEST["cases"][name], results[name]
    assert (got["exit"], got["warnings"]) == (expected["exit"], expected["warnings"]), COMPARISON
    assert list(got["streams"]) == [stream for case, stream in OUTPUTS if case == name], \
        COMPARISON
    for stream, data in got["streams"].items():
        want = OUTPUTS[(name, stream)]
        if EXACT:
            assert data == want, f"{COMPARISON}: {stream} differs\n{_diff(want, data)}"
        else:
            _assert_close(stream, want, data)
