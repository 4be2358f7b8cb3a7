"""The package surface stays in step with the code.

``__all__``, the README's library table and the README's python examples.
"""
import importlib
import re
from pathlib import Path

import pytest

import cryptoherm

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_rows():
    """(module name, backticked identifiers) for each row of the README's library table."""
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.match(r"\| `(cryptoherm(?:\.\w+)?)` \|(.*)\|\s*$", line)
        if match:
            rows.append((match.group(1), re.findall(r"`([A-Za-z_]\w*)`", match.group(2))))
    return rows


ROWS = _library_rows()


def test_every_exported_name_resolves():
    assert [name for name in cryptoherm.__all__ if not hasattr(cryptoherm, name)] == []


def test_readme_table_covers_the_modules():
    modules = [module for module, _ in ROWS]
    assert modules == [
        "cryptoherm.linalg", "cryptoherm.models", "cryptoherm.biortho",
        "cryptoherm.metric", "cryptoherm.symmetry", "cryptoherm.io",
    ]


@pytest.mark.parametrize("module, names", ROWS, ids=[module for module, _ in ROWS])
def test_readme_table_names_exist(module, names):
    mod = importlib.import_module(module)
    assert [name for name in names if not hasattr(mod, name)] == []


PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize(
    "block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))]
)
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
