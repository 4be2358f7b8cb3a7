"""The package surface stays in step with the code.

``__all__``, the README's library table and the README's python examples,
the operand checks every public matrix entry point makes, the records
that hold arrays comparing by identity, and the lazy package namespace;
which commands start without numpy is checked in ``test_numpy_free.py``,
whose child probe the last tests here share.
"""
import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import cryptoherm
from test_numpy_free import AS_MAIN, ENTRY_GC, PROBED, UNTOUCHED_GC, _child

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


def test_every_exported_name_is_listed_by_dir():
    assert [name for name in cryptoherm.__all__ if name not in dir(cryptoherm)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from cryptoherm import *", namespace)
    assert [name for name in cryptoherm.__all__ if name not in namespace] == []


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        cryptoherm.nope  # noqa: B018


def test_readme_table_covers_the_modules():
    modules = [module for module, _ in ROWS]
    assert modules == [
        "cryptoherm.linalg", "cryptoherm.h2", "cryptoherm.models", "cryptoherm.biortho",
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


def _records():
    """One of each record that holds arrays, from one diagnose run."""
    found = cryptoherm.diagnose(cryptoherm.build_h2(1.0, 0.0, 0.4j), cryptoherm.parity2())
    return {"Diagnosis": found, "BiorthogonalSystem": found.system, "MetricBundle": found.bundle,
            "PseudoMetric": cryptoherm.PseudoMetric.from_matrix(cryptoherm.parity2())}


@pytest.mark.parametrize("name", list(_records()))
def test_records_holding_arrays_compare_by_identity(name):
    # value equality would compare arrays, whose truth value is ambiguous: == is identity,
    # and hash works
    record, twin = _records()[name], _records()[name]
    assert type(record).__name__ == name
    assert record == record and record != twin
    assert hash(record) == object.__hash__(record)
    assert len({record, twin, record}) == 2


def test_candidates_around_one_array_are_distinct():
    # two candidates around the same array object are two candidates
    p = cryptoherm.parity2()
    assert cryptoherm.PseudoMetric.from_matrix(p) != cryptoherm.PseudoMetric.from_matrix(p)


def _boundary_cases():
    """(id, call) for each matrix slot of each public function that takes a matrix."""
    h = cryptoherm.build_h2(1.0, 0.0, 0.4j)
    p, eye = cryptoherm.parity2(), np.eye(2, dtype=complex)
    system = cryptoherm.solve_biorthogonal(h)
    cases = {
        "eig": cryptoherm.eig,
        "solve_biorthogonal": cryptoherm.solve_biorthogonal,
        "PseudoMetric.from_matrix": cryptoherm.PseudoMetric.from_matrix,
        "hermitian_partners": lambda m: cryptoherm.hermitian_partners(m, [0.3]),
        "build_bundle[p]": lambda m: cryptoherm.build_bundle(system, m),
    }
    for name, good in [("pseudo_hermiticity_residual", p), ("weak_triplet_check", p),
                       ("quasi_hermiticity_residual", eye), ("diagnose", p)]:
        check = getattr(cryptoherm, name)
        cases[f"{name}[h]"] = lambda m, check=check, good=good: check(m, good)
        cases[f"{name}[2]"] = lambda m, check=check: check(h, m)
    return list(cases.items())


BOUNDARY_CASES = _boundary_cases()
BAD_OPERANDS = {
    "nan": ([[float("nan"), 0.0], [0.0, 1.0]], ValueError, "non-finite"),
    "inf": ([[1.0, 0.0], [0.0, float("inf")]], ValueError, "non-finite"),
    "non-square": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], cryptoherm.DimensionMismatch, "square"),
}


@pytest.mark.parametrize("bad", BAD_OPERANDS)
@pytest.mark.parametrize("call", [c for _, c in BOUNDARY_CASES], ids=[n for n, _ in BOUNDARY_CASES])
def test_public_entry_refuses_a_bad_operand(call, bad):
    # every public matrix entry point validates its operands, however little
    # the package's own composition re-checks the arrays it passes inward
    matrix, error, words = BAD_OPERANDS[bad]
    with pytest.raises(Exception) as info:
        call(matrix)
    assert type(info.value) is error
    assert words in str(info.value)


def test_console_script_runs_the_entry():
    # pyproject's [project.scripts] names the callable test_numpy_free.CONSOLE_SCRIPT probes
    text = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert '\ncryptoherm = "cryptoherm.cli:entry"\n' in text


def test_cli_holds_no_numerical_code():
    # cli loads, calls the library and renders: it imports no numpy and keeps no gate
    source = Path(importlib.import_module("cryptoherm.cli").__file__).read_text(encoding="utf-8")
    nodes = list(ast.walk(ast.parse(source)))
    modules = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.module]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    assert not [m for m in modules if m.split(".")[0] == "numpy"]
    assert not names & {"np", "numpy", "INVOLUTIVITY_TOL"}


def test_diagnose_child_imports_numpy(tmp_path):
    # the positive control: the probe does see each module when a command loads it
    for name, matrix in [("h.json", cryptoherm.build_h2(1.0, 0.0, 0.4j)),
                         ("p.json", cryptoherm.parity2())]:
        cryptoherm.io.save_matrix(tmp_path / name, matrix)
    code, _, err, loaded, collector = _child(AS_MAIN, "diagnose", str(tmp_path / "h.json"),
                                             str(tmp_path / "p.json"))
    assert (code, err, loaded, collector) == (0, b"", list(PROBED), ENTRY_GC)


def test_package_binds_each_name_from_its_home_module():
    # biortho holds its own binding of eig; the package's comes from linalg,
    # so a different object under biortho.eig must not reach cryptoherm.eig
    code = """
import cryptoherm.biortho
cryptoherm.biortho.eig = object()
import cryptoherm
code = int(cryptoherm.eig is cryptoherm.linalg.eig)
"""
    assert _child(code) == (1, b"", b"", list(PROBED), UNTOUCHED_GC)
