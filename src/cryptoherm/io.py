"""File formats and deterministic serialization.

Matrix files are JSON objects ``{"dim": N, "data": [[re, im], ...]}``
with N^2 row-major entries; coefficient files are JSON arrays of
[re, im] pairs.  Complex numbers are never encoded as strings.

Reports and matrix files are rendered by a small canonical serializer:
floats always carry 17 significant digits (exact double round-trip),
keys keep insertion order, layout is fixed.  Two runs over the same
inputs therefore produce byte-identical bytes, which the fingerprint
(sha256 over the canonical form of the parsed inputs) relies on.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import MatrixFileError
from .linalg import ComplexMatrix, as_complex_matrix


def format_float(x) -> str:
    """17-significant-digit decimal form; the only way floats are printed."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(v, ".17g")


def _render(value, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        items = list(value.items())
        for i, (key, sub) in enumerate(items):
            pieces.append("  " * (indent + 1))
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _render(sub, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(items) else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            pieces.append("[]")
            return
        if all(isinstance(x, (bool, int, float, np.integer, np.floating)) for x in seq):
            pieces.append("[" + ", ".join(_scalar(x) for x in seq) + "]")
            return
        pieces.append("[\n")
        for i, sub in enumerate(seq):
            pieces.append("  " * (indent + 1))
            _render(sub, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(seq) else "\n")
        pieces.append(pad + "]")
    else:
        pieces.append(_scalar(value))


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(value) -> str:
    """Render to the canonical byte-stable JSON form (no trailing newline)."""
    pieces: list[str] = []
    _render(value, 0, pieces)
    return "".join(pieces)


def fingerprint(value) -> str:
    """sha256 hex digest of the canonical form; identifies parsed inputs."""
    return hashlib.sha256(canonical_json(value).encode("ascii")).hexdigest()


def complex_pairs(values) -> list[list[float]]:
    """Flatten a complex sequence into [re, im] pairs."""
    arr = np.asarray(values, dtype=np.complex128).ravel()
    return [[float(z.real), float(z.imag)] for z in arr]


def _pair_to_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry)
    ):
        raise MatrixFileError(f"{where}: expected an [re, im] pair, got {entry!r}")
    re, im = float(entry[0]), float(entry[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise MatrixFileError(f"{where}: non-finite entry {entry!r}")
    return complex(re, im)


def matrix_to_payload(m) -> dict:
    """MatrixFile payload: {"dim": N, "data": N^2 row-major [re, im] pairs}."""
    a = as_complex_matrix(m)
    return {"dim": int(a.shape[0]), "data": complex_pairs(a)}


def payload_to_matrix(obj, where: str = "matrix file") -> ComplexMatrix:
    """Parse and validate a MatrixFile payload."""
    if not isinstance(obj, dict):
        raise MatrixFileError(f"{where}: top level must be an object")
    extra = set(obj) - {"dim", "data"}
    if extra:
        raise MatrixFileError(f"{where}: unknown keys {sorted(extra)}")
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MatrixFileError(f"{where}: 'dim' must be a positive integer")
    data = obj.get("data")
    if not isinstance(data, list) or len(data) != dim * dim:
        raise MatrixFileError(
            f"{where}: 'data' must hold exactly dim^2 = {dim * dim} pairs"
        )
    flat = [
        _pair_to_complex(entry, f"{where}: data[{i}]") for i, entry in enumerate(data)
    ]
    return np.array(flat, dtype=np.complex128).reshape(dim, dim)


def _read_json(path, where: str):
    """Parsed JSON content of ``path``; unreadable or invalid files raise MatrixFileError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFileError(f"{where}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{where}: invalid JSON ({exc})") from exc


def load_matrix(path) -> tuple[ComplexMatrix, dict]:
    """Read a MatrixFile; returns (matrix, parsed payload)."""
    where = str(path)
    obj = _read_json(path, where)
    return payload_to_matrix(obj, where), obj


def save_matrix(path, m) -> None:
    """Write a matrix in canonical MatrixFile form."""
    Path(path).write_text(canonical_json(matrix_to_payload(m)) + "\n", encoding="utf-8")


def load_kappa(path, dim: int) -> NDArray[np.complex128]:
    """Read a kappa file: JSON array of exactly ``dim`` [re, im] pairs."""
    where = str(path)
    obj = _read_json(path, where)
    if not isinstance(obj, list) or len(obj) != dim:
        raise MatrixFileError(f"{where}: expected an array of {dim} [re, im] pairs")
    values = [_pair_to_complex(entry, f"{where}: [{i}]") for i, entry in enumerate(obj)]
    out = np.array(values, dtype=np.complex128)
    if np.any(out == 0):
        raise MatrixFileError(f"{where}: kappa entries must be nonzero")
    return out
