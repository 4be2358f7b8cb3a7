"""File formats and deterministic serialization.

Matrix files are JSON objects ``{"dim": N, "data": [[re, im], ...]}``
with N^2 row-major entries; coefficient files are JSON arrays of
[re, im] pairs.  Complex numbers are never encoded as strings.

Reports and matrix files are rendered by a small canonical serializer:
floats always carry 17 significant digits (exact double round-trip),
keys keep insertion order, layout is fixed.  Two runs over the same
inputs therefore produce byte-identical bytes, which the fingerprint
(sha256 over the canonical form of the parsed inputs) relies on.

Both directions take one pass per matrix.  ``canonical_json`` renders a
list of [float, float] pairs, the layout ``complex_pairs`` produces, with
one finiteness check and one ``%`` over a fixed template; every other
value goes through one scalar dispatch per type.  A pair list read from
a file is checked for shape and type, converted by one ``np.array`` and
checked for finiteness once; only a list that fails that is walked entry
by entry, to name the first offending entry.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import MatrixFileError
from .linalg import ComplexMatrix, as_complex_matrix, frobenius


def format_float(x) -> str:
    """17-significant-digit decimal form; the only way floats are printed."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(v, ".17g")


#: list elements that make a list render inline, on one line
_NUMERIC = (bool, int, float, np.integer, np.floating)


def _check_finite(floats) -> None:
    """Raise format_float's ValueError for the first non-finite float, if any."""
    if not all(map(math.isfinite, floats)):
        format_float(next(x for x in floats if not math.isfinite(x)))


def _float_pairs(seq) -> tuple | None:
    """The flattened values of a list of [float, float] lists, else None.

    Exactly ``float``: '%.17g' renders True as 1, where JSON wants true.
    """
    if set(map(type, seq)) != {list} or set(map(len, seq)) != {2}:
        return None
    flat = tuple(chain.from_iterable(seq))
    return flat if set(map(type, flat)) == {float} else None


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
        flat = _float_pairs(seq)
        if flat is not None:
            # one pass for the whole list; '%.17g' % x is format(x, ".17g")
            _check_finite(flat)
            row = "  " * (indent + 1) + "[%.17g, %.17g]"
            pieces.append("[\n" + ",\n".join([row] * len(seq)) % flat + "\n" + pad + "]")
            return
        if all(issubclass(t, _NUMERIC) for t in set(map(type, seq))):
            pieces.append("[" + ", ".join(map(_scalar, seq)) + "]")
            return
        pieces.append("[\n")
        for i, sub in enumerate(seq):
            pieces.append("  " * (indent + 1))
            _render(sub, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(seq) else "\n")
        pieces.append(pad + "]")
    else:
        pieces.append(_scalar(value))


@functools.singledispatch
def _scalar(value) -> str:
    """JSON text of one scalar; the handler is chosen once per type, subclasses included."""
    raise TypeError(f"cannot serialize {type(value).__name__}")


@_scalar.register(type(None))
def _(value) -> str:
    return "null"


@_scalar.register(bool)
def _(value) -> str:
    return "true" if value else "false"


@_scalar.register(int)
@_scalar.register(np.integer)
def _(value) -> str:
    return str(int(value))


@_scalar.register(float)
@_scalar.register(np.floating)
def _(value) -> str:
    return format_float(value)


@_scalar.register(str)
def _(value) -> str:
    return json.dumps(value)


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
    flat = np.ascontiguousarray(values, dtype=np.complex128).ravel()
    return flat.view(np.float64).reshape(-1, 2).tolist()


def _pair_to_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry)
    ):
        raise MatrixFileError(f"{where}: expected an [re, im] pair, got {entry!r}")
    try:
        re, im = float(entry[0]), float(entry[1])
    except OverflowError:
        raise MatrixFileError(f"{where}: entry out of float64 range {entry!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise MatrixFileError(f"{where}: non-finite entry {entry!r}")
    return complex(re, im)


def _pairs_to_complex(entries: list, where: str) -> NDArray[np.complex128]:
    """Validate a list of [re, im] pairs; entry i is named ``f"{where}[{i}]"`` in errors.

    A list of 2-element lists of int/float (not bool) is converted in
    one pass.  Anything else, and any value that overflows or is not
    finite, goes through the per-entry check, which names the first
    offending entry.
    """
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        flat = list(chain.from_iterable(entries))
        if set(map(type, flat)) <= {int, float}:
            try:
                parts = np.array(flat, dtype=np.float64)
            except OverflowError:  # an int beyond float64, named below
                pass
            else:
                if np.isfinite(parts).all():
                    return parts.view(np.complex128)
    values = [_pair_to_complex(entry, f"{where}[{i}]") for i, entry in enumerate(entries)]
    return np.array(values, dtype=np.complex128)


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
    return _pairs_to_complex(data, f"{where}: data").reshape(dim, dim)


def _read_json(path, where: str):
    """Parsed JSON content of ``path``; unreadable or invalid files raise MatrixFileError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFileError(f"{where}: {exc}") from exc
    try:
        return json.loads(text)
    # JSONDecodeError, an integer past int's digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise MatrixFileError(f"{where}: invalid JSON ({exc})") from exc


def load_matrix(path) -> ComplexMatrix:
    """Read and validate a MatrixFile; a matrix whose Frobenius norm overflows is refused.

    Every entry being finite does not make ||M||_F finite, and the
    package measures every residual against that norm.
    """
    where = str(path)
    m = payload_to_matrix(_read_json(path, where), where)
    with np.errstate(over="ignore"):  # refused below, not warned about
        if not math.isfinite(frobenius(m)):
            raise MatrixFileError(f"{where}: Frobenius norm overflows float64")
    return m


def save_matrix(path, m) -> None:
    """Write a matrix in canonical MatrixFile form."""
    Path(path).write_text(canonical_json(matrix_to_payload(m)) + "\n", encoding="utf-8")


def load_kappa(path, dim: int) -> NDArray[np.complex128]:
    """Read a kappa file: JSON array of exactly ``dim`` [re, im] pairs."""
    where = str(path)
    obj = _read_json(path, where)
    if not isinstance(obj, list) or len(obj) != dim:
        raise MatrixFileError(f"{where}: expected an array of {dim} [re, im] pairs")
    out = _pairs_to_complex(obj, f"{where}: ")
    if np.any(out == 0):
        raise MatrixFileError(f"{where}: kappa entries must be nonzero")
    return out
