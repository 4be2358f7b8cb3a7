"""File formats and deterministic serialization.

Matrix files are JSON objects ``{"dim": N, "data": [[re, im], ...]}``
with N^2 row-major entries; coefficient files are JSON arrays of
[re, im] pairs.  Complex numbers are never encoded as strings.

Reports and matrix files are rendered by a small canonical serializer:
floats always carry 17 significant digits (exact double round-trip),
keys keep insertion order, layout is fixed.  Two runs over the same
inputs therefore produce byte-identical bytes.  The fingerprint of a
report's inputs is the sha256 of the canonical form of its operands,
where each matrix stands as its shape and the sha256 of its
little-endian complex128 bytes (``matrix_digest``): '%.17g' is
injective on finite float64, -0 included, so this identifies exactly
the parsed inputs the rendered matrices did, without rendering them.

The renderer returns the text of each value.  A scalar is printed
through one table keyed by its exact type (``_EXACT``): float (through
``format_float``, which refuses a non-finite one), str, bool, int and
None.  Any other scalar, a subclass or a numpy scalar among them, is
refused with a TypeError that names its type.  A list whose element
types are all bool, int or float stays on one line.  Every other
non-empty container (a dict, a list of [float, float] pairs, any other
list) has one block layout: the opening bracket, one row per line one
level in, and the closing bracket at the parent's indent.  The pair
list ``complex_pairs`` returns is a list subclass the renderer
recognises by its type; it is finite by construction, since
``complex_pairs`` refuses a non-finite part with ``format_float``'s
ValueError, and it is printed by one ``%`` over the block of row
templates.  Any other list of pairs takes the generic path, which
prints the same bytes.  Keys and strings go through
``json.encoder.encode_basestring_ascii``, the C encoder ``json.dumps``
itself calls for a ``str``.

Parsing reads the integer token ``-0``, which the renderer writes for
-0.0, as -0.0 and every other integer as an int, so a rendered matrix
loads back bit for bit.  Each file is read as bytes and decoded from
UTF-8 once, with no text-mode wrapper; a text holding a carriage
return gets text mode's newline translation (CR LF and a lone CR
become LF), so every parsed object and every error text, line, column
and byte position included, is the one text mode gives.  One
module-level decoder reads every file, and a file that opens with a
UTF-8 byte-order mark is refused in ``json.loads``' own words.  Parsing
also takes one pass per matrix.  A pair list read from a file is
checked for shape and type, converted by one ``np.array`` and checked
for finiteness once; a list that fails that is refused, and a walk
over its entries names the first one that is not a pair of finite
ints and floats within float64.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import MatrixFileError
from .linalg import ComplexMatrix, as_complex_matrix, frobenius


def format_float(x) -> str:
    """17-significant-digit decimal form of a finite float; a non-finite one raises ValueError."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(v, ".17g")


#: the text of each scalar type, keyed by exact type; a non-finite float raises
#: format_float's ValueError
_EXACT = {float: format_float, str: encode_basestring_ascii, bool: ("false", "true").__getitem__,
          int: str, type(None): lambda _: "null"}

#: the element types of a list that renders inline, on one line
_INLINE = {bool, int, float}


class _Pairs(list):
    """The [re, im] rows ``complex_pairs`` returns: two finite Python floats each, by construction."""

    __slots__ = ()


def _block(opening: str, rows, closing: str, indent: int) -> str:
    """``rows`` one per line, one level in from ``indent``, between the two brackets."""
    inner = "\n" + "  " * (indent + 1)
    return opening + inner + ("," + inner).join(rows) + "\n" + "  " * indent + closing


def _render(value, indent: int) -> str:
    """JSON text of ``value``, whose closing bracket sits at ``indent`` levels."""
    text = _EXACT.get(type(value))
    if text is not None:  # a scalar, known before any container test
        return text(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [encode_basestring_ascii(str(key)) + ": " + _render(sub, indent + 1)
                for key, sub in value.items()]
        return _block("{", rows, "}", indent)
    if type(value) is _Pairs and value:
        # one pass for the whole list; '%.17g' % x is format(x, ".17g")
        return _block("[", ["[%.17g, %.17g]"] * len(value), "]", indent) % tuple(
            chain.from_iterable(value))
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"cannot serialize {type(value).__name__}")
    # an empty list renders here too, as []
    if set(map(type, value)) <= _INLINE:
        return "[" + ", ".join([_EXACT[type(x)](x) for x in value]) + "]"
    return _block("[", [_render(sub, indent + 1) for sub in value], "]", indent)


def canonical_json(value) -> str:
    """Render to the canonical byte-stable JSON form (no trailing newline)."""
    return _render(value, 0)


def fingerprint(value) -> str:
    """sha256 hex digest of the canonical form; identifies parsed inputs."""
    return hashlib.sha256(canonical_json(value).encode("ascii")).hexdigest()


def matrix_digest(m: ComplexMatrix) -> dict:
    """A validated matrix as ``fingerprint`` takes it: its shape and the sha256 of its bits.

    The bytes are the '<c16' C-order ones; on a little-endian host a
    matrix from ``load_matrix`` is hashed in place, without a copy.
    """
    a = np.ascontiguousarray(m, dtype="<c16")
    return {"shape": list(a.shape), "sha256": hashlib.sha256(a).hexdigest()}


def complex_pairs(values) -> list[list[float]]:
    """Flatten a complex sequence into [re, im] pairs, a list the renderer knows.

    The first non-finite part, if any, raises ``format_float``'s ValueError.
    """
    parts = np.ascontiguousarray(values, dtype=np.complex128).ravel().view(np.float64)
    finite = np.isfinite(parts)
    if not finite.all():
        format_float(parts[~finite][0].item())  # a Python float, so its repr reads inf or nan
    return _Pairs(parts.reshape(-1, 2).tolist())


def _pairs_to_complex(entries: list, where: str) -> NDArray[np.complex128]:
    """Validate a list of [re, im] pairs; entry i is named ``f"{where}[{i}]"`` in errors.

    A list of 2-element lists of int/float (not bool) is converted in
    one pass.  Any other list, and one with a value that overflows or is
    not finite, is refused: the walk below converts nothing, and names
    the first entry the conversion refused.
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
    for i, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != 2 or not set(map(type, entry)) <= {int, float}:
            raise MatrixFileError(f"{where}[{i}]: expected an [re, im] pair, got {entry!r}")
        try:
            # both parts are tested, so an entry with an overflowing part is named as that
            finite = all([math.isfinite(x) for x in entry])
        except OverflowError:
            raise MatrixFileError(f"{where}[{i}]: entry out of float64 range {entry!r}") from None
        if not finite:
            raise MatrixFileError(f"{where}[{i}]: non-finite entry {entry!r}")


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


def _parse_int(token: str):
    # '%.17g' renders -0.0 as "-0", which int() would read as +0
    return -0.0 if token == "-0" else int(token)


#: one decoder for every file, as ``json.loads(text, parse_int=_parse_int)`` would build
_DECODER = json.JSONDecoder(parse_int=_parse_int)


def _read_json(path, where: str):
    """Parsed JSON content of ``path``; unreadable or invalid files raise MatrixFileError."""
    try:
        with open(os.fspath(path), "rb", buffering=0) as f:  # one readall, no BufferedReader
            text = f.read().decode("utf-8")
        if "\r" in text:  # text mode's universal newlines, so error positions match
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads' own refusal, word for word
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except OSError as exc:
        raise MatrixFileError(f"{where}: {exc}") from exc
    # bytes that are not UTF-8, JSONDecodeError, an integer past int's digit
    # limit, or nesting past the recursion limit
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
