import enum
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptoherm import MatrixFileError, build_h3, io
from cryptoherm.io import (
    canonical_json,
    complex_pairs,
    fingerprint,
    format_float,
    load_kappa,
    load_matrix,
    matrix_to_payload,
    payload_to_matrix,
    save_matrix,
)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x or (x == 0.0 and float(format_float(x)) == 0.0)


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("inf"))
    with pytest.raises(ValueError):
        format_float(float("nan"))


class TestCanonicalJson:
    def test_scalar_rendering(self):
        out = canonical_json({"a": 1, "b": 0.5, "c": True, "d": None, "e": "x"})
        assert json.loads(out) == {"a": 1, "b": 0.5, "c": True, "d": None, "e": "x"}

    def test_numeric_lists_stay_inline(self):
        assert canonical_json([1.0, 2.0]) == "[1, 2]"

    def test_insertion_order_preserved(self):
        assert canonical_json({"z": 1, "a": 2}).index('"z"') < canonical_json(
            {"z": 1, "a": 2}
        ).index('"a"')

    def test_deterministic(self):
        payload = matrix_to_payload(build_h3(0.0, 0.3 + 0.4j))
        assert canonical_json(payload) == canonical_json(payload)

    def test_parses_as_json(self):
        payload = {"m": matrix_to_payload(np.eye(2)), "k": [[1.0, 0.0]], "n": 3}
        assert json.loads(canonical_json(payload)) is not None


@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1 / 3,
    "", "plain", 'q"uote\\back/slash', "\x00\x1f\x7f\t\n\r", "\u2028\xe9\u2603\U0001d11e\ud800",
    True, False,
])
def test_exact_type_table_prints_what_scalar_prints(value):
    # the renderer's table for an exact float, str or bool, against _scalar's chain
    assert io._EXACT[type(value)](value) == io._scalar(value) == canonical_json(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_exact_type_table_refuses_what_scalar_refuses(value):
    got = _outcome(io._EXACT[float], value)
    assert got[0] is ValueError
    assert got == _outcome(io._scalar, value) == _outcome(canonical_json, {"k": value})


def _read_in_text_mode(path):
    # the JSON of ``path`` as a text-mode read gives it, universal newlines included;
    # json.loads refuses a leading BOM in the words _read_json uses
    with open(path, encoding="utf-8") as f:
        return json.loads(f.read(), parse_int=io._parse_int)


#: file bytes whose parse, or refusal, must be the one a text-mode read gives
_NEWLINE_FILES = {
    "crlf": b'{"dim": 1,\r\n "data": [[1, -0]]}\r\n',
    "lone-cr": b"[[1, 0],\r[2.5, -0]]\r",
    "mixed": b"[[1, 0],\r\n[2, 0],\r[3, 0]\n,\n\r[4, 0]]",
    "cr-before-lf-at-8-kib": b" " * 8191 + b"\r\n[[1, 0]]",
    "invalid-crlf": b'{"dim": 1,\r\n "data": [[1, 0]\r\n x}',
    "invalid-lone-cr": b"[[1, 0],\r\r[2, 0]\r oops]",
    "invalid-mixed": b"[[1, 0],\r\n\r[2, 0]\n\r\n,]",
    "cr-in-string": b'{"dim": 1, "da\rta": []}',
    "truncated-after-crlf": b"\r\n\r\n[[1, 0]",
    "bom-then-crlf": b"\xef\xbb\xbf\r\n[[1, 0]]",
    "not-utf8-past-8-kib": b"[" + b" " * 9000 + b"\xff]",
    "not-utf8-after-crlf": b"\r\n" * 5000 + b"[\xc3\x28]",
}


@pytest.mark.parametrize("raw", _NEWLINE_FILES.values(), ids=_NEWLINE_FILES)
def test_one_decode_reads_what_text_mode_reads(raw, tmp_path):
    # same object (reprs, so -0.0 and int against float count), or the same error
    # text: line, column, char and byte position included
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    try:
        want = "ok", repr(_read_in_text_mode(path))
    except ValueError as exc:
        want = MatrixFileError, f"{path}: invalid JSON ({exc})"
    assert _outcome(lambda: repr(io._read_json(path, str(path)))) == want


def test_fingerprint_sensitivity():
    a = matrix_to_payload(np.eye(2))
    b = matrix_to_payload(2.0 * np.eye(2))
    assert fingerprint(a) == fingerprint(a)
    assert fingerprint(a) != fingerprint(b)
    assert len(fingerprint(a)) == 64


def test_complex_pairs_layout():
    assert complex_pairs(np.array([1 + 2j, -3j])) == [[1.0, 2.0], [-0.0, -3.0]]


class TestMatrixPayload:
    def test_round_trip_exact(self, tmp_path):
        m = build_h3(0.1, 0.3 + 0.4j)
        path = tmp_path / "m.json"
        save_matrix(path, m)
        back = load_matrix(path)
        assert np.array_equal(back, m)

    def test_round_trip_keeps_signed_zeros(self, tmp_path):
        # '%.17g' writes -0.0 as the integer token -0, which is read back as -0.0
        m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                      [complex(-0.0, -0.0), complex(0.0, 0.0)]])
        path = tmp_path / "m.json"
        save_matrix(path, m)
        assert "[-0, 0],\n    [0, -0],\n    [-0, -0]" in path.read_text()
        back = load_matrix(path)
        assert np.signbit(back.view(np.float64)).tolist() == \
            np.signbit(m.view(np.float64)).tolist() == [[True, False, False, True],
                                                        [True, True, False, False]]

    def test_tuple_and_numpy_pairs_match_the_list_form(self):
        # pairs that are tuples or hold an np.float64 take the per-entry path
        floats = [[1.0, -0.0], [0.5, 2.0], [-0.0, 0.25], [3.0, 0.0]]
        want = payload_to_matrix({"dim": 2, "data": floats}).tobytes()
        tuples = [(1.0, -0.0), (0.5, 2.0), (-0.0, 0.25), (3, 0)]
        numpy_entry = [[1.0, -0.0], [np.float64(0.5), 2.0], [-0.0, 0.25], [3, 0]]
        for data in (tuples, numpy_entry):
            assert payload_to_matrix({"dim": 2, "data": data}).tobytes() == want

    def test_rejects_wrong_data_length(self):
        with pytest.raises(MatrixFileError):
            payload_to_matrix({"dim": 2, "data": [[1.0, 0.0]] * 3})

    def test_rejects_bad_dim(self):
        with pytest.raises(MatrixFileError):
            payload_to_matrix({"dim": 0, "data": []})
        with pytest.raises(MatrixFileError):
            payload_to_matrix({"dim": True, "data": [[1, 0]]})

    def test_rejects_malformed_pairs(self):
        with pytest.raises(MatrixFileError):
            payload_to_matrix({"dim": 1, "data": ["1+2i"]})
        with pytest.raises(MatrixFileError):
            payload_to_matrix({"dim": 1, "data": [[1.0]]})
        with pytest.raises(MatrixFileError):
            payload_to_matrix({"dim": 1, "data": [[1.0, None]]})

    def test_rejects_non_finite_entries(self):
        with pytest.raises(MatrixFileError):
            payload_to_matrix({"dim": 1, "data": [[1e400, 0.0]]})

    def test_rejects_unknown_keys(self):
        with pytest.raises(MatrixFileError):
            payload_to_matrix({"dim": 1, "data": [[1.0, 0.0]], "extra": 1})

    def test_rejects_non_object(self):
        with pytest.raises(MatrixFileError):
            payload_to_matrix([[1.0, 0.0]])

    @pytest.mark.parametrize("load", [load_matrix, lambda path: load_kappa(path, 2)],
                             ids=["load_matrix", "load_kappa"])
    def test_missing_file(self, load, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(MatrixFileError, match=r"nope\.json: .*No such file"):
            load(path)

    @pytest.mark.parametrize("load", [load_matrix, lambda path: load_kappa(path, 2)],
                             ids=["load_matrix", "load_kappa"])
    def test_invalid_json(self, load, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MatrixFileError, match=r"bad\.json: invalid JSON \("):
            load(path)


class TestKappaFile:
    def test_load(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('[[2.0, 0.0], [0.0, -1.0]]')
        out = load_kappa(path, 2)
        assert np.array_equal(out, np.array([2.0, -1.0j]))

    def test_negative_zero_token(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("[[2, -0], [-1, 0]]")
        k = load_kappa(path, 2)
        assert np.signbit(k.view(np.float64)).tolist() == [False, True, True, False]

    def test_dim_stays_an_integer(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1, "data": [[-0, 1]]}')
        assert load_matrix(path).shape == (1, 1)
        path.write_text('{"dim": -0, "data": []}')
        with pytest.raises(MatrixFileError, match="'dim' must be a positive integer"):
            load_matrix(path)

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("[[1.0, 0.0]]")
        with pytest.raises(MatrixFileError):
            load_kappa(path, 2)

    def test_rejects_zero_entries(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("[[0.0, 0.0], [1.0, 0.0]]")
        with pytest.raises(MatrixFileError):
            load_kappa(path, 2)


# an integer JSON reads exactly but float64 cannot hold
HUGE = 10**400


class TestIntegerBeyondFloat64:
    def test_payload_names_the_entry(self):
        data = [[1, 0], [0, 0], [0.5, 0], [0, -HUGE]]
        with pytest.raises(MatrixFileError) as info:
            payload_to_matrix({"dim": 2, "data": data})
        assert str(info.value) == f"matrix file: data[3]: entry out of float64 range [0, {-HUGE}]"

    def test_load_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(f'{{"dim": 1, "data": [[{HUGE}, 0]]}}')
        with pytest.raises(MatrixFileError, match=r"m\.json: data\[0\]: entry out of float64 range \[1000"):
            load_matrix(path)

    def test_load_kappa(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(f"[[1.0, 0.0], [0, {HUGE}]]")
        with pytest.raises(MatrixFileError, match=r"k\.json: \[1\]: entry out of float64 range \[0, 1000"):
            load_kappa(path, 2)

    @pytest.mark.parametrize("load, template", [
        (load_matrix, '{{"dim": 1, "data": [[{}, 0]]}}'),
        (lambda path: load_kappa(path, 1), "[[{}, 0]]"),
    ], ids=["load_matrix", "load_kappa"])
    def test_beyond_the_digit_limit_of_int(self, load, template, tmp_path):
        # an interpreter with an int digit limit (4300 by default) refuses to
        # read this integer with a plain ValueError, not a JSONDecodeError
        path = tmp_path / "m.json"
        path.write_text(template.format("1" + "0" * 5000))
        with pytest.raises(MatrixFileError,
                           match=r"m\.json: (invalid JSON \(|(data)?\[0\]: entry out of float64 range)"):
            load(path)


# -- reference equivalence --------------------------------------------------
# The per-element renderer and pair parser as they were before the one-pass
# versions; canonical_json and the loaders must match them byte for byte.


def _ref_render(value, indent, pieces):
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
            _ref_render(sub, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(items) else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            pieces.append("[]")
            return
        if all(isinstance(x, (bool, int, float, np.integer, np.floating)) for x in seq):
            pieces.append("[" + ", ".join(_ref_scalar(x) for x in seq) + "]")
            return
        pieces.append("[\n")
        for i, sub in enumerate(seq):
            pieces.append("  " * (indent + 1))
            _ref_render(sub, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(seq) else "\n")
        pieces.append(pad + "]")
    else:
        pieces.append(_ref_scalar(value))


def _ref_scalar(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"cannot serialize non-finite value {value!r}")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _ref_canonical_json(value):
    pieces = []
    _ref_render(value, 0, pieces)
    return "".join(pieces)


def _ref_pair_to_complex(entry, where):
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


def _ref_pairs(entries, where):
    values = [_ref_pair_to_complex(e, f"{where}[{i}]") for i, e in enumerate(entries)]
    return np.array(values, dtype=np.complex128)


def _outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError, MatrixFileError) as exc:
        return type(exc), str(exc)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                -1e-300, 1e300, 0.1, 1 / 3, 2.0**53, 1e16]
finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(_EDGE_FLOATS))
non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
pair_element = st.one_of(
    finite_floats,
    finite_floats,
    finite_floats,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    finite_floats.map(np.float64),
)
pair_lists = st.one_of(
    st.lists(st.lists(finite_floats, min_size=2, max_size=2), max_size=12),
    st.lists(st.lists(pair_element, min_size=2, max_size=2), max_size=12),
    st.lists(st.tuples(pair_element, pair_element), max_size=6),
    st.lists(st.lists(pair_element, max_size=3), max_size=6),
)


class _Level(enum.IntEnum):
    GROUND = 0
    EXCITED = 1
    BELOW = -3


class _Float(float):
    pass


# bool before int in the renderer's chain: every subclass of int, float and
# numpy's scalar types must render as the reference does
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite_floats,
    finite_floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=8),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-128, 127).map(np.int8),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.sampled_from(_Level),
    finite_floats.map(_Float),
)
reports = st.recursive(
    st.one_of(scalars, pair_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\t\n\u2028\ud800\xe9\u2603\U0001d11e'),
    st.text(alphabet=st.characters(codec=None, exclude_categories=())),
))
def test_key_and_string_encoding_matches_json_dumps(text):
    # keys and string scalars use the C encoder json.dumps itself calls for a str
    assert canonical_json(text) == json.dumps(text)
    assert canonical_json({text: text}) == "{\n  " + json.dumps(text) + ": " + json.dumps(text) + "\n}"


@settings(max_examples=300, deadline=None)
@given(reports)
# every renderer branch, on every run: empty containers, a tuple of dicts,
# one pair, pairs nested next to a string, and near-pairs on the general path
@example({"a": {}, "b": [], "c": [[]]})
@example(({"x": 1}, {"y": [2.5, None]}))
@example([[0.5, -0.0]])
@example(["s", [[0.5, -1.5], [1e-310, 2.0]]])
@example([[1.0, 2]])
@example([[True, 1.0]])
def test_canonical_json_matches_reference(value):
    assert canonical_json(value) == _ref_canonical_json(value)


@pytest.mark.parametrize("value", [np.bool_(True), [np.bool_(False), 1], {"k": [np.bool_(True)]}])
def test_numpy_bool_is_refused_as_reference(value):
    # np.bool_ is neither bool nor an integer type: refused, never rendered as 1 or true
    got = _outcome(canonical_json, value)
    assert got[0] is TypeError
    assert got == _outcome(_ref_canonical_json, value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(finite_floats, min_size=2, max_size=2), min_size=1, max_size=12),
       st.data())
def test_non_finite_value_raises_as_reference(pairs, data):
    for _ in range(data.draw(st.integers(1, 3))):
        row = data.draw(st.integers(0, len(pairs) - 1))
        pairs[row][data.draw(st.integers(0, 1))] = data.draw(non_finite)
    report = {"ok": 1.5, "values": pairs, "after": [math.nan]}
    got = _outcome(canonical_json, report)
    assert got[0] is ValueError
    assert got == _outcome(_ref_canonical_json, report)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_parser_matches_reference_bit_for_bit(dim, data):
    number = st.one_of(
        finite_floats,
        st.integers(-(2**64), 2**64),
        # 2**1024 - 2**970 - 1 is the largest integer that rounds to a finite float64
        st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, -(2**63) - 1, 10**308, -(10**308),
                         2**1024 - 2**970 - 1]),
    )
    entries = data.draw(st.lists(st.lists(number, min_size=2, max_size=2),
                                 min_size=dim * dim, max_size=dim * dim))
    got = payload_to_matrix({"dim": dim, "data": entries})
    want = _ref_pairs(entries, "matrix file: data").reshape(dim, dim)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _load_kappa_text(text, dim):
    """load_kappa of ``text`` written to a file named KAPPA; errors name it KAPPA."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "KAPPA"
        path.write_text(text)
        try:
            return load_kappa(path, dim)
        except MatrixFileError as exc:
            raise MatrixFileError(str(exc).replace(str(path), "KAPPA")) from None


_MALFORMED = [
    "1+2i", None, 1.0, {"re": 1.0}, [1.0], [1.0, 2.0, 3.0], [1.0, None], [True, 0.0],
    [0, False], [[1.0], 0.0], ["1", 0], (1.0, math.inf), [math.nan, 0.0], [0, -math.inf],
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(finite_floats, min_size=2, max_size=2), min_size=1, max_size=9),
       st.data())
def test_parser_errors_match_reference(entries, data):
    for _ in range(data.draw(st.integers(1, 2))):
        entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(st.sampled_from(_MALFORMED))
    got = _outcome(_load_kappa_text, json.dumps(entries), len(entries))
    want = _outcome(_ref_pairs, json.loads(json.dumps(entries)), "KAPPA: ")
    assert got[0] is MatrixFileError
    assert got == want


# -- golden digests ---------------------------------------------------------
# sha256 of the canonical bytes, recorded before the one-pass renderer.  The
# inputs use only exact operations (uniform draws, ldexp), not LAPACK, so the
# same bytes are expected on every machine.


def _wide_matrix(seed, n=64):
    """Complex n x n with exponents over 2^-1070 .. 2^1020, subnormals and signed zeros."""
    rng = np.random.default_rng(seed)
    parts = np.ldexp(2.0 * rng.random((n, n, 2)) - 1.0, rng.integers(-1070, 1020, (n, n, 2)))
    zeros = rng.integers(0, 8, (n, n, 2))
    parts[zeros == 0] = 0.0
    parts[zeros == 1] = -0.0
    return parts.view(np.complex128)[..., 0]


def _diagnose_shaped_report():
    return {
        "schema": 1,
        "command": "diagnose",
        "model_fingerprint": "0" * 64,
        "tolerance": {"rel": 1e-10, "abs": 1e-12},
        "spectrum": {"values": matrix_to_payload(_wide_matrix(1, 3))["data"],
                     "all_real": False, "max_imag": 2.5e-300},
        "verdicts": [
            {"name": "pseudo_hermitian", "residual": 5e-324, "holds": True,
             "tolerance": 1.01e-10, "detail": None},
            {"name": "quasi_hermitian", "residual": -0.0, "holds": False,
             "tolerance": 1.01e-10, "detail": 'not "positive"'},
        ],
        "metric": {
            "kappa": matrix_to_payload(_wide_matrix(2, 3))["data"],
            "theta_min_eigenvalue": 1.7976931348623157e308,
            "residuals": {"pq": 0.1, "cp": 1 / 3},
            "factorizations_hold": True,
        },
        "warnings": ["w\u00e9", ""],
        "empty": {}, "none": [], "mixed": [1, 2.5, True, None],
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class TestGoldenDigests:
    def test_save_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, _wide_matrix(0))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "bf5aee0280eff275fc661f43f9d5835bdc0cf38e0e83cef5e703a168a4bfe0bf")

    def test_fingerprint(self):
        operands = {"hamiltonian": matrix_to_payload(_wide_matrix(1)),
                    "pseudometric": matrix_to_payload(_wide_matrix(2))}
        assert fingerprint(operands) == (
            "70f0867bb187a0ced01cd17ecc4f8a1d9a4b723bfbcb0e9b1787a4f7c2ac4236")

    def test_diagnose_shaped_report(self):
        assert _sha256(canonical_json(_diagnose_shaped_report())) == (
            "7081ab1f43b6d4a62a0d96c544a7bf3e4c2af82d2b2896012395dc55d45b41d7")
