import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import MatrixFileError, build_h3
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
        back, payload = load_matrix(path)
        assert np.array_equal(back, m)
        assert payload["dim"] == 3

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
