"""The exception contract: messages, context attributes and their defaults, pickling."""
import inspect
import math
import pickle

import numpy as np
import pytest

from cryptoherm import errors

CONTEXT = ("condition", "eigenvalues", "gap", "threshold", "index", "overlap", "indices")

# the context attributes each class declares, with their defaults
DEFAULTS = {
    "CryptoHermError": {},
    "DimensionMismatch": {},
    "NotHermitian": {},
    "NotPositiveDefinite": {},
    "SingularMatrix": {"condition": math.inf},
    "SpectrumObstruction": {"eigenvalues": None},
    "ConvergenceFailure": {"eigenvalues": None},
    "ComplexSpectrum": {"eigenvalues": None},
    "DegenerateSpectrum": {"eigenvalues": None, "gap": 0.0, "threshold": 0.0},
    "ZeroKappa": {},
    "VanishingOverlap": {"index": -1, "overlap": 0j},
    "NonRealQuasiparity": {"indices": ()},
    "MatrixFileError": {},
}

# values of the kinds the raise sites pass
SAMPLE = {
    "condition": 3.5e17,
    "eigenvalues": np.array([1.0 + 0j, 1.0 + 1e-15j]),
    "gap": 1e-15,
    "threshold": 2.5e-14,
    "index": 2,
    "overlap": 1e-20 - 3e-21j,
    "indices": (0, 2),
}

CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.CryptoHermError) and cls.__module__ == errors.__name__
]


def _context(cls):
    return {name: SAMPLE[name] for name in DEFAULTS[cls.__name__]}


def _same(a, b):
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return type(a) is type(b) and repr(a) == repr(b)


def test_every_class_is_listed():
    assert sorted(cls.__name__ for cls in CLASSES) == sorted(DEFAULTS)


def test_one_constructor():
    assert [cls.__name__ for cls in CLASSES if "__init__" in vars(cls)] == ["CryptoHermError"]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_message_only_reads_the_defaults(cls):
    exc = cls("what went wrong")
    assert str(exc) == "what went wrong" and exc.args == ("what went wrong",)
    assert vars(exc) == {}
    defaults = DEFAULTS[cls.__name__]
    for name in CONTEXT:
        if name in defaults:
            assert _same(getattr(exc, name), defaults[name]), name
        else:
            assert not hasattr(exc, name), name


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_context_keywords_become_attributes(cls):
    context = _context(cls)
    exc = cls("what went wrong", **context)
    assert str(exc) == "what went wrong" and exc.args == ("what went wrong",)
    for name, value in context.items():
        assert getattr(exc, name) is value, name


@pytest.mark.parametrize("with_context", [False, True], ids=["defaults", "context"])
@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls, with_context):
    context = _context(cls) if with_context else {}
    exc = cls("what went wrong", **context)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and back.args == exc.args and str(back) == str(exc)
    for name in DEFAULTS[cls.__name__]:
        assert _same(getattr(back, name), getattr(exc, name)), name
