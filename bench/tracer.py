"""Span tracer that instruments the cryptoherm package from outside.

``Tracer.install()`` replaces every binding of every public function
defined in a ``cryptoherm.*`` module with one timing wrapper per
function.  Bindings matter because ``from .linalg import eig`` copies
the name into ``biortho`` and ``cli``: patching ``linalg.eig`` alone
would miss those calls.  Public classmethods (``PseudoMetric.from_matrix``)
are wrapped on their class.  ``uninstall()`` puts every original back.

Spans are kept in memory as ``Span`` records with the id of the span
that was open when they started, so self time is a span's duration
minus the durations of its direct children.  The layer of a span is the
short name of the module that defines the function (``linalg``, ``io``,
...), whichever module the call went through.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "cryptoherm"

#: functions whose str result length is recorded as ``<name>.bytes``
MEASURE_LEN = frozenset({"io.canonical_json"})


@dataclass(slots=True)
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str  # "<layer>.<qualname>", e.g. "models.PseudoMetric.from_matrix"
    layer: str
    t0: float
    t1: float = 0.0
    raised: bool = False
    nbytes: int = 0

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3



def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans from wrapped package functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- instrumentation -------------------------------------------------
    def _wrap(self, func, name: str):
        layer = name.split(".", 1)[0]
        measure = name in MEASURE_LEN
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, name, layer, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.t0 = clock()
            try:
                out = func(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.t1 = clock()
                stack.pop()
            if measure and isinstance(out, str):
                span.nbytes = len(out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each public package function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and self._public(value):
                    wrapped = wrappers.get(id(value))
                    if wrapped is None:
                        name = f"{_layer(value.__module__)}.{value.__qualname__}"
                        wrapped = wrappers[id(value)] = self._wrap(value, name)
                        self.names.add(name)
                    self._patch(module, attr, value, wrapped)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_classmethods(value)

    def _wrap_classmethods(self, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if isinstance(raw, classmethod) and not attr.startswith("_"):
                func = raw.__func__
                name = f"{_layer(cls.__module__)}.{func.__qualname__}"
                self.names.add(name)
                self._patch(cls, attr, raw, classmethod(self._wrap(func, name)))

    @staticmethod
    def _public(func) -> bool:
        return (func.__module__ or "").startswith(PACKAGE + ".") and not func.__name__.startswith("_")

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def drain(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot drain while spans are open")
        out = list(self.spans)
        self.spans.clear()
        return out

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time in ms of each span: its duration minus its direct children."""
    child_ms: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
    return {s.id: s.ms - child_ms.get(s.id, 0.0) for s in spans}


class Totals:
    """Per-layer and per-function sums, accumulated over many ops' spans."""

    def __init__(self):
        self.layer_self_ms: dict[str, float] = {}
        self.layer_calls: dict[str, int] = {}
        self.layer_raised: dict[str, int] = {}
        self.func_ms: dict[str, float] = {}  # inclusive time
        self.func_calls: dict[str, int] = {}
        self.func_bytes: dict[str, int] = {}

    def to_json(self) -> dict:
        return dict(vars(self))

    def merge(self, record: dict) -> None:
        """Add totals another process wrote with ``to_json``."""
        for table, values in record.items():
            for key, value in values.items():
                _bump(getattr(self, table), key, value)

    def add(self, spans: list[Span]) -> None:
        own = self_times(spans)
        for s in spans:
            _bump(self.layer_self_ms, s.layer, own[s.id])
            _bump(self.layer_calls, s.layer, 1)
            _bump(self.layer_raised, s.layer, int(s.raised))
            _bump(self.func_ms, s.name, s.ms)
            _bump(self.func_calls, s.name, 1)
            _bump(self.func_bytes, s.name, s.nbytes)


def _bump(table: dict, key: str, value) -> None:
    table[key] = table.get(key, 0) + value
