"""Run ``cryptoherm.cli.main`` in this process with the tracer installed.

    python3 bench/launch.py SPANS.json -- diagnose H.json P.json
    python3 bench/launch.py SPANS.json --import-only

The launcher times ``import numpy`` and then ``import cryptoherm.cli``
(so the second figure is what the package adds on top of numpy), wraps
the package with ``tracer.Tracer``, calls ``main`` with the arguments
after ``--`` and, on the way out, writes the import times and the
per-layer and per-function totals of its spans to SPANS.json (totals,
not spans: a traced 300x300 sweep makes about half a million spans).
The exit code is ``main``'s.  ``src`` must be on ``PYTHONPATH``.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()
import numpy  # noqa: E402,F401

_T1 = time.perf_counter()
import cryptoherm.cli  # noqa: E402

_T2 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Totals, Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    out_path, rest = argv[0], argv[1:]
    record = {"import_numpy_ms": (_T1 - _T0) * 1e3, "import_cli_ms": (_T2 - _T1) * 1e3}
    code = 0
    tracer = Tracer()
    try:
        if rest[:1] == ["--"]:
            with tracer:
                code = cryptoherm.cli.main(rest[1:])
        elif rest != ["--import-only"]:
            print(f"launch.py: expected '--' or '--import-only', got {rest!r}", file=sys.stderr)
            code = 2
    finally:
        sys.stdout.flush()
        totals = Totals()
        totals.add(tracer.drain())
        record["totals"] = totals.to_json()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
