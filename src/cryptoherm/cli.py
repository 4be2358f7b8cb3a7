"""Batch front-end.

Four subcommands over JSON matrix files:

* diagnose   - render ``cryptoherm.diagnose`` of one (H, P) pair (every
               applicable symmetry check plus the full metric pipeline)
               as a JSON report on stdout
* metric     - build Theta/Q/C (optionally kappa-weighted or involutive)
               and write them as matrix files
* sweep      - CSV scan of the two-level model's reality domain, one
               row per point of ``h2.sweep_h2``; each axis value, and
               each distinct |b|'s discriminant, class and min_gap, is
               formatted once
* hermitize  - singularity scan of the Hermitian partner family of P, as
               ``models.hermitian_partners`` reports it

Exit codes: 0 ok, 1 usage or I/O problem, 2 a symmetry or factorization
verdict failed, 3 spectrum obstruction (complex, degenerate or
defective; diagnose still prints its report), 4 quasiparity
coefficients not real (no involutive rescaling exists).
Identical inputs and flags produce byte-identical stdout and files.
The argument parser is built once per process, at import, and each argv
is parsed once: ``main`` hands everything after a command's name to that
command's own parser, and the top-level ``_PARSER`` parses only help and
the argvs that name no command.  The commands load, call the library and
render: what a diagnosis finds and whether it holds is decided in
``symmetry.diagnose``; only the exit codes, the CLI's contract, live here,
those of a refused run in one ordered table, ``_REFUSALS``.

This file never imports numpy, and every number it reports about a
model is computed, and every gate decided, in the library (``metric``
reads the float64 and involution gates from ``cryptoherm.metric``).
The little arithmetic left here is on the arguments, in plain floats,
so that ``sweep`` runs without numpy: the sweep axes (``_linspace``,
bit for bit ``np.linspace``), each point's gap sqrt(|disc|) and the
``--theta`` scan angles.  At module scope it imports the standard
library, the ``cryptoherm`` package itself (which loads nothing until a
library name is read from it), ``errors`` and ``h2``'s grid walk, none of
which loads numpy, ``dataclasses`` or ``models``, so ``sweep``,
``--help`` and a usage error run without them.  ``diagnose``, ``metric``
and ``hermitize`` and the report helpers they share reach the library
as ``cryptoherm.<module>.<name>``: the first such read imports the
library and numpy, and every later one is a dictionary lookup, with no
import statement run per call, but for ``metric --kappa FILE``'s
``dataclasses.replace``, which the library has loaded by then.
``python -m cryptoherm.cli`` and the ``cryptoherm`` console script run
``entry``, which runs ``main`` with the garbage collector off and freezes
the heap once it returns.  A process runs one command, so most of its
time is interpreter start-up and shutdown: with the collector off, the
imports of numpy and the library that ``main`` triggers run without
full collections, and after ``gc.freeze()`` the interpreter's last
collections at exit have nothing to walk.  Nothing is lost: a command
leaves no cyclic garbage (``tests/test_cli.py`` checks one argv of each
kind).  ``main`` itself leaves the collector alone, because a caller that
embeds it runs many commands in one process, and a freeze there would
keep each run's leftovers for the life of the caller.
``sweep`` builds its axes and prints its CSV in pure Python: a
``MIN:MAX:STEPS`` axis repeats ``np.linspace``'s float operations point
for point, and every value is formatted with ``%.17g``, which is
``io.format_float`` of a finite float.  A row's discriminant, class and
min_gap depend on b only through |b|, and the grid walk it shares with
``sweep_h2`` (``h2._sweep_indices``) gives each point the index of its
|b|'s row: each distinct row is formatted once, in one pass, and every
point's line is its b_re, its b_im and that row's text.
"""
from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

import cryptoherm

from .errors import (
    CryptoHermError,
    DimensionMismatch,
    MatrixFileError,
    NonRealQuasiparity,
    SingularMatrix,
    SpectrumObstruction,
    VanishingOverlap,
    ZeroKappa,
)
from .h2 import _sweep_indices

if TYPE_CHECKING:
    from .linalg import Tolerance

#: number of scan points when --theta scan is given without a count
DEFAULT_SCAN_POINTS = 64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2
EXIT_SPECTRUM = 3
EXIT_NONREAL = 4


class _UsageError(Exception):
    pass


#: a refused run's exit contract, in order: the first row whose kinds match gives
#: the exit code and the ``error:`` prefix; a None prefix names the exception's type
_REFUSALS = (
    ((_UsageError, MatrixFileError, DimensionMismatch, ZeroKappa), EXIT_USAGE, ""),
    ((SingularMatrix,), EXIT_USAGE, "pseudometric not invertible: "),
    ((NonRealQuasiparity,), EXIT_NONREAL, ""),
    ((SpectrumObstruction,), EXIT_SPECTRUM, None),
    ((VanishingOverlap,), EXIT_VERDICT, ""),
    ((CryptoHermError,), EXIT_VERDICT, None),
)


class _Parser(argparse.ArgumentParser):
    #: each command's parser by name; ``build_parser`` sets it on the top-level parser
    commands: dict[str, _Parser]

    # argparse exits with status 2 on bad usage; the contract wants 1,
    # so usage failures are turned into exceptions handled in main()
    def error(self, message):
        raise _UsageError(message)

    def _print_message(self, message, file=None):
        # argparse ignores a failed write of --help's text; a closed stdout
        # must reach main's error line instead of failing again at exit
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def build_parser() -> _Parser:
    parser = _Parser(prog="cryptoherm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the subparsers action's own name -> parser table, the one it dispatches through
    parser.commands = sub.choices

    d = sub.add_parser("diagnose", help="full symmetry/metric diagnostic of (H, P)")
    d.add_argument("hamiltonian", help="matrix file for H")
    d.add_argument("pseudometric", help="matrix file for the candidate P")
    d.add_argument("--out-dir", default=None, metavar="DIR",
                   help="also write report.json into DIR")
    d.set_defaults(func=cmd_diagnose)

    m = sub.add_parser("metric", help="build Theta, Q, C and write them as files")
    m.add_argument("hamiltonian", help="matrix file for H")
    m.add_argument("pseudometric", help="matrix file for the candidate P")
    m.add_argument("--kappa", default=None, metavar="PATH|involutive",
                   help="kappa file to apply, or 'involutive' to solve for it")
    m.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for theta.json/q.json/c.json (default .)")
    m.set_defaults(func=cmd_metric)
    for command in (d, m):
        command.add_argument("--tol-rel", type=float, default=1e-10, metavar="X",
                             help="relative tolerance for verdicts (default 1e-10)")

    s = sub.add_parser("sweep", help="CSV scan of the two-level reality domain")
    s.add_argument("--model", required=True, choices=["h2"],
                   help="model family to sweep")
    s.add_argument("--a", type=float, required=True, help="diagonal parameter a")
    s.add_argument("--d", type=float, required=True, help="diagonal parameter d")
    s.add_argument("--b-re", required=True, metavar="V|MIN:MAX:STEPS",
                   help="real part of b: fixed value or inclusive range")
    s.add_argument("--b-im", required=True, metavar="V|MIN:MAX:STEPS",
                   help="imaginary part of b: fixed value or inclusive range")
    s.set_defaults(func=cmd_sweep)

    h = sub.add_parser("hermitize", help="Hermitian partner scan of a candidate P")
    h.add_argument("pseudometric", help="matrix file for the candidate P")
    h.add_argument("--theta", default="scan", metavar="LIST|scan[:N]",
                   help="comma-separated angles, or a uniform scan over "
                        "[0, 2pi) with N points (default scan:64)")
    h.set_defaults(func=cmd_hermitize)

    return parser


def _tol(args) -> Tolerance:
    try:
        return cryptoherm.linalg.Tolerance(rel=args.tol_rel)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_pair(args):
    h = cryptoherm.io.load_matrix(args.hamiltonian)
    p = cryptoherm.io.load_matrix(args.pseudometric)
    if h.shape != p.shape:
        raise MatrixFileError(
            f"dimension mismatch: H is {h.shape[0]}x{h.shape[0]}, "
            f"P is {p.shape[0]}x{p.shape[0]}"
        )
    return h, p


def _metric_payload(system, bundle) -> dict:
    return {
        "kappa": cryptoherm.io.complex_pairs(system.kappa),
        "quasiparity_coeffs": cryptoherm.io.complex_pairs(bundle.q),
        "theta_min_eigenvalue": float(bundle.theta_eigenvalues[0]),
        "residuals": {k: float(v) for k, v in bundle.residuals.items()},
        "factorizations_hold": bundle.factorizations_hold,
    }


def _report_head(command: str, tol: Tolerance | None, **operands) -> dict:
    """The fields every JSON report opens with; ``operands`` are fingerprinted in order.

    A command that reads no tolerance (``tol`` None) prints no ``tolerance``.
    """
    head = {"schema": 4, "command": command,
            "model_fingerprint": cryptoherm.io.fingerprint(operands)}
    return head if tol is None else {**head, "tolerance": {"rel": tol.rel}}


@contextmanager
def _out_dir(path: str):
    """The directory ``path``, created when missing; an OSError in the block is an I/O error."""
    try:
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        yield directory
    except OSError as exc:
        raise _UsageError(f"--out-dir {path}: {exc}") from exc


def _emit_report(report: dict, out_dir: str | None) -> None:
    text = cryptoherm.io.canonical_json(report)
    # written before printing, so a directory that cannot take it leaves stdout empty
    if out_dir is not None:
        with _out_dir(out_dir) as directory:
            (directory / "report.json").write_text(text + "\n", encoding="utf-8")
    print(text)


def _verdict_rows(verdicts) -> list[dict]:
    """Each verdict as a dict of its fields in order, as ``dataclasses.asdict`` gives it.

    A frozen dataclass without slots keeps its fields in ``__dict__`` in
    field order; every field is a scalar, so asdict's recursive copy
    would add nothing.
    """
    return [vars(v) for v in verdicts]


def cmd_diagnose(args) -> int:
    tol = _tol(args)
    h, p = _load_pair(args)
    found = cryptoherm.symmetry.diagnose(h, p, tol)

    report = _report_head("diagnose", tol, hamiltonian=cryptoherm.io.matrix_digest(h),
                          pseudometric=cryptoherm.io.matrix_digest(p))
    report["spectrum"] = {
        "values": cryptoherm.io.complex_pairs(found.eigenvalues),
        "all_real": found.all_real,
        "max_imag": found.max_imag,
    }
    report["verdicts"] = _verdict_rows(found.verdicts)
    report["metric"] = None if found.bundle is None else _metric_payload(found.system, found.bundle)
    report["warnings"] = found.warnings
    _emit_report(report, args.out_dir)

    if found.obstruction is not None:
        return EXIT_SPECTRUM
    return EXIT_OK if found.holds else EXIT_VERDICT


def cmd_metric(args) -> int:
    tol = _tol(args)
    h, p = _load_pair(args)
    pm = cryptoherm.models.PseudoMetric.from_matrix(p)
    # refused before anything is written, as diagnose refuses it
    pm.check_condition()

    system = cryptoherm.biortho.solve_biorthogonal(h, tol)
    involutive = args.kappa == "involutive"
    kappa_tag = args.kappa  # None or "involutive"; a kappa file is reported by its pairs

    if involutive:
        _, system = cryptoherm.metric.involutive_normalization(system, pm)
    elif args.kappa is not None:
        from dataclasses import replace  # loaded with the library by now; not at module scope

        kappa = cryptoherm.io.load_kappa(args.kappa, system.dim)
        kappa_tag = cryptoherm.io.complex_pairs(kappa)
        system = replace(system, kappa=kappa)
    # a bundle that leaves float64 is refused here, before anything is written
    bundle = cryptoherm.metric.build_bundle(system, pm)

    with _out_dir(args.out_dir) as out_dir:
        cryptoherm.io.save_matrix(out_dir / "theta.json", bundle.theta)
        cryptoherm.io.save_matrix(out_dir / "q.json", bundle.quasiparity)
        cryptoherm.io.save_matrix(out_dir / "c.json", bundle.charge)

    report = _report_head("metric", tol, hamiltonian=cryptoherm.io.matrix_digest(h),
                          pseudometric=cryptoherm.io.matrix_digest(p), kappa=kappa_tag)
    report["metric"] = _metric_payload(system, bundle)
    report["files"] = ["theta.json", "q.json", "c.json"]

    report["involutive"] = {"applied": involutive}
    if involutive:
        q2, c2 = bundle.involution_residuals
        report["involutive"].update(q_squared_residual=q2, c_squared_residual=c2,
                                    holds=bundle.involutions_hold)

    report["warnings"] = cryptoherm.metric.nonreal_warnings(bundle.q)
    _emit_report(report, None)

    holds = bundle.factorizations_hold and (not involutive or bundle.involutions_hold)
    return EXIT_OK if holds else EXIT_VERDICT


def _finite(name: str, values: list[float]) -> list[float]:
    """``values`` unchanged, or a usage error when any is NaN or infinite."""
    if not all(map(math.isfinite, values)):
        raise _UsageError(f"{name}: values must be finite")
    return values


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    """``np.linspace(lo, hi, steps)`` as floats, with the same float operations.

    Point i is i * step + lo with step = (hi - lo) / (steps - 1); when step
    underflows to zero, numpy takes (i / (steps - 1)) * (hi - lo) + lo
    instead, and the last point is ``hi`` itself.  Python's float
    arithmetic never raises here: a span beyond float64 gives inf and NaN
    points, as numpy's does.
    """
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        points = [i / div * delta + lo for i in range(steps)]
    else:
        points = [i * step + lo for i in range(steps)]
    points[-1] = hi
    return points


def _parse_axis(expr: str, name: str) -> list[float]:
    parts = expr.split(":")
    try:
        if len(parts) == 1:
            return _finite(name, [float(parts[0])])
        if len(parts) == 3:
            lo, hi = float(parts[0]), float(parts[1])
            steps = int(parts[2])
            if steps < 2:
                raise _UsageError(f"{name}: steps must be >= 2, got {steps}")
            # a non-finite end, or MAX - MIN beyond float64, shows up as NaN/inf points
            return _finite(name, _linspace(lo, hi, steps))
    except ValueError as exc:
        raise _UsageError(f"{name}: cannot parse {expr!r} ({exc})") from exc
    raise _UsageError(f"{name}: expected V or MIN:MAX:STEPS, got {expr!r}")


def cmd_sweep(args) -> int:
    (a,), (d,) = _finite("--a", [args.a]), _finite("--d", [args.d])
    re_axis = _parse_axis(args.b_re, "--b-re")
    im_axis = _parse_axis(args.b_im, "--b-im")
    # every row is computed before any is written, so a refused point prints nothing;
    # extend keeps the indices yielded before it, which locate the refused point
    rows: list[tuple[float, str]] = []
    index: list[int] = []
    try:
        index.extend(_sweep_indices(a, d, re_axis, im_axis, rows))
    except OverflowError as exc:
        i, j = divmod(len(index), len(im_axis))
        raise _UsageError(f"h2 classification overflows at b_re = {re_axis[i]:.17g}, "
                          f"b_im = {im_axis[j]:.17g}") from exc
    # each distinct row's text in one pass; |E_+ - E_-| = sqrt(|disc|) whether the
    # pair is real or conjugate.  Every value is finite, so '%.17g' % x is
    # format(x, ".17g") and io.format_float(x)
    suffixes = ("%.17g,%s,%.17g\n" * len(rows) % tuple(
        [x for disc, tag in rows for x in (disc, tag, math.sqrt(abs(disc)))])
    ).splitlines(keepends=True)
    res = ["%.17g," % x for x in re_axis]
    ims = ["%.17g," % x for x in im_axis]
    # line k is res[k // len(ims)] + ims[k % len(ims)] + suffixes[index[k]], joined in one pass
    sys.stdout.write("b_re,b_im,discriminant,class,min_gap\n" + "".join(chain.from_iterable(zip(
        chain.from_iterable(repeat(re, len(ims)) for re in res), ims * len(res),
        map(suffixes.__getitem__, index)))))
    return EXIT_OK


def _parse_theta(expr: str) -> list[float]:
    if expr == "scan":
        count = DEFAULT_SCAN_POINTS
    elif expr.startswith("scan:"):
        try:
            count = int(expr.split(":", 1)[1])
        except ValueError as exc:
            raise _UsageError(f"--theta: cannot parse {expr!r}") from exc
        if count < 1:
            raise _UsageError("--theta: scan needs at least one point")
    else:
        try:
            return _finite("--theta", [float(x) for x in expr.split(",")])
        except ValueError as exc:
            raise _UsageError(f"--theta: cannot parse {expr!r}") from exc
    return [2.0 * math.pi * k / count for k in range(count)]


def cmd_hermitize(args) -> int:
    p = cryptoherm.io.load_matrix(args.pseudometric)
    thetas = _parse_theta(args.theta)
    (sum_sv, sum_invertible), *rotated = cryptoherm.models.hermitian_partners(p, thetas)

    report = _report_head("hermitize", None, pseudometric=cryptoherm.io.matrix_digest(p))
    report["sum"] = {"smallest_singular_value": sum_sv, "invertible": sum_invertible}
    report["rotation"] = [{"theta": theta, "smallest_singular_value": sv, "invertible": invertible}
                          for theta, (sv, invertible) in zip(thetas, rotated)]
    report["warnings"] = [] if sum_invertible else ["singular Hermitian partner: P + adjoint(P)"]
    report["warnings"] += [
        f"singular Hermitian partner at theta = {cryptoherm.io.format_float(theta)}"
        for theta, (_, invertible) in zip(thetas, rotated) if not invertible
    ]
    _emit_report(report, None)
    return EXIT_OK


def _attach_option_values(argv: list[str]) -> list[str]:
    """Rewrite "--a -1e-3" as "--a=-1e-3", for every option but --help; refuse "--a=--".

    argparse takes a value that starts with "-" and is not a plain
    negative decimal such as -0.5 for a flag, so "-1e-3", "-1:1:5" or
    "-1.5,0" would otherwise be refused.  Every option of this parser
    except --help, which argparse also reads from any prefix such as
    "--he", takes exactly one value, so the token after any other bare
    option is always its value.  A lone "--" given as a value is refused
    here, because argparse drops it on Python 3.10 to 3.12 (and would pass
    the command an empty list) but keeps it as the value on 3.13.
    """
    out: list[str] = []
    for token in argv:
        option, _, value = token.partition("=")
        if value == "--" and option.startswith("--") and option != "--help":
            raise _UsageError(f"argument {option}: expected a value, got '--'")
        negative = token.startswith("-") and not token.startswith("--")
        prev = out[-1] if out else ""
        # "--help".startswith(prev) holds for "--" and every abbreviation of --help
        bare_option = prev.startswith("--") and not "--help".startswith(prev) and "=" not in prev
        if negative and bare_option:
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


#: parse_args returns a fresh namespace on every call, so one parser serves them all
_PARSER = build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, with each token parsed once.

    When argv[0] names a command, the rest goes straight to that command's
    parser, which is what the subparsers action would call, into a
    namespace that already holds ``command``.  Only an argv that names no
    command (empty, help, an unknown command or an option first) reaches
    ``_PARSER``.
    """
    command = _PARSER.commands.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


# cli never calls eig; the name stays reachable because bench/test_bench.py's
# tracer test checks that cryptoherm.cli.eig is the wrapped linalg.eig
def __getattr__(name: str):
    if name == "eig":
        return cryptoherm.linalg.eig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    try:
        args = _parse(_attach_option_values(sys.argv[1:] if argv is None else list(argv)))
        code = args.func(args)
        # a pipe buffers the output until here, so a closed one shows up inside main
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so the
        # interpreter's own flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except (_UsageError, CryptoHermError) as exc:
        _, code, prefix = next(row for row in _REFUSALS if isinstance(exc, row[0]))
        prefix = f"{type(exc).__name__}: " if prefix is None else prefix
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


def entry() -> NoReturn:
    """The process entry: ``main`` on this process's arguments, then exit with its code.

    The collector is off while ``main`` runs and the heap is frozen once it
    returns (see the module docstring for why).
    """
    gc.disable()
    try:
        code = main()
    finally:
        # also on argparse's SystemExit from --help
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
