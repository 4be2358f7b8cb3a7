"""Batch front-end.

Four subcommands over JSON matrix files:

* diagnose   - render ``cryptoherm.diagnose`` of one (H, P) pair (every
               applicable symmetry check plus the full metric pipeline)
               as a JSON report on stdout
* metric     - build Theta/Q/C (optionally kappa-rescaled or involutive)
               and write them as matrix files
* sweep      - CSV scan of the two-level model's reality domain, one
               row per point of ``models.sweep_h2``; each axis value
               is formatted once
* hermitize  - singularity scan of the Hermitian partner family of P

Exit codes: 0 ok, 1 usage or I/O problem, 2 a symmetry or factorization
verdict failed, 3 spectrum obstruction (complex, degenerate or
defective; diagnose still prints its report), 4 quasiparity
coefficients not real (no involutive rescaling exists).
Identical inputs and flags produce byte-identical stdout and files.
The argument parser is built once per process, at import; ``main`` only
parses and dispatches.  The commands load, call the library and render:
what a diagnosis finds and whether it holds is decided in
``symmetry.diagnose``; only the exit codes, the CLI's contract, live here.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io
from .biortho import renormalize, solve_biorthogonal
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
# cli no longer calls eig; the name stays bound because bench/test_bench.py's
# tracer test checks that the cryptoherm.cli.eig binding is wrapped
from .linalg import Tolerance, eig, frobenius  # noqa: F401
from .metric import build_bundle, involutive_normalization, nonreal_warnings
from .models import PseudoMetric, hermitian_rotation, hermitian_sum, sweep_h2
from .symmetry import diagnose

#: involution residuals above this fail the involutive-mode verdict
INVOLUTIVITY_TOL = 1e-10

#: number of scan points when --theta scan is given without a count
DEFAULT_SCAN_POINTS = 64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2
EXIT_SPECTRUM = 3
EXIT_NONREAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract wants 1,
    # so usage failures are turned into exceptions handled in main()
    def error(self, message):
        raise _UsageError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-rel", type=float, default=1e-10, metavar="X",
                   help="relative tolerance for verdicts (default 1e-10)")
    p.add_argument("--tol-abs", type=float, default=1e-12, metavar="X",
                   help="absolute tolerance for verdicts (default 1e-12)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cryptoherm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    d = sub.add_parser("diagnose", help="full symmetry/metric diagnostic of (H, P)")
    d.add_argument("hamiltonian", help="matrix file for H")
    d.add_argument("pseudometric", help="matrix file for the candidate P")
    d.add_argument("--out-dir", default=None, metavar="DIR",
                   help="also write report.json into DIR")
    _add_common_flags(d)
    d.set_defaults(func=cmd_diagnose)

    m = sub.add_parser("metric", help="build Theta, Q, C and write them as files")
    m.add_argument("hamiltonian", help="matrix file for H")
    m.add_argument("pseudometric", help="matrix file for the candidate P")
    m.add_argument("--kappa", default=None, metavar="PATH|involutive",
                   help="kappa file to apply, or 'involutive' to solve for it")
    m.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for theta.json/q.json/c.json (default .)")
    _add_common_flags(m)
    m.set_defaults(func=cmd_metric)

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
    _add_common_flags(h)
    h.set_defaults(func=cmd_hermitize)

    return parser


def _tol(args) -> Tolerance:
    try:
        return Tolerance(rel=args.tol_rel, abs=args.tol_abs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_pair(args):
    h = io.load_matrix(args.hamiltonian)
    p = io.load_matrix(args.pseudometric)
    if h.shape != p.shape:
        raise MatrixFileError(
            f"dimension mismatch: H is {h.shape[0]}x{h.shape[0]}, "
            f"P is {p.shape[0]}x{p.shape[0]}"
        )
    return h, p


def _metric_payload(system, bundle) -> dict:
    return {
        "kappa": io.complex_pairs(system.kappa),
        "quasiparity_coeffs": io.complex_pairs(bundle.coeffs.q),
        "charge_coeffs": io.complex_pairs(bundle.coeffs.c),
        "theta_min_eigenvalue": float(bundle.theta_eigenvalues[0]),
        "residuals": {k: float(v) for k, v in bundle.residuals.items()},
        "factorizations_hold": bundle.factorizations_hold,
    }


def _report_head(command: str, tol: Tolerance, **operands) -> dict:
    """The fields every JSON report opens with; ``operands`` are fingerprinted in order."""
    return {
        "schema": 1,
        "command": command,
        "model_fingerprint": io.fingerprint(operands),
        "tolerance": {"rel": tol.rel, "abs": tol.abs},
    }


def _emit_report(report: dict, out_dir: str | None) -> None:
    text = io.canonical_json(report)
    print(text)
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "report.json").write_text(text + "\n", encoding="utf-8")


def cmd_diagnose(args) -> int:
    tol = _tol(args)
    h, p = _load_pair(args)
    found = diagnose(h, p, tol)

    report = _report_head("diagnose", tol, hamiltonian=io.matrix_to_payload(h),
                          pseudometric=io.matrix_to_payload(p))
    report["spectrum"] = {
        "values": io.complex_pairs(found.eigenvalues),
        "all_real": found.all_real,
        "max_imag": float(np.max(np.abs(found.eigenvalues.imag))),
    }
    report["verdicts"] = [asdict(v) for v in found.verdicts]
    report["metric"] = None if found.bundle is None else _metric_payload(found.system, found.bundle)
    report["warnings"] = found.warnings
    _emit_report(report, args.out_dir)

    if found.obstruction is not None:
        return EXIT_SPECTRUM
    return EXIT_OK if found.holds else EXIT_VERDICT


def cmd_metric(args) -> int:
    tol = _tol(args)
    h, p = _load_pair(args)
    pm = PseudoMetric.from_matrix(p, tol)
    # refused before anything is written, as diagnose refuses it
    pm.check_condition()

    system = solve_biorthogonal(h, tol)
    involutive = args.kappa == "involutive"
    kappa_tag = args.kappa  # None or "involutive"; a kappa file is reported by its pairs

    if involutive:
        _, system = involutive_normalization(system, pm)
    elif args.kappa is not None:
        kappa = io.load_kappa(args.kappa, system.dim)
        kappa_tag = io.complex_pairs(kappa)
        system = renormalize(system, kappa)

    bundle = build_bundle(system, pm)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.save_matrix(out_dir / "theta.json", bundle.theta)
    io.save_matrix(out_dir / "q.json", bundle.quasiparity)
    io.save_matrix(out_dir / "c.json", bundle.charge)

    report = _report_head("metric", tol, hamiltonian=io.matrix_to_payload(h),
                          pseudometric=io.matrix_to_payload(p), kappa=kappa_tag)
    report["metric"] = _metric_payload(system, bundle)
    report["files"] = ["theta.json", "q.json", "c.json"]

    if involutive:
        n = system.dim
        q2 = frobenius(bundle.quasiparity @ bundle.quasiparity - np.eye(n))
        c2 = frobenius(bundle.charge @ bundle.charge - np.eye(n))
        report["involutive"] = {
            "applied": True,
            "kappa": io.complex_pairs(system.kappa),
            "q_squared_residual": float(q2),
            "c_squared_residual": float(c2),
            "holds": bool(max(q2, c2) <= INVOLUTIVITY_TOL),
        }
    else:
        report["involutive"] = {"applied": False}

    report["warnings"] = nonreal_warnings(bundle.coeffs.q)
    _emit_report(report, None)

    holds = bundle.factorizations_hold and (not involutive or report["involutive"]["holds"])
    return EXIT_OK if holds else EXIT_VERDICT


def _finite(name: str, values):
    """``values`` unchanged, or a usage error when any is NaN or infinite."""
    if not np.all(np.isfinite(values)):
        raise _UsageError(f"{name}: values must be finite")
    return values


def _parse_axis(expr: str, name: str) -> np.ndarray:
    parts = expr.split(":")
    try:
        if len(parts) == 1:
            return _finite(name, np.array([float(parts[0])]))
        if len(parts) == 3:
            lo, hi = float(parts[0]), float(parts[1])
            steps = int(parts[2])
            if steps < 2:
                raise _UsageError(f"{name}: steps must be >= 2, got {steps}")
            # a non-finite end, or MAX - MIN beyond float64, shows up as NaN/inf points
            with np.errstate(over="ignore", invalid="ignore"):
                return _finite(name, np.linspace(lo, hi, steps))
    except ValueError as exc:
        raise _UsageError(f"{name}: cannot parse {expr!r} ({exc})") from exc
    raise _UsageError(f"{name}: expected V or MIN:MAX:STEPS, got {expr!r}")


def cmd_sweep(args) -> int:
    a, d = _finite("--a", args.a), _finite("--d", args.d)
    re_axis = _parse_axis(args.b_re, "--b-re")
    im_axis = _parse_axis(args.b_im, "--b-im")
    res = [io.format_float(x) for x in re_axis]
    ims = [io.format_float(x) for x in im_axis]
    points = sweep_h2(a, d, re_axis, im_axis)
    # every row is computed before any is written, so a refused point prints nothing
    rows = []
    for re in res:
        for im in ims:
            try:
                disc, tag = next(points)
            except OverflowError as exc:
                raise _UsageError(f"h2 classification overflows at b_re = {re}, b_im = {im}") from exc
            # |E_+ - E_-| = sqrt(|disc|) whether the pair is real or conjugate
            gap = math.sqrt(abs(disc))
            rows.append(f"{re},{im},{format(disc, '.17g')},{tag},{format(gap, '.17g')}\n")
    sys.stdout.write("b_re,b_im,discriminant,class,min_gap\n")
    sys.stdout.writelines(rows)
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
    return [2.0 * np.pi * k / count for k in range(count)]


def cmd_hermitize(args) -> int:
    tol = _tol(args)
    p = io.load_matrix(args.pseudometric)
    thetas = _parse_theta(args.theta)
    warnings: list[str] = []

    summed = hermitian_sum(p, tol)
    if not summed.invertible:
        warnings.append("singular Hermitian partner: P + adjoint(P)")

    rotations = []
    for theta in thetas:
        rotated = hermitian_rotation(p, theta, tol)
        if not rotated.invertible:
            warnings.append(
                f"singular Hermitian partner at theta = {io.format_float(theta)}"
            )
        rotations.append(
            {
                "theta": float(theta),
                "smallest_singular_value": rotated.smallest_singular_value,
                "invertible": rotated.invertible,
            }
        )

    report = _report_head("hermitize", tol, pseudometric=io.matrix_to_payload(p))
    report["sum"] = {
        "smallest_singular_value": summed.smallest_singular_value,
        "invertible": summed.invertible,
        "self_adjoint": summed.self_adjoint,
    }
    report["rotation"] = rotations
    report["warnings"] = warnings
    _emit_report(report, None)
    return EXIT_OK


def _attach_option_values(argv: list[str]) -> list[str]:
    """Rewrite "--a -1e-3" as "--a=-1e-3", for every option but --help.

    argparse takes a value that starts with "-" and is not a plain
    negative decimal such as -0.5 for a flag, so "-1e-3", "-1:1:5" or
    "-1.5,0" would otherwise be refused.  Every option of this parser
    except --help takes exactly one value, so the token after a bare
    option is always its value.
    """
    out: list[str] = []
    for token in argv:
        negative = token.startswith("-") and not token.startswith("--")
        prev = out[-1] if out else ""
        bare_option = prev.startswith("--") and prev not in ("--", "--help") and "=" not in prev
        if negative and bare_option:
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


#: parse_args returns a fresh namespace on every call, so one parser serves them all
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = _attach_option_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except (_UsageError, MatrixFileError, DimensionMismatch, ZeroKappa) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularMatrix as exc:
        print(f"error: pseudometric not invertible: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonRealQuasiparity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONREAL
    except SpectrumObstruction as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SPECTRUM
    except VanishingOverlap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except CryptoHermError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    raise SystemExit(main())
