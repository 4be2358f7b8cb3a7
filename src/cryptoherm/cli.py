"""Batch front-end.

Four subcommands over JSON matrix files:

* diagnose   - run every applicable symmetry check plus the full metric
               pipeline on one (H, P) pair, report JSON to stdout
* metric     - build Theta/Q/C (optionally kappa-rescaled or involutive)
               and write them as matrix files
* sweep      - CSV scan of the two-level model's reality domain
* hermitize  - singularity scan of the Hermitian partner family of P

Exit codes: 0 ok, 1 usage or I/O problem, 2 a symmetry or factorization
verdict failed, 3 spectrum obstruction (complex, degenerate or
defective; diagnose still prints its report), 4 quasiparity
coefficients not real (no involutive rescaling exists).
Identical inputs and flags produce byte-identical stdout and files.
The argument parser is built once per process, at import; ``main`` only
parses and dispatches.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .biortho import renormalize, solve_biorthogonal
from .errors import (
    CryptoHermError,
    DimensionMismatch,
    MatrixFileError,
    NonRealQuasiparity,
    NotHermitian,
    NotPositiveDefinite,
    SingularMatrix,
    SpectrumObstruction,
    VanishingOverlap,
    ZeroKappa,
)
# cli no longer calls eig; the name stays bound because bench/test_bench.py's
# tracer test checks that the cryptoherm.cli.eig binding is wrapped
from .linalg import Tolerance, eig, frobenius  # noqa: F401
from .metric import build_bundle, involutive_normalization, nonreal_levels
from .models import PseudoMetric, classify_h2, hermitian_rotation, hermitian_sum
from .symmetry import (
    pseudo_hermiticity_residual,
    quasi_hermiticity_residual,
    weak_triplet_check,
)

#: factorization residuals above this fail the report verdict
FACTORIZATION_TOL = 1e-9

#: involution residuals above this fail the involutive-mode verdict
INVOLUTIVITY_TOL = 1e-10

#: spectral gaps below this times ||H||_F draw a proximity warning
GAP_WARN_FACTOR = 1e-6

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


def _verdict_payload(v) -> dict:
    return {
        "name": v.name,
        "residual": float(v.residual),
        "holds": bool(v.holds),
        "tolerance": float(v.tolerance),
        "detail": dict(v.detail) if v.detail is not None else None,
    }


def _spectrum_payload(values, tol: Tolerance, scale: float) -> dict:
    worst = float(np.max(np.abs(values.imag)))
    return {
        "values": io.complex_pairs(values),
        "all_real": bool(worst <= tol.bound(scale)),
        "max_imag": worst,
    }


def _metric_payload(system, bundle) -> dict:
    residuals = {k: float(v) for k, v in bundle.residuals.items()}
    return {
        "kappa": io.complex_pairs(system.kappa),
        "quasiparity_coeffs": io.complex_pairs(bundle.coeffs.q),
        "charge_coeffs": io.complex_pairs(bundle.coeffs.c),
        "theta_min_eigenvalue": float(bundle.theta_eigenvalues[0]),
        "residuals": residuals,
        "factorizations_hold": bool(max(residuals.values()) <= FACTORIZATION_TOL),
    }


def _nonreal_warning(q) -> str | None:
    bad, _ = nonreal_levels(q)
    if bad.size == 0:
        return None
    return (
        "non-real quasiparity at levels "
        + ",".join(str(int(i)) for i in bad)
        + "; no involutive rescaling exists"
    )


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
    pm = PseudoMetric.from_matrix(p, tol)
    scale = frobenius(h)

    report = _report_head("diagnose", tol, hamiltonian=io.matrix_to_payload(h),
                          pseudometric=io.matrix_to_payload(p))
    warnings: list[str] = []

    obstruction = None
    try:
        system = solve_biorthogonal(h, tol)
        values = system.eigenvalues
    except SpectrumObstruction as exc:
        if exc.eigenvalues is None:  # the eigensolver itself failed: no spectrum to report
            raise
        obstruction, values = exc, exc.eigenvalues
        warnings.append(f"spectrum obstruction: {type(exc).__name__}: {exc}")
    report["spectrum"] = _spectrum_payload(values, tol, scale)

    verdicts = [pseudo_hermiticity_residual(h, pm, tol)]
    if not pm.self_adjoint:
        verdicts.append(weak_triplet_check(h, pm, tol))

    metric_block = None
    metric_failed = False
    if obstruction is None:
        gaps = np.diff(system.energies)
        if system.dim > 1 and float(gaps.min()) < GAP_WARN_FACTOR * scale:
            warnings.append(
                "degeneracy proximity: smallest gap "
                f"{io.format_float(float(gaps.min()))}"
            )
        try:
            bundle = build_bundle(system, pm)
        except VanishingOverlap as exc:
            metric_failed = True
            warnings.append(f"metric construction failed: {exc}")
        else:
            metric_block = _metric_payload(system, bundle)
            note = _nonreal_warning(bundle.coeffs.q)
            if note is not None:
                warnings.append(note)
            try:
                verdicts.append(quasi_hermiticity_residual(h, bundle, tol))
            except (NotHermitian, NotPositiveDefinite) as exc:
                metric_failed = True
                warnings.append(f"metric check failed: {type(exc).__name__}: {exc}")

    report["verdicts"] = [_verdict_payload(v) for v in verdicts]
    report["metric"] = metric_block
    report["warnings"] = warnings
    _emit_report(report, args.out_dir)

    if obstruction is not None:
        return EXIT_SPECTRUM
    ok = all(v.holds for v in verdicts)
    if metric_failed or metric_block is None or not metric_block["factorizations_hold"]:
        ok = False
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_metric(args) -> int:
    tol = _tol(args)
    h, p = _load_pair(args)
    pm = PseudoMetric.from_matrix(p, tol)

    kappa_tag: object = None
    system = solve_biorthogonal(h, tol)
    involutive = args.kappa == "involutive"
    warnings: list[str] = []

    if involutive:
        kappa_tag = "involutive"
        _, system = involutive_normalization(system, pm.matrix)
    elif args.kappa is not None:
        kappa = io.load_kappa(args.kappa, system.dim)
        kappa_tag = io.complex_pairs(kappa)
        system = renormalize(system, kappa)

    bundle = build_bundle(system, pm)
    note = _nonreal_warning(bundle.coeffs.q)
    if note is not None:
        warnings.append(note)

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

    report["warnings"] = warnings
    _emit_report(report, None)

    if not report["metric"]["factorizations_hold"]:
        return EXIT_VERDICT
    if involutive and not report["involutive"]["holds"]:
        return EXIT_VERDICT
    return EXIT_OK


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


def _sweep_row(a: float, d: float, re: float, im: float) -> str:
    try:
        domain = classify_h2(a, d, complex(re, im))
    except OverflowError as exc:
        raise _UsageError(
            f"h2 classification overflows at b_re = {io.format_float(re)}, "
            f"b_im = {io.format_float(im)}"
        ) from exc
    # |E_+ - E_-| = sqrt(|disc|) whether the pair is real or conjugate
    gap = float(np.sqrt(abs(domain.discriminant)))
    return (
        f"{io.format_float(re)},{io.format_float(im)},"
        f"{io.format_float(domain.discriminant)},{domain.tag},{io.format_float(gap)}\n"
    )


def cmd_sweep(args) -> int:
    a, d = _finite("--a", args.a), _finite("--d", args.d)
    re_axis = _parse_axis(args.b_re, "--b-re")
    im_axis = _parse_axis(args.b_im, "--b-im")
    # every row is computed before any is written, so a refused point prints nothing
    rows = [_sweep_row(a, d, re, im) for re in re_axis for im in im_axis]
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
