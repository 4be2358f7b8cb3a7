"""cryptoherm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Workloads are defined in
``workloads.py``: ``paper_small``, ``dense_library`` and ``cli_batch``.

One run builds the workload's inputs from ``--seed``, then runs a closed
loop with one client for a fixed number of cycles of op slots, sized so
that the loop lasts about ``--seconds`` at the nominal speed of the
reference routines (``Workload.cycles_for``), checking every op against
the oracle.  A fixed count, not a deadline, so that ``attempted`` and
``failed`` are the same on every run of the same code; only a loop that
overruns ``LOOP_CAP`` times its nominal length (or ``LOOP_CAP_S``) is cut
short, and the details line says so.  Afterwards it reruns a sample of ops and
requires byte-identical output.

``--trace 0`` reports the end-to-end metrics with tracing off.
``ops_per_s`` is ops per second spent inside ops (one client, no think
time; input generation and oracle checks are outside the timed region),
``latency_tail_ms`` is the highest percentile with at least 10 samples
beyond it (taken per window of ops and the median reported, in runs with
thousands of ops), ``cli_<command>_ms`` is the median latency of the ops
standing for that command, ``ok_share`` is 1 - failed/attempted, and
``setup_s`` is the median wall time of fresh processes that only set the
workload up.  Each time is scaled to the nominal speed of a fixed reference
routine timed right before and after it (see ``workloads.INPROCESS_REF_MS``),
because the host's speed drifts by up to 1.7x over minutes; the raw
figures and the scale factors are in the details line.
``--trace 1`` alternates untraced and traced cycles and reports per-layer
metrics per traced op, plus the tracer's own overhead (traced p50 over
untraced p50).  Layers are the package's modules; a function the
package no longer has is listed as absent and reported as 0.

Stdout: a header line, a details line, then the result as the last line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""
from __future__ import annotations

import os

# pinned before numpy loads, and inherited by every child process
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

#: fresh-process set-ups per run; setup_s is their median
SETUP_TRIALS = 5
#: import-only children per traced in-process run for cli.import_ms
IMPORT_TRIALS = 3
#: a loop still running after LOOP_CAP times its nominal length, or after
#: LOOP_CAP_S, stops at the end of its cycle, so that a run on a very slow
#: host still ends
LOOP_CAP = 3.0
LOOP_CAP_S = 120.0

LAYERS = ("cli", "io", "models", "linalg", "biortho", "metric", "symmetry")

#: function-level metrics: (metric name, span name, statistic)
FUNCTION_METRICS = (
    ("linalg.eig.calls", "linalg.eig", "calls"),
    ("linalg.eig.ms", "linalg.eig", "ms"),
    ("linalg.inverse.calls", "linalg.inverse", "calls"),
    ("linalg.inverse.ms", "linalg.inverse", "ms"),
    ("models.PseudoMetric.from_matrix.ms", "models.PseudoMetric.from_matrix", "ms"),
    ("models.classify_h2.calls", "models.classify_h2", "calls"),
    ("biortho.solve_biorthogonal.ms", "biortho.solve_biorthogonal", "ms"),
    ("metric.build_bundle.ms", "metric.build_bundle", "ms"),
    ("metric.reference_quasiparity_coeffs.calls", "metric.reference_quasiparity_coeffs", "calls"),
    ("metric.charge_coeffs.calls", "metric.charge_coeffs", "calls"),
    ("metric.verify_factorizations.ms", "metric.verify_factorizations", "ms"),
    ("metric.involutive_normalization.ms", "metric.involutive_normalization", "ms"),
    ("symmetry.pseudo_hermiticity_residual.ms", "symmetry.pseudo_hermiticity_residual", "ms"),
    ("symmetry.weak_triplet_check.ms", "symmetry.weak_triplet_check", "ms"),
    ("symmetry.quasi_hermiticity_residual.ms", "symmetry.quasi_hermiticity_residual", "ms"),
    ("io.load_matrix.ms", "io.load_matrix", "ms"),
    ("io.fingerprint.ms", "io.fingerprint", "ms"),
    ("io.save_matrix.ms", "io.save_matrix", "ms"),
    ("io.canonical_json.ms", "io.canonical_json", "ms"),
    ("io.canonical_json.bytes", "io.canonical_json", "bytes"),
    ("cli.main.ms", "cli.main", "ms"),
    ("cli.build_parser.ms", "cli.build_parser", "ms"),
)
UNITS = {"ms": "ms", "calls": "count", "bytes": "bytes"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only set the workload up (used to time setup_s in a fresh process)")
    return p.parse_args(argv)


#: runs with at least twice this many samples report their tail per window
#: of at least this many consecutive samples
TAIL_WINDOW = 1000


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 21 samples that percentile would sit below the
    median, so the upper median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def windowed_tail(values: list[float]) -> tuple[float, dict]:
    """Median over windows of consecutive samples of each window's ``tail``.

    Over thousands of samples the 11th-largest latency is set by the
    worst burst of host load in the run; the median over windows is not.
    """
    windows = max(1, len(values) // TAIL_WINDOW)
    size = len(values) // windows
    tails = [tail(values[i * size:(i + 1) * size if i + 1 < windows else None]) for i in range(windows)]
    value = statistics.median(t[0] for t in tails)
    return value, {"windows": windows, "samples_per_window": size,
                   "percentile": statistics.median(t[1] for t in tails), "samples": len(values)}


def header(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "cryptoherm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS, "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def time_setup(args) -> tuple[list[float], list[float]]:
    """Wall times (s) of fresh processes that only set the workload up, each
    followed by the spawn reference (ms) that gauges the host's speed."""
    from workloads import child_env, spawn_reference

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    env = child_env(ROOT)
    times, refs = [], []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        t1 = time.perf_counter()
        spawn_reference(env)
        refs.append((time.perf_counter() - t1) * 1e3)
        times.append(t1 - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-400:]}")
    return times, refs


def time_cli_import(work: Path) -> list[float]:
    """cryptoherm.cli import time (after numpy) in fresh launcher processes."""
    from workloads import child_env

    out = []
    for i in range(IMPORT_TRIALS):
        spans = work / f"import{i}.json"
        subprocess.run([sys.executable, str(BENCH / "launch.py"), str(spans), "--import-only"],
                       cwd=work, env=child_env(ROOT), capture_output=True, timeout=60, check=True)
        out.append(json.loads(spans.read_text())["import_cli_ms"])
    return out


class Recorder:
    """Latencies, outcomes and failure listing of one run."""

    def __init__(self):
        self.latency: list[tuple[int, str, float, bool]] = []  # (op index, kind, ms, traced)
        #: reference routine name -> [(index of the op timed before it, ms)]
        self.refs: dict[str, list[tuple[int, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, dict] = {}

    def add(self, op, ms: float, traced: bool, outcome) -> None:
        self.attempted += 1
        self.latency.append((op.index, op.kind, ms, traced))
        if outcome.status != "ok":
            self.note(op, outcome)

    def note(self, op, outcome, counted: bool = False) -> None:
        """List a failed op; ``counted`` when it is already among the failed ones."""
        self.failed += not counted
        self.wrong += outcome.status == "wrong"
        entry = self.failures.setdefault(op.label, {"status": outcome.status, "count": 0,
                                                    "reason": outcome.reason, "ops": []})
        entry["count"] += 1
        if len(entry["ops"]) < 8:
            entry["ops"].append(op.index)

    def ms(self, traced: bool | None = None, kind: str | None = None) -> list[float]:
        return [m for _, k, m, t in self.latency
                if (traced is None or t == traced) and (kind is None or k == kind)]

    def slowdowns(self, nominal_ms: dict[str, float]) -> list[float]:
        """Per recorded op, the host's slowdown around it: the mean time of
        the reference routine just before and just after the op, over its
        nominal time.  The routine is the one named after the op's kind, or
        ``main``."""
        positions = {name: [p for p, _ in refs] for name, refs in self.refs.items()}
        out = []
        for index, kind, *_ in self.latency:
            name = kind if kind in self.refs else "main"
            refs = self.refs[name]
            k = bisect.bisect_left(positions[name], index)  # first reference timed after this op
            near = [refs[i][1] for i in (k - 1, k) if 0 <= i < len(refs)]
            out.append(statistics.fmean(near) / nominal_ms[name])
        return out


def run_loop(workload, seconds: float, trace: bool, rec: Recorder):
    """The closed loop; returns (sampled ops with digests, per-layer totals,
    traced op count, whether the loop was cut short).

    Untraced runs also time the workload's reference routines after every
    ``ref_every``-th op into ``rec.refs``.
    """
    from tracer import Totals, Tracer
    from workloads import failed

    tracer = Tracer() if trace else None
    references = workload.references()
    totals = Totals()
    traced_ops = 0
    sampled = []
    seen_slots: set[str] = set()
    index = 0
    target = workload.cycles_for(seconds)
    if trace:  # every slot traced at least once
        target = max(target, 2)
    nominal_s = target * len(workload.cycle) / workload.nominal_ops_per_s
    cap = time.perf_counter() + min(LOOP_CAP * nominal_s, LOOP_CAP_S)
    for n_cycles in range(target):
        if n_cycles and time.perf_counter() >= cap:
            return sampled, totals, traced_ops, True
        for position in range(len(workload.cycle)):
            # every slot is traced in one cycle and untraced in the next
            traced = trace and (position + n_cycles) % 2 == 1
            op = workload.make_op(index)
            if traced and workload.in_process:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = workload.run(op, traced)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                result = exc
            t1 = time.perf_counter()
            if traced and workload.in_process:
                tracer.uninstall()
            if traced:
                if workload.in_process:
                    totals.add(tracer.drain())
                else:
                    totals.merge(workload.child_totals(op))
                traced_ops += 1
            if isinstance(result, Exception):
                outcome = failed(f"raised {type(result).__name__}: {result}"[:200])
            else:
                outcome = workload.check(op, result)
            rec.add(op, (t1 - t0) * 1e3, traced, outcome)
            first_of_slot = op.slot not in seen_slots
            seen_slots.add(op.slot)
            if not isinstance(result, Exception) and (first_of_slot or (
                    index % workload.rerun_every == 0 and len(sampled) < workload.rerun_cap)):
                sampled.append((op, outcome, workload.fingerprint(op, result)))
            else:
                workload.release(op)
            if not trace and index % workload.ref_every == 0:
                for name, (routine, _) in references.items():
                    t0 = time.perf_counter()
                    routine()
                    rec.refs.setdefault(name, []).append((index, (time.perf_counter() - t0) * 1e3))
            index += 1
    return sampled, totals, traced_ops, False


def rerun(workload, sampled, rec: Recorder) -> int:
    """Run sampled ops again; a different output is a wrong op."""
    from workloads import wrong

    mismatches = 0
    for op, outcome, first in sampled:
        try:
            again = workload.fingerprint(op, workload.run(op))
        except Exception as exc:
            again = f"raised {type(exc).__name__}"
        if again != first:
            mismatches += 1
            rec.note(op, wrong("rerun output differs from the first run"), counted=outcome.status != "ok")
        workload.release(op)
    return mismatches


def _time_metrics(ops: list[tuple[str, float]], setup_s: list[float]) -> tuple[dict, dict]:
    """Time metrics of (kind, ms) ops and set-up times; and the tail's details."""
    all_ms = [ms for _, ms in ops]
    tail_ms, tail_info = windowed_tail(all_ms)

    def per_kind(kind: str) -> float:
        values = [ms for k, ms in ops if k == kind]
        return statistics.median(values) if values else float("nan")

    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": 1e3 * len(all_ms) / sum(all_ms),
        "latency_p50_ms": statistics.median(all_ms),
        "latency_tail_ms": tail_ms,
        "cli_diagnose_ms": per_kind("diagnose"),
        "cli_metric_ms": per_kind("metric"),
        "cli_sweep_ms": per_kind("sweep"),
    }, tail_info


def end_to_end(rec: Recorder, references: dict, setup: tuple[list[float], list[float]],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics, times scaled to the reference routines' nominal speed.

    Each op's time is divided by the slowdown of the reference routine
    timed next to it (``Recorder.slowdowns``), and each set-up time by
    that of the spawn reference timed after it; the metrics are taken
    over the scaled times.  The raw metrics and the slowdowns are in the
    returned details.
    """
    from workloads import SPAWN_REF_MS

    slow = rec.slowdowns({name: nominal for name, (_, nominal) in references.items()})
    setup_slow = [ms / SPAWN_REF_MS for ms in setup[1]]
    raw, _ = _time_metrics([(k, ms) for _, k, ms, _ in rec.latency], setup[0])
    scaled, tail_info = _time_metrics([(k, ms / f) for (_, k, ms, _), f in zip(rec.latency, slow)],
                                      [t / f for t, f in zip(setup[0], setup_slow)])
    units = {"setup_s": "s", "ops_per_s": "1/s"}
    metrics = {name: (value, units.get(name, "ms")) for name, value in scaled.items()}
    metrics["ok_share"] = ((rec.attempted - rec.failed) / rec.attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    detail = {"latency_tail": tail_info, "failed_share": rec.failed / rec.attempted, "raw": raw,
              "slowdown": {"ops_median": statistics.median(slow), "ops_min": min(slow),
                           "ops_max": max(slow), "setup_median": statistics.median(setup_slow)},
              "references": {name: len(refs) for name, refs in rec.refs.items()}}
    return metrics, detail


def per_layer(totals, names: set[str], traced_ops: int, rec: Recorder, import_ms: list[float]):
    n = max(traced_ops, 1)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (totals.layer_self_ms.get(layer, 0.0) / n, "ms")
        metrics[f"{layer}.calls"] = (totals.layer_calls.get(layer, 0) / n, "count")
        metrics[f"{layer}.raised"] = (totals.layer_raised.get(layer, 0) / n, "count")
    table = {"ms": totals.func_ms, "calls": totals.func_calls, "bytes": totals.func_bytes}
    absent = []
    for metric, span, stat in FUNCTION_METRICS:
        if span not in names:
            absent.append(metric)
        metrics[metric] = (table[stat].get(span, 0) / n, UNITS[stat])
    eig_calls = totals.func_calls.get("linalg.eig", 0)
    solves = totals.func_calls.get("biortho.solve_biorthogonal", 0)
    ratio = 0.0
    if eig_calls and solves:
        ratio = (totals.func_ms["biortho.solve_biorthogonal"] / solves) / (totals.func_ms["linalg.eig"] / eig_calls)
    metrics["biortho.solve_over_eig"] = (ratio, "ratio")
    metrics["cli.import_ms"] = (statistics.median(import_ms) if import_ms else 0.0, "ms")
    plain, traced = rec.ms(traced=False), rec.ms(traced=True)
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0) if plain and traced else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cryptoherm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cryptoherm'}; run from a cryptoherm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        workload.setup()
        import cryptoherm

        if not Path(cryptoherm.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: cryptoherm imported from {cryptoherm.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.setup_only:
            return 0
        head = header(args)
        print(json.dumps({"header": head}), flush=True)

        rec = Recorder()
        t0 = time.perf_counter()
        sampled, totals, traced_ops, cut_short = run_loop(workload, args.seconds, bool(args.trace), rec)
        loop_s = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN)
        peak_rss_mb = peak.ru_maxrss / 1024.0
        mismatches = rerun(workload, sampled, rec)

        if args.trace:
            import importlib
            import pkgutil

            from tracer import Tracer

            for module in pkgutil.iter_modules(cryptoherm.__path__):
                importlib.import_module(f"cryptoherm.{module.name}")
            with Tracer() as probe:  # which functions the package has today
                pass
            import_ms = getattr(workload, "import_ms", None) or time_cli_import(work)
            metrics, absent = per_layer(totals, probe.names, traced_ops, rec, import_ms)
            detail = {"traced_ops": traced_ops, "absent": absent}
        else:
            metrics, detail = end_to_end(rec, workload.references(), time_setup(args), peak_rss_mb)
        detail.update(loop_s=loop_s, cut_short=cut_short, reruns=len(sampled), rerun_mismatches=mismatches,
                      ops_by_kind={k: len(rec.ms(kind=k)) for k in sorted({k for _, k, _, _ in rec.latency})},
                      failures=rec.failures)
        print(json.dumps({"details": detail}), flush=True)
        result = {
            "correct": rec.wrong == 0,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
