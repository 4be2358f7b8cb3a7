"""The benchmark's three workloads, their seeded inputs and their oracle.

Every workload is a closed loop with one client: the next op starts
when the previous one has returned.  Ops follow a fixed cycle of slots,
so the mix of op kinds (and therefore the share of ops that exercise a
given path) does not depend on the seed; the seed and the op index
choose the numbers inside each op, and no op's input repeats.  A run
makes a fixed number of whole blocks of cycles, sized from ``--seconds``
and the workload's nominal rate, so the ops a run attempts, and which
of them fail, are the same on every run of the same code.

* ``paper_small`` calls ``cryptoherm.cli.main`` in-process on the
  paper's 2x2 and 3x3 models, from matrix files written ahead of the op.
* ``dense_library`` calls the library directly at N = 256: no files,
  no CLI.
* ``cli_batch`` runs ``python3 -m cryptoherm.cli`` as one child process
  per op.

The oracle does not trust the package's verdicts.  It knows each
input's construction (the h2 discriminant computed exactly, the levels
of H = S D S^-1) and checks the outputs against it.  An op *fails* when
it delivers no result: no parseable report or CSV, an exit code with no
output, an unexpected exception.  An op is *wrong* when it delivers a
result that contradicts the oracle.  Both count as failed ops; only
wrong ones make the run incorrect.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

#: factorization residuals the package reports must not exceed this
FACTORIZATION_TOL = 1e-9
#: |disc| <= this * (|a| + |d| + |b|)^2 is the band around the exceptional
#: point inside which the exit code is not checked against the sign
EP_BAND = 1e-6
#: the near-exceptional slice visits disc = +-10^-k for these k
NEAR_EP_EXPONENTS = tuple(range(2, 15))
#: timeout of one child process in cli_batch
CHILD_TIMEOUT_S = 120.0

#: Reference routines and their nominal times.  The host this benchmark
#: was written on (2-core Xeon VM, OpenBLAS 0.3.31 on 1 thread) shares its
#: cores: for minutes at a time everything runs up to 1.7x slower.  Each
#: run therefore times a fixed routine that does not touch the package
#: between ops, and scales each op's time to the speed at which the
#: routine timed next to it takes its nominal time (measured there).  Each
#: workload's routine mixes the kinds of work its ops do, since load slows
#: them unequally.
INPROCESS_REF_MS = 2.5
DENSE_REF_MS = 24.0
SCALAR_REF_MS = 5.6  # timed beside dense_reference at its nominal 24 ms
SPAWN_REF_MS = 250.0
_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((48, 48))
_REF_DENSE = _REF_RNG.standard_normal((96, 96)) + 1j * _REF_RNG.standard_normal((96, 96))
_REF_COLUMNS = _REF_RNG.standard_normal((256, 32)) + 1j * _REF_RNG.standard_normal((256, 32))
_SPAWN_REF_CODE = "import numpy\nt = 0\nfor i in range(500000):\n    t += i * i\n"


def inprocess_reference() -> None:
    """Interpreter loop plus a small LAPACK call."""
    total = 0
    for i in range(20000):
        total += i * i
    np.linalg.eigvals(_REF_SMALL)


def dense_reference() -> None:
    """A mid-size LAPACK call plus a loop of rank-one updates at N = 256."""
    np.linalg.eigvals(_REF_DENSE)
    acc = np.zeros((256, 256), dtype=np.complex128)
    for k in range(_REF_COLUMNS.shape[1]):
        acc += np.outer(_REF_COLUMNS[:, k], _REF_COLUMNS[:, k].conj())


@dataclass(frozen=True)
class _Point:
    tag: str
    value: float


def scalar_reference() -> None:
    """Scalar arithmetic, numpy calls on Python floats and small frozen
    dataclasses: the instruction mix of a parameter sweep, which load slows
    more than it slows a plain interpreter loop."""
    points = []
    for i in range(1500):
        z = complex(i * 1e-3, 0.5)
        if np.isfinite(z.real) and np.isfinite(z.imag):
            value = (z.real - 0.25) ** 2 - 4.0 * abs(z) ** 2
            points.append(_Point("interior" if value > 0 else "exterior", value))


def spawn_reference(env: dict) -> None:
    """A child interpreter that imports numpy and runs a short loop."""
    subprocess.run([sys.executable, "-c", _SPAWN_REF_CODE], env=env, check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)


@dataclass
class Op:
    index: int
    slot: str  # cycle slot, e.g. "diagnose_h2_near_ep"
    kind: str  # command it stands for: diagnose | metric | sweep | sweep_readme
    label: str  # failure-listing category, e.g. "diagnose_h2_near_ep(disc=+1e-07)"
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str  # ok | failed | wrong
    reason: str = ""


OK = Outcome("ok")


def failed(reason: str) -> Outcome:
    return Outcome("failed", reason)


def wrong(reason: str) -> Outcome:
    return Outcome("wrong", reason)


# -- input construction -------------------------------------------------------


def np_rng(*key) -> np.random.Generator:
    """Generator seeded by any tuple of ints and strings (negative ints too)."""
    return np.random.default_rng(int.from_bytes(hashlib.sha256(repr(key).encode()).digest()[:8], "little"))


def write_matrix(path: Path, m) -> None:
    """MatrixFile JSON written with the standard library, not the package."""
    a = np.asarray(m, dtype=np.complex128)
    data = [[float(z.real), float(z.imag)] for z in a.ravel()]
    path.write_text(json.dumps({"dim": int(a.shape[0]), "data": data}), encoding="utf-8")


def read_matrix(path: Path) -> np.ndarray:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    n = obj["dim"]
    flat = np.array(obj["data"], dtype=np.float64)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n)


def h2_matrix(a: float, d: float, b: complex) -> np.ndarray:
    return np.array([[a, b], [-b.conjugate(), d]], dtype=np.complex128)


def h2_disc_exact(a: float, d: float, b: complex) -> Fraction:
    """(a - d)^2 - 4|b|^2 evaluated exactly on the stored doubles."""
    return (Fraction(a) - Fraction(d)) ** 2 - 4 * (Fraction(b.real) ** 2 + Fraction(b.imag) ** 2)


def h2_case(rng: random.Random, region: str, disc_target: float = 0.0) -> dict:
    """Parameters of a two-level model in the given region of its domain."""
    d = rng.uniform(-0.5, 0.5)
    gap = rng.uniform(0.8, 1.6)
    a = d + gap
    if region == "interior":
        disc_target = gap * gap * rng.uniform(0.1, 0.9)
    elif region == "exterior":
        disc_target = -gap * gap * rng.uniform(0.1, 2.0)
    b = math.sqrt((gap * gap - disc_target) / 4.0) * complex(
        math.cos(phi := rng.uniform(0.0, 2.0 * math.pi)), math.sin(phi))
    disc = h2_disc_exact(a, d, b)
    scale = abs(a) + abs(d) + abs(b)
    return {"a": a, "d": d, "b": b, "disc": disc,
            "in_band": abs(disc) <= Fraction(EP_BAND * scale * scale)}


def h2_spectrum(a: float, d: float, disc: Fraction) -> list[complex]:
    root = math.sqrt(abs(float(disc)))
    mid = 0.5 * (a + d)
    if disc >= 0:
        return [complex(mid - 0.5 * root, 0.0), complex(mid + 0.5 * root, 0.0)]
    return [complex(mid, -0.5 * root), complex(mid, 0.5 * root)]


def h3_case(rng: random.Random) -> dict:
    """Cyclic three-level model with levels a + 2|b| cos(phi + 2 pi k / 3)."""
    while True:
        a = rng.uniform(-1.0, 1.0)
        radius = rng.uniform(0.3, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        levels = sorted(a + 2.0 * radius * math.cos(phi + 2.0 * math.pi * k / 3.0)
                        for k in range(3))
        if min(levels[1] - levels[0], levels[2] - levels[1]) >= 0.2 * radius:
            b = radius * complex(math.cos(phi), math.sin(phi))
            return {"a": a, "b": b, "levels": levels}


def h3_matrix(a: float, b: complex) -> np.ndarray:
    bb = b.conjugate()
    return np.array([[a, b, bb], [bb, a, b], [b, bb, a]], dtype=np.complex128)


def cyclic3() -> np.ndarray:
    p = np.zeros((3, 3), dtype=np.complex128)
    p[0, 2] = p[1, 0] = p[2, 1] = 1.0
    return p


def dense_case(rng: np.random.Generator, n: int, self_adjoint_p: bool) -> dict:
    """H = S D S^-1 with real levels spaced >= 0.4 and P = S^-dag diag(u) S^-1.

    P intertwines H with its adjoint for any unimodular u.  With u = +-1
    (both signs present) P is self-adjoint and indefinite; with non-real u
    it is not self-adjoint, so the weak-triplet check applies.
    """
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    s = np.eye(n) + (0.3 / math.sqrt(n)) * g
    levels = np.cumsum(0.4 + rng.exponential(0.3, n))
    levels -= levels.mean()
    s_inv = np.linalg.inv(s)
    h = (s * levels[None, :]) @ s_inv
    if self_adjoint_p:
        u = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(np.complex128)
        rng.shuffle(u)
    else:
        angle = rng.uniform(0.3, math.pi - 0.3, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
        u = np.exp(1j * angle)
    p = (s_inv.conj().T * u[None, :]) @ s_inv
    return {"h": h, "p": p, "levels": np.sort(levels)}


# -- oracle checks ------------------------------------------------------------


def _spectrum_error(values, expected, scale: float, gap: float) -> str | None:
    got = [complex(re, im) for re, im in values]
    if len(got) != len(expected):
        return f"spectrum has {len(got)} values, expected {len(expected)}"
    # eigenvalues of a nearly defective pair are only good to ~eps ||H||^2 / gap
    tol = 1e-10 * scale + 1e-13 * scale * scale / max(gap, 1e-8)
    # pair each expected value with the nearest unused reported one: a
    # conjugate pair's order depends on rounding of the equal real parts
    worst = 0.0
    for e in expected:
        k = min(range(len(got)), key=lambda i: abs(got[i] - e))
        worst = max(worst, abs(got.pop(k) - e))
    if worst > tol:
        return f"spectrum off by {worst:.3e} (tolerance {tol:.1e})"
    return None


def _metric_block_error(report: dict) -> str | None:
    block = report.get("metric")
    if block is None:
        return "exit 0 without a metric block"
    worst = max(block["residuals"].values())
    if not block["factorizations_hold"] or worst > FACTORIZATION_TOL:
        return f"exit 0 but factorization residual {worst:.3e}"
    if not block["theta_min_eigenvalue"] > 0.0:
        return f"exit 0 but theta_min_eigenvalue {block['theta_min_eigenvalue']!r}"
    return None


def _parse_report(out: str):
    try:
        report = json.loads(out)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _no_result(code: int, err: str, what: str = "report") -> Outcome:
    first = err.strip().splitlines()[0][:160] if err.strip() else ""
    return failed(f"no {what} (exit {code}: {first})")


def check_diagnose(code: int, out: str, err: str, expected_values, scale: float,
                   gap: float, expect_exit, in_band: bool = False) -> Outcome:
    """A diagnose report against the oracle; ``expect_exit`` is ignored in band."""
    report = _parse_report(out)
    if report is None or "spectrum" not in report or "verdicts" not in report:
        return _no_result(code, err)
    problem = _spectrum_error(report["spectrum"]["values"], expected_values, scale, gap)
    if problem:
        return wrong(problem)
    if in_band:
        if code not in (0, 2, 3):
            return wrong(f"exit {code} near the exceptional point")
    elif code != expect_exit:
        return wrong(f"exit {code}, expected {expect_exit}")
    if code == 0:
        if not all(v["holds"] for v in report["verdicts"]):
            return wrong("exit 0 with a failing verdict")
        problem = _metric_block_error(report)
        if problem:
            return wrong(problem)
    return OK


def check_involutive_files(out_dir: Path, n: int) -> str | None:
    """theta.json must be positive definite and q.json an involution."""
    try:
        theta = read_matrix(out_dir / "theta.json")
        q = read_matrix(out_dir / "q.json")
        read_matrix(out_dir / "c.json")
    except (OSError, ValueError, KeyError) as exc:
        return f"metric files unreadable: {exc}"
    if theta.shape != (n, n) or q.shape != (n, n):
        return f"metric files have shape {theta.shape}, expected {(n, n)}"
    try:
        np.linalg.cholesky(0.5 * (theta + theta.conj().T))
    except np.linalg.LinAlgError:
        return "theta.json is not positive definite"
    resid = float(np.linalg.norm(q @ q - np.eye(n)))
    if resid > 1e-8 * n:
        return f"q.json is not an involution (||Q^2 - I|| = {resid:.3e})"
    return None


def check_metric_involutive(code: int, out: str, err: str, out_dir: Path, n: int) -> Outcome:
    report = _parse_report(out)
    if report is None or "metric" not in report:
        return _no_result(code, err)
    if code != 0:
        return wrong(f"exit {code}, expected 0")
    problem = _metric_block_error(report)
    if problem:
        return wrong(problem)
    if not report.get("involutive", {}).get("holds"):
        return wrong("involutive normalization reported as failing")
    problem = check_involutive_files(out_dir, n)
    return wrong(problem) if problem else OK


def check_metric_reject(code: int, out: str, err: str) -> Outcome:
    if code != 4:
        return wrong(f"exit {code}, expected the exit-4 reject") if out else _no_result(code, err, "reject")
    if "not real" not in err:
        return wrong("exit 4 without naming the non-real quasiparity")
    return OK


def check_sweep_csv(code: int, out: str, err: str, a: float, d: float, steps: int) -> Outcome:
    lines = out.splitlines()
    if code != 0 or not lines:
        return _no_result(code, err, "CSV")
    if lines[0] != "b_re,b_im,discriminant,class,min_gap":
        return wrong(f"unexpected CSV header {lines[0][:80]!r}")
    if len(lines) != steps * steps + 1:
        return wrong(f"{len(lines) - 1} CSV rows, expected {steps * steps}")
    for row in lines[1:]:
        problem = _sweep_row_error(row, a, d)
        if problem:
            return wrong(problem)
    return OK


def _sweep_row_error(row: str, a: float, d: float) -> str | None:
    try:
        re_s, im_s, disc_s, tag, gap_s = row.split(",")
        re, im, disc, gap = float(re_s), float(im_s), float(disc_s), float(gap_s)
    except ValueError:
        return f"malformed CSV row {row!r}"
    if not (-1.0 <= re <= 1.0 and -1.0 <= im <= 1.0):
        return f"grid point outside [-1, 1]^2: {row!r}"
    if abs(gap - math.sqrt(abs(disc))) > 1e-9 * (abs(a) + abs(d) + math.hypot(re, im)):
        return f"min_gap {gap!r} != sqrt|disc| at {row!r}"
    return _h2_point_error(a, d, re, im, disc, tag)


def _h2_point_error(a: float, d: float, re: float, im: float, disc: float, tag: str) -> str | None:
    """A reported discriminant and class of h2(a, d, re + i im) against the formula."""
    scale = abs(a) + abs(d) + math.hypot(re, im)
    exact = (a - d) ** 2 - 4.0 * (re * re + im * im)
    if abs(disc - exact) > 1e-12 * scale * scale:
        return f"discriminant {disc!r} != {exact!r} at b = {re!r}{im:+}j"
    if abs(exact) > EP_BAND * scale * scale:
        expected = "interior" if exact > 0 else "exterior"
        if tag != expected:
            return f"class {tag!r}, expected {expected!r} at b = {re!r}{im:+}j"
    elif tag not in ("interior", "exterior", "boundary"):
        return f"unknown class {tag!r}"
    return None


def classify_grid_error(tags, discs, a: float, d: float, axis) -> str | None:
    """The library sweep's tags and discriminants against the exact formula."""
    points = [(re, im) for re in axis for im in axis]
    for (re, im), disc, tag in zip(points, discs, tags):
        problem = _h2_point_error(a, d, re, im, disc, tag)
        if problem:
            return problem
    return None if len(tags) == len(discs) == len(points) else "grid has missing points"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


# -- workloads ----------------------------------------------------------------


def child_env(root: Path) -> dict:
    """Environment for a child process that imports the package from ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    """One workload: a cycle of op slots, input generation, the timed call, the oracle."""

    name = ""
    cycle: tuple[str, ...] = ()
    in_process = True
    #: after the loop the first op of each slot is rerun, and every
    #: rerun_every-th op up to rerun_cap ops in all
    rerun_every = 61
    rerun_cap = 64
    #: the reference routines run after every ref_every-th op
    ref_every = 1
    #: a run makes whole blocks of this many cycles
    block_cycles = 1
    #: loop iterations per second (op, oracle check, reference routines)
    #: at the reference routines' nominal speed; sizes a run to --seconds
    nominal_ops_per_s = 1.0

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed

    def slot(self, index: int) -> str:
        return self.cycle[index % len(self.cycle)]

    def cycles_for(self, seconds: float) -> int:
        """Cycles in a run meant to last ``seconds`` at nominal speed (at least one block)."""
        block_ops = self.block_cycles * len(self.cycle)
        return self.block_cycles * max(1, round(seconds * self.nominal_ops_per_s / block_ops))

    def setup(self) -> None:
        """Import the package and prepare the first inputs (timed as setup_s)."""

    def make_op(self, index: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op, traced: bool = False):
        """The timed call; ``traced`` matters only for out-of-process workloads."""
        raise NotImplementedError

    def check(self, op: Op, result) -> Outcome:
        raise NotImplementedError

    def fingerprint(self, op: Op, result) -> str:
        """Digest of everything the op produced, for the byte-identity rerun.

        This default covers CLI ops: exit code, stdout, stderr and the files
        a ``metric`` op writes.
        """
        files = []
        if op.kind == "metric":
            for name in ("theta.json", "q.json", "c.json"):
                path = op.data["out_dir"] / name
                files.append(path.read_bytes() if path.exists() else b"-")
        return digest(*result, *files)

    def release(self, op: Op) -> None:
        """Drop the op's outputs once checked (sampled ops are kept for the rerun)."""

    def references(self) -> dict:
        """Fixed routines whose times track the host's current speed.

        Maps a name to (routine, nominal ms).  Ops of a kind that has a
        routine of its own name are scaled by it, all else by ``main``.
        """
        return {"main": (inprocess_reference, INPROCESS_REF_MS)}


def _h2_slot_case(rng: random.Random, slot: str, index: int, cycle: tuple[str, ...]) -> tuple[dict, str]:
    if slot.endswith("near_ep"):
        per_cycle = cycle.count(slot)
        visit = (index // len(cycle)) * per_cycle + cycle[: index % len(cycle)].count(slot)
        k = NEAR_EP_EXPONENTS[(visit // 2) % len(NEAR_EP_EXPONENTS)]
        sign = 1.0 if visit % 2 == 0 else -1.0
        # Whether the package copes with disc = +1e-6..1e-13 depends on the
        # rounding of the other parameters, so this slice is drawn from the
        # op index alone: every seed meets the same near-EP inputs, and a
        # run's failure count is a property of the code, not of the seed.
        rng = random.Random(f"near_ep:{index}")
        return h2_case(rng, "near_ep", sign * 10.0 ** -k), f"{slot}(disc={sign * 10.0 ** -k:+.0e})"
    region = "interior" if slot in ("diagnose_h2_interior", "metric_h2") else "exterior"
    return h2_case(rng, region), slot


class PaperSmall(Workload):
    name = "paper_small"
    cycle = (
        "diagnose_h2_interior", "diagnose_h2_near_ep", "metric_h2", "diagnose_h2_exterior",
        "diagnose_h3", "diagnose_h2_interior", "metric_h3", "diagnose_h2_near_ep",
        "diagnose_h2_exterior", "sweep_h2", "diagnose_h2_interior", "metric_h2",
        "diagnose_h2_near_ep", "diagnose_h3", "metric_h3", "diagnose_h2_exterior",
    )
    #: input files are written this many ops at a time, the first batch in setup
    BATCH = 64
    ref_every = 8
    SWEEP_STEPS = 16
    # 3 near-EP slots a cycle: 2 * 13 cycles visit each (sign, k) 3 times
    block_cycles = 2 * len(NEAR_EP_EXPONENTS)
    nominal_ops_per_s = 200.0

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.inputs = work / "in"
        self.outputs = work / "out"
        self._pending: dict[int, Op] = {}
        self._written = 0
        self.main = None

    def setup(self) -> None:
        import cryptoherm.cli

        self.main = cryptoherm.cli
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        write_matrix(self.inputs / "parity2.json", np.diag([1.0, -1.0]))
        self._write_batch()
        # one op of every slot, so first-call costs land in setup rather
        # than in the first measured ops
        for i, slot in enumerate(self.cycle):
            op = self._build(-1 - i, slot)
            self.run(op)
            self.release(op)

    def _write_batch(self) -> None:
        for i in range(self._written, self._written + self.BATCH):
            self._pending[i] = self._build(i, self.slot(i))
        self._written += self.BATCH

    def _build(self, index: int, slot: str) -> Op:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        kind = slot.split("_", 1)[0]
        if slot == "sweep_h2":
            a, d = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            steps = self.SWEEP_STEPS
            argv = ["sweep", "--model", "h2", f"--a={a!r}", f"--d={d!r}",
                    f"--b-re=-1:1:{steps}", f"--b-im=-1:1:{steps}"]
            return Op(index, slot, kind, slot, {"argv": argv, "a": a, "d": d, "steps": steps})
        h_path = self.inputs / f"{index}-h.json"
        if slot.endswith("h3"):
            case = h3_case(rng)
            write_matrix(h_path, h3_matrix(case["a"], case["b"]))
            p_path = self.inputs / f"{index}-p.json"
            write_matrix(p_path, cyclic3())
            label = slot
        else:
            case, label = _h2_slot_case(rng, slot, index, self.cycle)
            write_matrix(h_path, h2_matrix(case["a"], case["d"], case["b"]))
            p_path = self.inputs / "parity2.json"
        argv = [kind, str(h_path), str(p_path)]
        out_dir = self.outputs / str(index)
        if kind == "metric":
            argv += ["--kappa", "involutive", "--out-dir", str(out_dir)]
        return Op(index, slot, kind, label, {"argv": argv, "out_dir": out_dir, **case})

    def make_op(self, index: int) -> Op:
        while index >= self._written:
            self._write_batch()
        return self._pending.pop(index)

    def run(self, op: Op, traced: bool = False):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main.main(list(op.data["argv"]))
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, result) -> Outcome:
        code, out, err = result
        c = op.data
        if op.slot == "sweep_h2":
            return check_sweep_csv(code, out, err, c["a"], c["d"], c["steps"])
        if op.slot == "metric_h3":
            return check_metric_reject(code, out, err)
        if op.slot == "metric_h2":
            return check_metric_involutive(code, out, err, c["out_dir"], 2)
        if op.slot == "diagnose_h3":
            scale = abs(c["a"]) + abs(c["b"])
            gap = min(c["levels"][1] - c["levels"][0], c["levels"][2] - c["levels"][1])
            return check_diagnose(code, out, err, [complex(x) for x in c["levels"]],
                                  scale, gap, expect_exit=0)
        scale = abs(c["a"]) + abs(c["d"]) + abs(c["b"])
        return check_diagnose(code, out, err, h2_spectrum(c["a"], c["d"], c["disc"]), scale,
                              math.sqrt(abs(float(c["disc"]))),
                              expect_exit=0 if c["disc"] > 0 else 3, in_band=c["in_band"])

    def release(self, op: Op) -> None:
        if op.kind == "metric":
            shutil.rmtree(op.data["out_dir"], ignore_errors=True)
        if op.index < 0:  # a warm-up op from setup
            for suffix in ("h", "p"):
                (self.inputs / f"{op.index}-{suffix}.json").unlink(missing_ok=True)


class DenseLibrary(Workload):
    name = "dense_library"
    # 3 sweeps and 2 metric ops in 12 slots: cli_sweep_ms and cli_metric_ms
    # get samples in every cycle, and the median latency still falls
    # inside the diagnose group
    cycle = ("diagnose", "sweep", "diagnose", "metric", "diagnose", "diagnose",
             "sweep", "diagnose", "metric", "sweep", "diagnose", "diagnose")
    N = 256
    # long enough that one op's time is not at the mercy of a millisecond's jitter
    SWEEP_STEPS = 64
    rerun_cap = 0
    nominal_ops_per_s = 1.35

    def references(self) -> dict:
        # the sweep ops are scalar interpreter work, the others mostly LAPACK
        return {"main": (dense_reference, DENSE_REF_MS), "sweep": (scalar_reference, SCALAR_REF_MS)}

    def setup(self) -> None:
        import cryptoherm

        self.ch = cryptoherm
        # first calls into LAPACK and the package, at a small size
        for slot in ("diagnose", "metric"):
            op = self._build(-1, slot, 16)
            self.check(op, self.run(op))

    def make_op(self, index: int) -> Op:
        return self._build(index, self.slot(index), self.N)

    def _build(self, index: int, slot: str, n: int) -> Op:
        rng = np_rng(self.name, self.seed, index, n)
        if slot == "sweep":
            a, d = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.5))
            axis = [float(x) for x in np.linspace(-1.0, 1.0, self.SWEEP_STEPS)]
            return Op(index, slot, slot, slot, {"a": a, "d": d, "axis": axis})
        case = dense_case(rng, n, self_adjoint_p=(slot == "metric"))
        return Op(index, slot, slot, f"{slot}_n{n}", case)

    def run(self, op: Op, traced: bool = False):
        ch, c = self.ch, op.data
        if op.slot == "sweep":
            a, d = c["a"], c["d"]
            discs, tags = [], []
            for re in c["axis"]:
                for im in c["axis"]:
                    b = complex(re, im)
                    discs.append(ch.discriminant_h2(a, d, b))
                    tags.append(ch.classify_h2(a, d, b).tag)
            return discs, tags
        pm = ch.PseudoMetric.from_matrix(c["p"])
        if op.slot == "metric":
            system = ch.solve_biorthogonal(c["h"])
            _, system = ch.involutive_normalization(system, pm)
            return {"pm": pm, "system": system, "bundle": ch.build_bundle(system, pm)}
        verdicts = [ch.pseudo_hermiticity_residual(c["h"], pm)]
        if not pm.self_adjoint:
            verdicts.append(ch.weak_triplet_check(c["h"], pm))
        system = ch.solve_biorthogonal(c["h"])
        bundle = ch.build_bundle(system, pm)
        verdicts.append(ch.quasi_hermiticity_residual(c["h"], bundle.theta))
        return {"pm": pm, "system": system, "bundle": bundle, "verdicts": verdicts}

    def check(self, op: Op, result) -> Outcome:
        c = op.data
        if op.slot == "sweep":
            problem = classify_grid_error(result[1], result[0], c["a"], c["d"], c["axis"])
            return wrong(problem) if problem else OK
        system, bundle = result["system"], result["bundle"]
        levels = c["levels"]
        err = float(np.max(np.abs(system.energies - levels)))
        if err > 1e-9 * float(np.max(np.abs(levels))):
            return wrong(f"energies off the constructed levels by {err:.3e}")
        worst = max(bundle.residuals.values())
        if worst > FACTORIZATION_TOL:
            return wrong(f"factorization residual {worst:.3e}")
        try:
            np.linalg.cholesky(0.5 * (bundle.theta + bundle.theta.conj().T))
        except np.linalg.LinAlgError:
            return wrong("theta is not positive definite")
        n = levels.shape[0]
        if op.slot == "metric":
            q = bundle.quasiparity
            resid = float(np.linalg.norm(q @ q - np.eye(n)))
            return wrong(f"involutive Q has ||Q^2 - I|| = {resid:.3e}") if resid > 1e-8 * n else OK
        if result["pm"].self_adjoint:
            return wrong("P with non-real u reported as self-adjoint")
        if not all(v.holds for v in result["verdicts"]):
            names = [v.name for v in result["verdicts"] if not v.holds]
            return wrong(f"verdicts {names} fail on an intertwined pair")
        return OK

    def fingerprint(self, op: Op, result) -> str:
        if op.slot == "sweep":
            return digest(*result)
        b = result["bundle"]
        return digest(result["system"].energies.tobytes(), b.theta.tobytes(),
                      b.quasiparity.tobytes(), b.charge.tobytes(), dict(b.residuals),
                      [(v.name, v.residual) for v in result.get("verdicts", [])])


class CliBatch(Workload):
    name = "cli_batch"
    # fast ops (diagnose, the README sweep) are 7 of 10 slots, so the median
    # latency sits well inside one group rather than between two
    cycle = ("diagnose", "sweep", "diagnose", "metric", "diagnose", "diagnose",
             "sweep", "diagnose", "sweep_readme", "diagnose")
    in_process = False
    rerun_cap = 0
    ref_every = 5
    nominal_ops_per_s = 2.8
    DIAGNOSE_N = 16
    METRIC_N = 64
    SWEEP_STEPS = 100
    README_STEPS = 5

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.env = None
        self.import_ms: list[float] = []  # cryptoherm.cli import time in traced children

    def setup(self) -> None:
        self.env = child_env(self.root)
        op = self._build(-1, "diagnose")
        self.check(op, self.run(op))
        self.release(op)

    def make_op(self, index: int) -> Op:
        return self._build(index, self.slot(index))

    def _build(self, index: int, slot: str) -> Op:
        rng = np_rng(self.name, self.seed, index)
        op_dir = self.work / f"op{index}"
        op_dir.mkdir(parents=True, exist_ok=True)
        data: dict = {"dir": op_dir}
        if slot in ("diagnose", "metric"):
            n = self.DIAGNOSE_N if slot == "diagnose" else self.METRIC_N
            case = dense_case(rng, n, self_adjoint_p=(slot == "metric"))
            write_matrix(op_dir / "h.json", case["h"])
            write_matrix(op_dir / "p.json", case["p"])
            argv = [slot, str(op_dir / "h.json"), str(op_dir / "p.json")]
            if slot == "metric":
                data["out_dir"] = op_dir / "out"
                argv += ["--kappa", "involutive", "--out-dir", str(data["out_dir"])]
            data.update(n=n, levels=case["levels"])
        elif slot == "sweep":
            a, d = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.5))
            steps = self.SWEEP_STEPS
            argv = ["sweep", "--model", "h2", f"--a={a!r}", f"--d={d!r}",
                    f"--b-re=-1:1:{steps}", f"--b-im=-1:1:{steps}"]
            data.update(a=a, d=d, steps=steps)
        else:  # the README's space-separated form of a negative range
            a, d = round(float(rng.uniform(0.5, 1.5)), 6), round(float(rng.uniform(0.0, 0.5)), 6)
            steps = self.README_STEPS
            argv = ["sweep", "--model", "h2", "--a", repr(a), "--d", repr(d),
                    "--b-re", f"-1:1:{steps}", "--b-im", f"-1:1:{steps}"]
            data.update(a=a, d=d, steps=steps)
        data["argv"] = argv
        label = f"{slot}_n{data['n']}" if "n" in data else slot
        return Op(index, slot, slot, label, data)

    def run(self, op: Op, traced: bool = False):
        if traced:
            spans = op.data["dir"] / "spans.json"
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "launch.py"), str(spans), "--"]
        else:
            cmd = [sys.executable, "-m", "cryptoherm.cli"]
        proc = subprocess.run(cmd + op.data["argv"], cwd=op.data["dir"], env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def references(self) -> dict:
        return {"main": (lambda: spawn_reference(self.env), SPAWN_REF_MS)}

    def child_totals(self, op: Op) -> dict:
        """Span totals a traced child wrote (empty when it wrote none)."""
        path = op.data["dir"] / "spans.json"
        if not path.exists():
            return {}
        record = json.loads(path.read_text(encoding="utf-8"))
        self.import_ms.append(record["import_cli_ms"])
        return record["totals"]

    def check(self, op: Op, result) -> Outcome:
        code, out, err = result
        c = op.data
        if op.slot in ("sweep", "sweep_readme"):
            return check_sweep_csv(code, out, err, c["a"], c["d"], c["steps"])
        levels = [complex(x) for x in c["levels"]]
        scale = float(np.max(np.abs(c["levels"])))
        if op.slot == "metric":
            return check_metric_involutive(code, out, err, c["out_dir"], c["n"])
        return check_diagnose(code, out, err, levels, scale, 0.4, expect_exit=0)

    def release(self, op: Op) -> None:
        shutil.rmtree(op.data["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperSmall, DenseLibrary, CliBatch)}
