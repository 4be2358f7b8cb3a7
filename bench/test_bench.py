"""Tests of the benchmark itself: oracle, failure accounting and tracer.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cryptoherm  # noqa: E402
import cryptoherm.cli  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Totals, Tracer, self_times  # noqa: E402


@pytest.fixture
def paper(tmp_path):
    w = wl.PaperSmall(ROOT, tmp_path, seed=7)
    w.setup()
    return w


def _first_op(w, slot):
    index = w.cycle.index(slot)
    return w.make_op(index)


class TestFailureAccounting:
    def test_correct_diagnose_passes(self, paper):
        op = _first_op(paper, "diagnose_h2_interior")
        assert paper.check(op, paper.run(op)).status == "ok"

    def test_injected_wrong_exit_code_fails(self, paper):
        op = _first_op(paper, "diagnose_h2_interior")
        code, out, err = paper.run(op)
        outcome = paper.check(op, (3, out, err))
        assert outcome.status == "wrong"
        rec = run.Recorder()
        rec.add(op, 1.0, False, outcome)
        assert (rec.attempted, rec.failed, rec.wrong) == (1, 1, 1)
        assert op.label in rec.failures

    def test_injected_missing_report_fails(self, paper):
        op = _first_op(paper, "diagnose_h2_exterior")
        code, out, err = paper.run(op)
        assert code == 3 and paper.check(op, (code, out, err)).status == "ok"
        outcome = paper.check(op, (code, "", "error: something"))
        assert outcome.status == "failed" and "no report" in outcome.reason
        rec = run.Recorder()
        rec.add(op, 1.0, False, outcome)
        assert (rec.failed, rec.wrong) == (1, 0)

    def test_metric_reject_needs_exit_4(self, paper):
        op = _first_op(paper, "metric_h3")
        code, out, err = paper.run(op)
        assert code == 4 and paper.check(op, (code, out, err)).status == "ok"
        assert paper.check(op, (0, out, err)).status != "ok"

    def test_rerun_mismatch_is_not_counted_twice(self, paper):
        op = _first_op(paper, "diagnose_h2_interior")
        rec = run.Recorder()
        rec.add(op, 1.0, False, wl.failed("no report"))
        rec.note(op, wl.wrong("rerun output differs"), counted=True)
        assert (rec.attempted, rec.failed, rec.wrong) == (1, 1, 1)

    def test_readme_sweep_usage_error_fails(self):
        outcome = wl.check_sweep_csv(1, "", "error: argument --b-re: expected one argument",
                                     1.0, 0.0, 5)
        assert outcome.status == "failed"

    def test_failure_count_does_not_depend_on_seed_or_speed(self, tmp_path):
        counts = []
        for seed in (1, 2):
            w = wl.PaperSmall(ROOT, tmp_path / str(seed), seed=seed)
            w.setup()
            rec = run.Recorder()
            *_, cut_short = run.run_loop(w, 0.01, False, rec)
            assert not cut_short and rec.attempted == w.cycles_for(0.01) * len(w.cycle)
            counts.append((rec.attempted, rec.failed, sorted((k, v["count"]) for k, v in rec.failures.items())))
        assert counts[0] == counts[1] and counts[0][1] > 0  # the near-EP slice fails at the seed

    def test_run_size_is_whole_blocks(self):
        w = wl.PaperSmall(ROOT, ROOT, seed=1)
        assert w.cycles_for(0.01) == w.block_cycles
        assert w.cycles_for(60.0) % w.block_cycles == 0
        assert w.cycles_for(60.0) * len(w.cycle) == pytest.approx(60.0 * w.nominal_ops_per_s, rel=0.1)


class TestOracle:
    @pytest.mark.parametrize("region", ["interior", "exterior"])
    def test_h2_spectrum_matches_numpy(self, region):
        import random

        case = wl.h2_case(random.Random(region), region)
        got = np.sort_complex(np.linalg.eigvals(wl.h2_matrix(case["a"], case["d"], case["b"])))
        want = np.sort_complex(np.array(wl.h2_spectrum(case["a"], case["d"], case["disc"])))
        assert np.allclose(got, want, atol=1e-12)
        assert (case["disc"] > 0) == (region == "interior")

    def test_dense_case_intertwines(self):
        case = wl.dense_case(wl.np_rng("t", 1), 12, self_adjoint_p=False)
        h, p = case["h"], case["p"]
        assert np.allclose(p @ h @ np.linalg.inv(p), h.conj().T, atol=1e-10)
        assert np.allclose(np.sort(np.linalg.eigvals(h).real), case["levels"], atol=1e-10)
        assert not np.allclose(p, p.conj().T)

    def test_sweep_check_catches_a_wrong_class(self):
        out = cryptoherm_sweep(["--a=1.0", "--d=0.0", "--b-re=-1:1:3", "--b-im=-1:1:3"])
        assert wl.check_sweep_csv(0, out, "", 1.0, 0.0, 3).status == "ok"
        assert wl.check_sweep_csv(0, out, "", 1.0, 0.0, 4).status == "wrong"  # row count
        rows = out.splitlines()
        assert rows[5].startswith("0,0,") and ",interior," in rows[5]
        rows[5] = rows[5].replace("interior", "exterior")
        outcome = wl.check_sweep_csv(0, "\n".join(rows) + "\n", "", 1.0, 0.0, 3)
        assert outcome.status == "wrong" and "expected 'interior'" in outcome.reason


def cryptoherm_sweep(args):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cryptoherm.cli.main(["sweep", "--model", "h2", *args]) == 0
    return buf.getvalue()


class TestTracer:
    def test_wraps_every_binding_and_restores(self):
        original = cryptoherm.linalg.eig
        with Tracer() as tracer:
            wrapped = cryptoherm.linalg.eig
            assert wrapped is not original
            assert cryptoherm.biortho.eig is wrapped and cryptoherm.cli.eig is wrapped
            assert cryptoherm.eig is wrapped
            cryptoherm.PseudoMetric.from_matrix(np.eye(2))
        assert cryptoherm.linalg.eig is original and cryptoherm.biortho.eig is original
        names = [s.name for s in tracer.drain()]
        assert "models.PseudoMetric.from_matrix" in names
        assert "models.PseudoMetric.from_matrix" in tracer.names

    def test_self_times_add_up_to_cli_main(self, paper):
        op = _first_op(paper, "diagnose_h2_interior")
        paper.run(op)  # warm
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        paper.run(op)
        wall_ms = (time.perf_counter() - t0) * 1e3
        tracer.uninstall()
        spans = tracer.drain()
        roots = [s for s in spans if s.parent < 0]
        assert [s.name for s in roots] == ["cli.main"]
        layers = {s.layer for s in spans}
        assert {"cli", "io", "linalg", "biortho", "metric", "symmetry", "models"} <= layers
        totals = Totals()
        totals.add(spans)
        summed = sum(totals.layer_self_ms.values())
        assert summed == pytest.approx(roots[0].ms, rel=1e-9)
        assert all(v >= 0 for v in self_times(spans).values())
        # what the span misses is the call into main and the output capture
        assert 0 <= wall_ms - roots[0].ms < max(1.0, 0.25 * wall_ms)

    def test_raised_spans_are_marked(self, paper):
        op = _first_op(paper, "metric_h3")
        with Tracer() as tracer:
            paper.run(op)
        spans = tracer.drain()
        assert any(s.raised and s.name == "metric.involutive_normalization" for s in spans)

    def test_merge_of_child_totals(self):
        with Tracer() as tracer:
            cryptoherm.solve_biorthogonal(cryptoherm.build_h2(1.0, 0.0, 0.2))
        one = Totals()
        one.add(tracer.drain())
        both = Totals()
        both.merge(json.loads(json.dumps(one.to_json())))
        both.merge(one.to_json())
        assert both.func_calls["linalg.eig"] == 2 * one.func_calls["linalg.eig"]


class TestReport:
    def test_absent_function_is_listed_not_a_crash(self):
        totals = Totals()
        rec = run.Recorder()
        names = {"linalg.eig", "cli.main"}
        metrics, absent = run.per_layer(totals, names, 0, rec, [])
        assert "linalg.inverse.ms" in absent and "linalg.eig.ms" not in absent
        assert metrics["linalg.inverse.ms"] == (0.0, "ms")

    def test_tail_has_ten_samples_beyond(self):
        values = list(range(100))
        value, pct = run.tail(values)
        assert sum(v > value for v in values) == 10 and pct == 90.0
        for n in (1, 10, 12, 21):
            values = list(range(n))
            assert run.tail(values)[0] >= statistics.median(values)  # never below the median

    def test_times_are_scaled_to_the_reference_speed(self):
        rec = run.Recorder()
        for i, kind in enumerate(["diagnose", "metric", "sweep"] * 3):
            rec.add(wl.Op(i, kind, kind, kind), 10.0 * (i + 1), False, wl.OK)
        rec.refs = {"main": [(i, 5.0) for i in range(0, 9, 2)],  # half the nominal speed
                    "sweep": [(i, 1.0) for i in range(0, 9, 2)]}  # four times
        references = {"main": (None, 2.5), "sweep": (None, 4.0)}
        metrics, detail = run.end_to_end(rec, references, ([1.0, 1.2, 0.8], [2 * wl.SPAWN_REF_MS] * 3), 40.0)
        assert detail["slowdown"]["ops_median"] == 2.0
        assert metrics["latency_p50_ms"] == (35.0, "ms")  # median of 5 10 20 25 35 40 | 120 240 360
        assert metrics["cli_metric_ms"] == (detail["raw"]["cli_metric_ms"] / 2, "ms")
        assert metrics["cli_sweep_ms"] == (detail["raw"]["cli_sweep_ms"] * 4, "ms")
        scaled_ms = (10 + 20 + 40 + 50 + 70 + 80) / 2 + (30 + 60 + 90) * 4
        assert metrics["ops_per_s"][0] == pytest.approx(9e3 / scaled_ms)
        assert metrics["setup_s"] == (0.5, "s")
        assert metrics["peak_rss_mb"] == (40.0, "MB") and metrics["ok_share"] == (1.0, "ratio")

    def test_each_time_is_scaled_by_the_reference_next_to_it(self):
        rec = run.Recorder()
        for i in range(4):
            rec.add(wl.Op(i, "diagnose", "diagnose", "diagnose"), 10.0, False, wl.OK)
        rec.refs = {"main": [(1, 2.5), (3, 5.0)]}  # timed after ops 1 and 3
        assert rec.slowdowns({"main": 2.5}) == [1.0, 1.0, 1.5, 1.5]

    def test_windowed_tail_ignores_one_bad_window(self):
        values = [1.0] * 3000
        values[:20] = [100.0] * 20  # one burst, all in the first window
        value, info = run.windowed_tail(values)
        assert value == 1.0 and info["windows"] == 3
        assert run.windowed_tail(values[:1500])[0] == 100.0  # one window: plain rule

    def test_exits_nonzero_without_package_source(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper_small", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode != 0 and proc.stdout == ""

    def test_short_run_result_line(self):
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper_small", "--seed", "3",
                               "--seconds", "0.3", "--trace", "0"], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 16
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())
