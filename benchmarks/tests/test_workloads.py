"""Smoke-size passes of each workload, traced, with every check holding."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import pytest
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parents[1]

SMOKE_FIT = {"epochs": 3, "ensemble_size": 2, "patience": 2}


def _traced(workload):
    workload.setup()
    workload.prepare_checks()
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        out = workload.run(tracer)
    assert out.failed == 0, out.errors
    assert out.attempted > 0
    return out, layers.layer_metrics(tracer.spans, out.windows_ns, out.baseline_warnings, 0.0)


def test_hetero_suite_smoke():
    workload = workloads.HeteroSuite(seed=3, seconds=1, n=300, config=SMOKE_FIT)
    out, m = _traced(workload)
    assert out.attempted == 5  # two fits and three baselines per replication
    assert m["estimator.stage1_unique_ratio"] == 0.5
    assert m["estimator.fit.calls"] == 2
    assert m["estimator.fit_stage1.calls"] == 4
    assert m["trace.coverage"] >= 0.95
    assert m["nn.step.calls"] == m["nn.backward.calls"] > 0
    assert {r["variant"] for r in out.records} == {"freezing", "explicit_residual"}
    assert all(len(r["sha256"]) == 64 for r in out.records)
    # work counts and parameters repeat exactly
    again, m2 = _traced(workload)
    for key in ("nn.epochs", "nn.gflop", "nn.forward_batch.calls", "estimator.fit.calls"):
        assert m[key] == m2[key], key
    assert [r["sha256"] for r in out.records] == [r["sha256"] for r in again.records]
    summary = workload.summary(out)
    assert set(summary) >= {"throughput", "fit_s_p50", "corr_freezing"}
    # throughput is fits per second of fit time, so it falls when fits run more epochs
    fit_s = [r["fit_s"] for r in out.records]
    assert summary["throughput"][0] == pytest.approx(len(fit_s) / sum(fit_s))


def test_score_smoke(tmp_path):
    workload = workloads.Score(seed=1, seconds=1, workdir=tmp_path, rows=9000, train_rows=200)
    out, m = _traced(workload)
    assert out.attempted == 1
    assert m["estimator.load_checkpoint.s"] > 0
    assert m["nn.forward_batch.rows_per_s"] > 0  # 9000-row calls count as large batches
    assert m["nn.step.calls"] == 0


def test_score_check_catches_a_changed_output(tmp_path):
    workload = workloads.Score(seed=1, seconds=1, workdir=tmp_path, rows=500, train_rows=200)
    workload.setup()
    workload.prepare_checks()
    workload.reference = workload.reference.copy()
    workload.reference[0] = workload.reference[0] + 1e-12
    out = workload.run()
    assert out.failed == 1 and "differs" in out.errors[0]


def test_verify_smoke():
    out, m = _traced(workloads.Verify(seed=0, seconds=1))
    assert out.attempted == 2 * workloads.planned_ops(1, workloads.Verify.nominal_op_s)
    assert m["theory.residualized_h.calls"] > 0 and m["nn.gradient_check.calls"] > 0


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "verify", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"throughput_norm", "peak_rss_mb", "setup_s"}


def test_command_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_raising_suite_fails_only_its_own_operation(monkeypatch):
    from cdnn import bench

    real = bench.verify

    def verify(kind, seed=0):
        if kind == "lemma" and seed == 0:
            raise ValueError("boom")
        return real(kind, seed=seed)

    monkeypatch.setattr(bench, "verify", verify)
    workload = workloads.Verify(seed=0, seconds=1)
    out = workload.run()
    assert (out.attempted, out.failed) == (2 * workload.seeds, 1)
    assert "lemma: ValueError: boom" in out.errors[0]
    assert len(out.rates) == workload.seeds - 1  # none from the incomplete seed
