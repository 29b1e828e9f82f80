"""Experiment runner, report emission, verification suites."""

import csv
import json
import math
import multiprocessing
import os
import re

import numpy as np
import pytest

from cdnn import bench, nn
from cdnn.data import generate, named_dgp, oracle_of, write_csv
from cdnn.cli import main
from cdnn.errors import ConfigError, SchemaError
from cdnn.theory import standard_perturbations


def numpy_exp_is_simd():
    """True when numpy's exp rounds unlike the C library's (its AVX-512 kernel)."""
    z = np.linspace(-30.0, 30.0, 1001)
    return bool(np.any(np.exp(z) != [math.exp(v) for v in z]))


def read_report_rows(path):
    """Parse an emitted CSV back into (data_rows, aggregate_rows)."""
    data_rows, agg_rows = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            target = agg_rows if rec["replication"] in ("mean", "sd") else data_rows
            target.append(rec)
    return data_rows, agg_rows


def quick_config(**overrides):
    raw = {
        "dgp": {"family": "confound-linear", "seed": 5},
        "n": 400,
        "replications": 2,
        "split": {"scheme": "ihdp_63_27_10"},
        "estimators": [{"name": "ols_lr1"}, {"name": "ols_lr2"}],
        "seed": 9,
    }
    raw.update(overrides)
    return bench.config_from_dict(raw)


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            quick_config(workerz=3)

    def test_unknown_estimator_param_rejected(self):
        with pytest.raises(ConfigError, match="cdnn_freezing parameter"):
            quick_config(estimators=[{"name": "cdnn_freezing", "learning_rte": 0.1}])

    def test_unknown_estimator_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown estimator"):
            quick_config(estimators=["tarnet"])

    def test_unknown_dgp_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown dgp"):
            quick_config(dgp={"family": "confound-linear", "sigma": 3})

    def test_missing_csv_glob_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="matched no files"):
            quick_config(dgp={"csv": str(tmp_path / "*.csv")})

    def test_csv_replication_count_inferred(self, tmp_path):
        for i in range(3):
            write_csv(generate(named_dgp("confound-linear", seed=i), 50), tmp_path / f"r{i}.csv")
        cfg = bench.config_from_dict(
            {
                "dgp": {"csv": str(tmp_path / "*.csv")},
                "estimators": ["ols_lr1"],
                "split": {"scheme": "custom", "fractions": [0.6, 0.2, 0.2]},
            }
        )
        assert cfg.replications == 3
        assert len(cfg.csv_files) == 3

    def test_string_estimator_shorthand(self):
        cfg = quick_config(estimators=["dml"])
        assert cfg.estimators[0].name == "dml"


class TestRun:
    def test_noiseless_affine_ols2_is_exact(self):
        raw = {
            "dgp": {"family": "confound-linear", "seed": 5},
            "n": 500,
            "replications": 1,
            "estimators": ["ols_lr2"],
            "seed": 1,
        }
        # zero the noise by regenerating the family by hand
        cfg = bench.config_from_dict(raw)
        from dataclasses import replace

        cfg = replace(cfg, dgp=replace(cfg.dgp, noise_sigma=0.0))
        report = bench.run(cfg)
        assert report.rows[0].sqrt_pehe <= 1e-6

    def test_fixed_seed_runs_are_identical(self, tmp_path):
        cfg = quick_config(estimators=["ols_lr1", "dml"])
        a, b = bench.run(cfg), bench.run(cfg)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_failed_estimator_rows_are_recorded(self):
        # n is too small for per-arm fits (arm size <= d+2), so ols_lr2
        # fails per replication while ols_lr1 keeps succeeding
        raw = {
            "dgp": {"family": "confound-linear", "seed": 2, "d": 5},
            "n": 16,
            "replications": 2,
            "split": {"scheme": "custom", "fractions": [0.5, 0.25, 0.25]},
            "estimators": ["ols_lr2", "ols_lr1"],
            "seed": 3,
        }
        report = bench.run(bench.config_from_dict(raw))
        lr2_rows = report.rows_for("ols_lr2")
        assert any(not r.ok for r in lr2_rows)
        agg = report.aggregates()
        assert agg["ols_lr2"]["n_failed"] >= 1
        # failures excluded, successes still aggregated
        assert agg["ols_lr1"]["n_ok"] == 2


ALL_FIVE = [
    {"name": "cdnn_freezing", "hidden_widths": [8], "epochs": 3, "ensemble_size": 2},
    {"name": "cdnn_explicit", "hidden_widths": [8], "epochs": 3, "ensemble_size": 2},
    "ols_lr1",
    "ols_lr2",
    "dml",
]


@pytest.fixture
def replication_processes(monkeypatch):
    """bench.run() in two processes, whatever the CPU count. Returns a
    setter of the count and the list to which each of its _in_processes
    calls appends its number of shares."""
    shares = []
    real = bench._in_processes
    monkeypatch.setattr(bench, "_in_processes", lambda fn, s: shares.append(len(s)) or real(fn, s))

    def use(count):
        monkeypatch.setattr(bench, "_processes", lambda tasks: max(1, min(tasks, count)))
        shares.clear()

    use(2)
    return use, shares


def write_replication_csvs(tmp_path, count):
    for i in range(count):
        write_csv(generate(named_dgp("confound-hetero", seed=i), 300), tmp_path / f"r{i}.csv")
    return {"csv": str(tmp_path / "r*.csv")}


class TestParallelReplications:
    """bench.run() runs its replications in forked workers, with bitwise the
    serial reports, and raises the serial run's exception."""

    @pytest.mark.parametrize("source", ["dgp", "csv"])
    @pytest.mark.parametrize("reps", [3, 4])
    def test_reports_are_bitwise_the_serial_ones(
        self, tmp_path, replication_processes, source, reps
    ):
        use, shares = replication_processes
        dgp = {"family": "confound-hetero"}
        if source == "csv":
            dgp = write_replication_csvs(tmp_path, reps)
        cfg = quick_config(dgp=dgp, replications=reps, estimators=ALL_FIVE)
        reports = {}
        for count in (1, 2, 3):
            use(count)
            report = bench.run(cfg)
            assert shares == [count]
            assert all(r.ok for r in report.rows)
            path = report.to_csv(tmp_path / f"report-{count}.csv")
            reports[count] = (path.read_bytes(), report.to_markdown())
            assert multiprocessing.active_children() == []
        assert reports[2] == reports[1] and reports[3] == reports[1]

    def test_a_replication_worker_that_dies_raises(self, replication_processes, monkeypatch):
        real = bench._run_replication

        def dying(config, i):
            if i == 1:
                os._exit(3)
            return real(config, i)

        monkeypatch.setattr(bench, "_run_replication", dying)
        with pytest.raises(RuntimeError, match="^worker process ended with exit code 3 before"):
            bench.run(quick_config(replications=3))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("count", [2, 3])
    def test_a_malformed_csv_raises_its_schema_error(
        self, tmp_path, capsys, replication_processes, count
    ):
        # replication 1 runs in a worker, and 2 (malformed too) in the caller
        # at P = 2 or in another worker at P = 3: replication 1's error wins
        use, _ = replication_processes
        use(count)
        dgp = write_replication_csvs(tmp_path, 3)
        for rep, row in ((1, 5), (2, 7)):
            bad = tmp_path / f"r{rep}.csv"
            lines = bad.read_text().splitlines(keepends=True)
            lines[row] = lines[row].rsplit(",", 1)[0] + ",abc\n"
            bad.write_text("".join(lines))
        cfg = {"dgp": dgp, "estimators": ["ols_lr1"], "output": str(tmp_path / "out")}
        message = "is not numeric: 'abc' (row 5)"
        with pytest.raises(SchemaError, match=re.escape(message) + "$"):
            bench.run(bench.config_from_dict(cfg))
        assert multiprocessing.active_children() == []
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(tmp_path / "config.json")]) == 2
        assert capsys.readouterr().err.endswith(f"{message}\n")
        assert multiprocessing.active_children() == []


class TestReport:
    def test_csv_round_trip_reproduces_aggregates(self, tmp_path):
        cfg = quick_config(estimators=["ols_lr1", "ols_lr2", "dml"], replications=3)
        report = bench.run(cfg)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        data_rows, agg_rows = read_report_rows(path)
        for name in report.estimator_order:
            values = [
                float(r["sqrt_pehe"])
                for r in data_rows
                if r["estimator"] == name and r["status"] == "ok"
            ]
            mean_row = next(
                r for r in agg_rows if r["estimator"] == name and r["replication"] == "mean"
            )
            sd_row = next(
                r for r in agg_rows if r["estimator"] == name and r["replication"] == "sd"
            )
            arr = np.array(values)
            assert float(mean_row["sqrt_pehe"]) == arr.mean()
            assert float(sd_row["sqrt_pehe"]) == arr.std(ddof=1 if len(arr) > 1 else 0)

    def test_runtime_column_only_on_request(self, tmp_path):
        report = bench.run(quick_config())
        p1, p2 = tmp_path / "plain.csv", tmp_path / "rt.csv"
        report.to_csv(p1)
        report.to_csv(p2, include_runtime=True)
        assert "fit_seconds" not in p1.read_text().splitlines()[0]
        assert "fit_seconds" in p2.read_text().splitlines()[0]

    def test_markdown_precision_rule(self):
        report = bench.MetricsReport(
            [
                bench.RepRow("ols_lr1", 0, 0.54, 0.319, 0.319, 0.1),
                bench.RepRow("ols_lr1", 1, 1.18, 0.335, 0.335, 0.1),
            ],
            ["ols_lr1"],
        )
        md = report.to_markdown()
        # sqrt_pehe mean/sd are both >= 0.1: two decimals; eps_ate sd is
        # small: three decimals
        assert "0.86±0.45" in md
        assert "0.327±0.011" in md

    def test_markdown_failed_row(self):
        report = bench.MetricsReport(
            [bench.RepRow("dml", 0, None, None, None, 0.0, "boom")], ["dml"]
        )
        assert "failed" in report.to_markdown()


class TestVerify:
    def test_gradients_suite_passes_fast(self):
        result = bench.verify("gradients")[0]
        assert result.passed

    def test_lemma_suite_passes_fast(self):
        result = bench.verify("lemma")[0]
        assert result.passed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            bench.verify("identities")

    def test_suites_are_looked_up_when_called(self, monkeypatch):
        # the benchmark's tracer wraps the verify_* module attributes; the
        # wrapped functions are the ones verify must run
        for kind in bench.SUITES:
            fake = lambda seed, kind=kind: bench.VerifyResult(kind, seed == 7)  # noqa: E731
            monkeypatch.setattr(bench, f"verify_{kind}", fake)
        assert bench.SUITES == ("gradients", "lemma", "orthogonality")
        assert [(r.kind, r.passed) for r in bench.verify("all", seed=7)] == [
            (kind, True) for kind in bench.SUITES
        ]
        assert [r.kind for r in bench.verify("lemma", seed=7)] == ["lemma"]

    def test_all_returns_three_results(self):
        # smaller orthogonality settings keep this test quick
        results = bench.verify("gradients") + [
            bench.verify_orthogonality(n_x=2, n_samples=20_000)
        ]
        assert all(r.passed for r in results)


class TestVerifyGradients:
    # The lines as printed before the probes were stacked, on x86-64 (numpy
    # 2.4.6). numpy's SIMD exp (AVX-512) and the C library's round a few
    # logistic values differently, which moves seed 2's fourth digit.
    SIMD_EXP = numpy_exp_is_simd()
    GOLDEN = {
        0: "max relative gradient error: 4.218e-09 (tolerance 1e-04)",
        1: "max relative gradient error: 8.963e-09 (tolerance 1e-04)",
        2: "max relative gradient error: "
        + ("8.025e-09" if SIMD_EXP else "8.316e-09")
        + " (tolerance 1e-04)",
        3: "max relative gradient error: 1.125e-08 (tolerance 1e-04)",
        4: "max relative gradient error: 6.598e-09 (tolerance 1e-04)",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_report_line_is_unchanged(self, seed):
        result = bench.verify_gradients(seed=seed)
        assert result.passed
        assert result.lines[1] == self.GOLDEN[seed]

    def test_a_nan_gradient_fails_the_suite(self, monkeypatch):
        backward = nn.backward

        def broken(net, cache, loss_gradient):
            grad = backward(net, cache, loss_gradient)
            grad[0] = np.nan
            return grad

        monkeypatch.setattr(nn, "backward", broken)
        result = bench.verify_gradients(seed=0, networks=3)
        assert not result.passed
        assert result.lines[1].startswith("max relative gradient error: nan")


class TestVerifyLemma:
    # lines[1:3] as printed before oracle_of cached surface values per point
    GOLDEN_H = {0: "5.551e-16", 1: "5.551e-16", 2: "6.661e-16", 3: "8.882e-16", 4: "8.882e-16"}

    @pytest.mark.parametrize("seed", sorted(GOLDEN_H))
    def test_report_lines_are_unchanged(self, seed):
        result = bench.verify_lemma(seed=seed)
        assert result.passed
        assert result.lines[1:3] == [
            f"max |h_direct - theta*(t-e)|: {self.GOLDEN_H[seed]} (tolerance 1e-12)",
            "max |mixture - g0|: 0.000e+00 (tolerance 1e-12)",
        ]


class TestOrthogonalityProbePoints:
    def _points(self, seed):
        spec = named_dgp("confound-hetero", seed=seed)
        oracle = oracle_of(spec)
        directions = standard_perturbations(spec.d)
        plain = np.random.default_rng(seed).standard_normal((20, spec.d))
        xs = bench._probe_points(oracle, directions, np.random.default_rng(seed), 20, spec.d)
        return oracle, directions, plain, xs

    def test_admissible_points_are_kept(self):
        _, _, plain, xs = self._points(0)
        assert np.array_equal(xs, plain)

    def test_only_inadmissible_points_are_redrawn(self):
        # seed 23 draws a point where a direction pushes the propensity to -0.0147
        oracle, directions, plain, xs = self._points(23)
        kept = [bench._admissible(oracle, directions, x) for x in plain]
        assert kept.count(False) == 1
        for x_plain, x, ok in zip(plain, xs, kept):
            assert np.array_equal(x_plain, x) == ok
            assert bench._admissible(oracle, directions, x)

    def test_seed_0_report_unchanged(self):
        result = bench.verify_orthogonality(seed=0)
        assert result.passed
        assert result.lines[:4] == [
            "finite-difference probes: 200 (20 points x 10 directions, 100000 samples each)",
            "within 3 MC stderr of 0: 200/200 (100.0%, need >= 95%)",
            "analytic closed form exactly 0 on all probes: True",
            "negative control rejected 0 at 3 sigma: 15/15",
        ]
