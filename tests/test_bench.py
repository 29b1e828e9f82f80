"""Experiment runner, report emission, verification suites."""

import csv
import inspect
import json
import math
import multiprocessing
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from cdnn import bench, nn, theory
from cdnn.baselines import dml_ate, ols_lr1
from cdnn.data import (
    DGP_FAMILIES,
    SPLIT_SCHEMES,
    Dataset,
    ReplicationSet,
    SplitSpec,
    _derived_seed,
    concat_datasets,
    generate,
    named_dgp,
    oracle_of,
    split,
    write_csv,
)
from cdnn.cli import main
from cdnn.errors import ConfigError, SchemaError
from cdnn.estimator import CdnnConfig
from cdnn.metrics import eps_ate, sqrt_pehe
from cdnn.theory import gateaux_derivative, non_orthogonal_control, standard_perturbations


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
    if "csv" in raw["dgp"]:  # each file fixes its rows
        del raw["n"]
    return bench.config_from_dict(raw)


def experiment(**overrides):
    """An ExperimentConfig built directly, past the JSON reader's type checks."""
    settings = {"estimators": (bench.EstimatorSpec("ols_lr1"),), "split": SplitSpec.ihdp(),
                "dgp": named_dgp("confound-linear"), "n": 100}
    return bench.ExperimentConfig(**{**settings, **overrides})


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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: named_dgp("confound-linear", d=2.5), "named families need d >= 2"),
            (lambda: named_dgp("confound-linear", seed="1"), "seed must be a nonnegative integer"),
            (lambda: named_dgp("confound-linear", seed=True), "seed must be a nonnegative integer"),
            (lambda: replace(named_dgp("confound-linear", d=2), d=2.0),
             "covariate dimension must be >= 1"),
            (lambda: generate(named_dgp("confound-linear"), 10.5), "need n >= 1 samples"),
            (lambda: generate(named_dgp("confound-linear"), True), "need n >= 1 samples"),
            (lambda: ReplicationSet(named_dgp("confound-linear"), 2.5),
             "replication count must be >= 1"),
            (lambda: experiment(seed="1"), "seed must be a nonnegative integer"),
            (lambda: experiment(seed=True), "seed must be a nonnegative integer"),
            (lambda: experiment(n=100.5), "need n >= 3 samples per replication"),
            (lambda: experiment(replications=1.5), "replications must be >= 1"),
            (lambda: bench.verify("lemma", seed="1"), "seed must be a nonnegative integer"),
            (lambda: bench.verify("lemma", seed=2.5), "seed must be a nonnegative integer"),
        ],
        ids=["float-d", "string-seed", "bool-seed", "float-spec-d", "float-n", "bool-n",
             "float-replication-count",
             "string-experiment-seed", "bool-experiment-seed", "float-experiment-n",
             "float-replications", "string-verify-seed", "float-verify-seed"],
    )
    def test_a_seed_or_size_of_the_wrong_type_is_a_config_error(self, call, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call()

    # entry point -> a call of it with `seed`
    SEEDED = {
        "split": lambda seed: split(generate(named_dgp("confound-linear"), 30), SplitSpec.ihdp(),
                                    seed),
        "dml_ate": lambda seed: dml_ate(generate(named_dgp("confound-linear"), 30), seed=seed),
        "gateaux_derivative": lambda seed: gateaux_derivative(
            oracle_of(named_dgp("confound-hetero")), standard_perturbations(5)[0], np.zeros(5),
            seed=seed),
        "non_orthogonal_control": lambda seed: non_orthogonal_control(
            oracle_of(named_dgp("confound-hetero")), standard_perturbations(5)[0], np.zeros(5),
            seed=seed),
        "verify_gradients": bench.verify_gradients,
        "verify_lemma": bench.verify_lemma,
        "CdnnConfig": lambda seed: CdnnConfig(seed=seed),
        "DgpSpec": lambda seed: named_dgp("confound-linear", seed=seed),
        "ExperimentConfig": lambda seed: experiment(seed=seed),
        "verify": lambda seed: bench.verify("lemma", seed=seed),
    }

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"], ids=["negative", "float", "bool", "str"])
    @pytest.mark.parametrize("entry", sorted(SEEDED))
    def test_every_entry_point_applies_the_one_seed_rule(self, entry, seed):
        with pytest.raises(ConfigError, match="^seed must be a nonnegative integer$"):
            self.SEEDED[entry](seed)

    def test_absent_keys_are_not_passed(self, monkeypatch):
        # named_dgp and ExperimentConfig apply their own defaults
        cases = [
            ({}, {}, {}),
            ({"dgp": {"family": "confound-linear", "d": 3, "seed": 2}, "seed": 4, "n": 50,
              "replications": 3, "output": "o", "redraw_baseline": True, "metrics_on": "all"},
             {"d": 3, "seed": 2},
             {"seed": 4, "n": 50, "replications": 3, "output": "o", "redraw_baseline": True,
              "metrics_on": "all"}),
            ({"dgp": {"family": "confound-linear", "seed": 0}, "seed": 0},
             {"seed": 0}, {"seed": 0}),
        ]
        dgp_calls, config_calls = [], []
        real_named_dgp = bench.named_dgp

        def named_dgp_spy(family, **kwargs):
            dgp_calls.append(kwargs)
            return real_named_dgp(family, **kwargs)

        class ExperimentConfigSpy(bench.ExperimentConfig):
            def __init__(self, estimators, split, dgp, csv_files, **kwargs):
                config_calls.append(kwargs)
                super().__init__(estimators, split, dgp=dgp, csv_files=csv_files,
                                 **{"n": 10, **kwargs})

        monkeypatch.setattr(bench, "named_dgp", named_dgp_spy)
        monkeypatch.setattr(bench, "ExperimentConfig", ExperimentConfigSpy)
        for given, _, _ in cases:
            bench.config_from_dict({"dgp": {"family": "confound-linear"},
                                    "estimators": ["ols_lr1"], **given})
        assert dgp_calls == [dgp for _, dgp, _ in cases]
        assert config_calls == [config for _, _, config in cases]

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


class TestMetricsOn:
    @pytest.mark.parametrize("metrics_on", [None, "test", "all"], ids=["default", "test", "all"])
    def test_metrics_are_taken_on_the_rows_it_names(self, metrics_on):
        raw = {"dgp": {"family": "confound-hetero", "seed": 4}, "n": 300,
               "estimators": ["ols_lr1"], "seed": 6}
        if metrics_on is not None:
            raw["metrics_on"] = metrics_on
        cfg = bench.config_from_dict(raw)
        (row,) = bench.run(cfg).rows
        data = generate(cfg.dgp, 300)
        train, val, test = split(data, cfg.split, _derived_seed(6, 0, 1))
        _, ite = ols_lr1(concat_datasets([train, val]))
        rows = data if metrics_on == "all" else test
        pred = ite(rows.x)
        assert (row.sqrt_pehe, row.eps_ate) == (sqrt_pehe(pred, rows.theta),
                                               eps_ate(pred, rows.theta))
        other = test if metrics_on == "all" else data
        assert row.sqrt_pehe != sqrt_pehe(ite(other.x), other.theta)


SMALL_CDNN = {"hidden_widths": [8], "epochs": 3, "ensemble_size": 2}
TABLE_ENTRIES = (
    [("dgp", {"family": family}) for family in DGP_FAMILIES]
    + [("split", {"scheme": scheme}) for scheme in SPLIT_SCHEMES]
    + [("estimators", [{"name": name, **(SMALL_CDNN if name.startswith("cdnn") else {})}])
       for name in bench.ESTIMATOR_NAMES]
)


@pytest.mark.parametrize(
    "key, value", TABLE_ENTRIES,
    ids=[f"{key}-{json.dumps(value)}" for key, value in TABLE_ENTRIES],
)
def test_every_table_name_resolves_and_runs(key, value):
    raw = {"dgp": {"family": "confound-linear"}, "n": 200, "estimators": ["ols_lr1"], "seed": 2,
           key: value}
    cfg = bench.config_from_dict(raw)
    if key == "dgp":
        assert cfg.dgp == named_dgp(value["family"])
    elif key == "split":
        assert cfg.split == SplitSpec(SPLIT_SCHEMES[value["scheme"]])
    else:
        assert [spec.name for spec in cfg.estimators] == [value[0]["name"]]
    report = bench.run(cfg)
    assert report.rows and all(row.ok for row in report.rows)


def write_replication_csvs(tmp_path, count):
    for i in range(count):
        write_csv(generate(named_dgp("confound-hetero", seed=i), 300), tmp_path / f"r{i}.csv")
    return {"csv": str(tmp_path / "r*.csv")}


class TestNoGroundTruth:
    """A replication whose evaluation rows carry no ground truth reports one
    error row per estimator and fits nothing."""

    def test_every_row_is_the_error_and_no_estimator_runs(
        self, tmp_path, capsys, monkeypatch, processes
    ):
        processes(1)  # every replication in this process, where the spies count
        for i in range(2):
            data = generate(named_dgp("confound-hetero", seed=i), 300)
            write_csv(Dataset(data.x, data.t, data.y), tmp_path / f"r{i}.csv")
        calls = []
        for name, (check, fit_predict) in bench._ESTIMATORS.items():
            def spy(*args, _name=name, _fit_predict=fit_predict, **kwargs):
                calls.append(_name)
                return _fit_predict(*args, **kwargs)

            monkeypatch.setitem(bench._ESTIMATORS, name, (check, spy))
        cfg = {"dgp": {"csv": str(tmp_path / "r*.csv")}, "estimators": ALL_FIVE,
               "output": str(tmp_path / "out")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(tmp_path / "config.json")]) == 1
        assert calls == []
        names = [e if isinstance(e, str) else e["name"] for e in ALL_FIVE]
        lines = ["estimator,replication,sqrt_pehe,eps_ate,ate_error_signed,status"]
        error = "error: dataset carries no ground-truth potential outcomes"
        lines += [f"{name},{i},,,,{error}" for i in range(2) for name in names]
        lines += [f"{name},{stat},,,,n=0" for name in names for stat in ("mean", "sd")]
        assert (tmp_path / "out" / "report.csv").read_text() == "\n".join(lines) + "\n"
        assert (tmp_path / "out" / "report.md").read_text().endswith(
            "".join(f"| {name} | failed | failed | 0 (2 failed) |\n" for name in names)
        )
        assert capsys.readouterr().err.endswith(
            f"estimators with no successful replication: {', '.join(names)}\n"
        )


class TestParallelReplications:
    """bench.run() runs its replications in forked workers, with bitwise the
    serial reports, and raises the serial run's exception."""

    @pytest.mark.parametrize("source", ["dgp", "csv"])
    @pytest.mark.parametrize("reps", [3, 4])
    def test_reports_are_bitwise_the_serial_ones(
        self, tmp_path, processes, source, reps
    ):
        dgp = {"family": "confound-hetero"}
        if source == "csv":
            dgp = write_replication_csvs(tmp_path, reps)
        cfg = quick_config(dgp=dgp, replications=reps, estimators=ALL_FIVE)
        reports = {}
        # P on 1, 2 and 3 CPUs: one process per replication below two per CPU
        for count, procs in zip((1, 2, 3), {3: (1, 3, 3), 4: (1, 2, 4)}[reps]):
            processes(count)
            report = bench.run(cfg)
            assert processes.counts == [procs]
            assert all(r.ok for r in report.rows)
            path = report.to_csv(tmp_path / f"report-{count}.csv")
            reports[count] = (path.read_bytes(), report.to_markdown())
            assert multiprocessing.active_children() == []
        assert reports[2] == reports[1] and reports[3] == reports[1]

    def test_a_replication_worker_that_dies_raises(self, processes, monkeypatch):
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
        self, tmp_path, capsys, processes, count
    ):
        # replication 1 runs in a worker, and 2 (malformed too) in the caller
        # at P = 2 or in another worker at P = 3: replication 1's error wins
        processes(count)
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

    def test_report_csv_holds_no_wall_time(self, tmp_path):
        report = bench.run(quick_config())
        path = report.to_csv(tmp_path / "report.csv")
        header = "estimator,replication,sqrt_pehe,eps_ate,ate_error_signed,status"
        assert path.read_text().splitlines()[0] == header

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

    def test_verify_times_each_suite_it_runs(self, monkeypatch):
        def suite(kind, pause):
            def run(seed):
                time.sleep(pause)
                return bench.VerifyResult(kind, True, [f"{kind} at seed {seed}"])
            return run

        for kind in bench.SUITES:
            monkeypatch.setattr(bench, f"verify_{kind}", suite(kind, 0.05 * (kind == "lemma")))
        results = bench.verify("all", seed=3)
        assert [r.lines[0] for r in results] == [f"{kind} at seed 3" for kind in bench.SUITES]
        assert all(len(r.lines) == 2 and re.fullmatch(r"elapsed: \d+\.\d\ds", r.lines[1])
                   for r in results)
        assert float(results[1].lines[1][len("elapsed: "):-1]) >= 0.05
        assert bench.verify("lemma")[0].lines[-1].startswith("elapsed: ")

    def test_a_suite_called_directly_is_not_timed(self, monkeypatch):
        monkeypatch.setattr(bench, "GRADIENT_NETWORKS", 2)
        monkeypatch.setattr(bench, "LEMMA_ORACLES", 20)
        monkeypatch.setattr(bench, "ORTHOGONALITY_POINTS", 2)
        monkeypatch.setattr(theory, "MC_SAMPLES", 10_000)
        results = [bench.verify_gradients(), bench.verify_lemma(), bench.verify_orthogonality()]
        assert [line for r in results for line in r.lines if line.startswith("elapsed")] == []

    def test_all_returns_three_results(self, monkeypatch):
        # smaller orthogonality settings keep this test quick
        monkeypatch.setattr(bench, "ORTHOGONALITY_POINTS", 2)
        monkeypatch.setattr(theory, "MC_SAMPLES", 20_000)
        results = bench.verify("gradients") + [bench.verify_orthogonality()]
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("kind", bench.SUITES)
    def test_a_suite_is_a_function_of_its_seed_alone(self, kind):
        assert str(inspect.signature(getattr(bench, f"verify_{kind}"))) == "(seed=0)"


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
        monkeypatch.setattr(bench, "GRADIENT_NETWORKS", 3)
        result = bench.verify_gradients(seed=0)
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

    @staticmethod
    def break_g0(monkeypatch, g0):
        """Every oracle the suite draws gets g0 = g0(its own g0 at x)."""

        def broken_oracle_of(spec):
            oracle = oracle_of(spec)
            return replace(oracle, g0=lambda x: g0(oracle.g0(x)))

        monkeypatch.setattr(bench, "oracle_of", broken_oracle_of)

    @pytest.mark.parametrize("g0, gap", [(lambda v: v + 1.0, "1.000e+00"),
                                         (lambda v: math.nan, "nan")], ids=["off-by-1", "nan"])
    def test_a_broken_identity_fails_the_suite(self, monkeypatch, g0, gap):
        self.break_g0(monkeypatch, g0)
        result = bench.verify_lemma(seed=0)
        assert not result.passed
        assert result.lines[1:3] == [
            f"max |h_direct - theta*(t-e)|: {gap} (tolerance 1e-12)",
            f"max |mixture - g0|: {gap} (tolerance 1e-12)",
        ]

    def test_a_broken_identity_exits_1(self, monkeypatch, capsys):
        self.break_g0(monkeypatch, lambda v: v + 1.0)
        assert main(["verify", "lemma"]) == 1
        assert capsys.readouterr().out.startswith("[FAIL] verify lemma\n")


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

    @pytest.mark.parametrize("seed", [0, 1, 23])
    def test_constant_directions_are_found_at_the_probe_points(self, seed):
        # the same directions and constants as three fresh draws from
        # default_rng(seed + k), the rule before, which collided across seeds
        _, directions, _, xs = self._points(seed)
        d = xs.shape[1]
        found = 0
        for k, pert in enumerate(directions):
            rng = np.random.default_rng(seed + k)
            fresh = [pert.delta_g(rng.standard_normal(d)) for _ in range(3)]
            is_const, c = bench._is_constant_g_direction(pert, xs[:3])
            assert is_const == (max(fresh) - min(fresh) < 1e-12)
            if is_const:
                found += abs(c) >= 0.5
                assert c == fresh[0]
        assert found > 0

    def test_seed_0_report_unchanged(self):
        result = bench.verify_orthogonality(seed=0)
        assert result.passed
        assert result.lines[:4] == [
            "finite-difference probes: 200 (20 points x 10 directions, 100000 samples each)",
            "within 3 MC stderr of 0: 200/200 (100.0%, need >= 95%)",
            "analytic closed form exactly 0 on all probes: True",
            "negative control rejected 0 at 3 sigma: 15/15",
        ]
