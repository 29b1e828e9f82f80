"""End-to-end command line checks and exit codes."""

import csv
import errno
import json
import os
import stat
import threading

import numpy as np
import pytest

from cdnn import bench, cli
from cdnn import data as dmod
from cdnn.cli import main
from cdnn.data import Dataset, load_csv, write_csv
from cdnn.estimator import CdnnConfig, fit, load_checkpoint, save_checkpoint


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(
            ["generate", "--family", "confound-hetero", "--n", "120", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        ds = load_csv(out)
        assert len(ds) == 120
        assert ds.has_ground_truth

    @pytest.mark.parametrize(
        "size", [["--n", str(10**95)], ["--n", "10", "--d", str(10**68)]], ids=["huge-n", "huge-d"]
    )
    def test_a_size_past_the_index_range_returns_2(self, tmp_path, capsys, size):
        out = tmp_path / "data.csv"
        assert main(["generate", "--family", "confound-linear", *size, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad config value: ")
        assert not out.exists()


class TestBench:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = {
            "dgp": {"family": "confound-linear", "seed": 2},
            "n": 300,
            "replications": 2,
            "estimators": ["ols_lr1", "ols_lr2"],
            "seed": 4,
            "output": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "report.csv").exists()
        md = (tmp_path / "out" / "report.md").read_text()
        assert "ols_lr1" in md and "±" in md

    def test_bad_config_returns_2(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dgp": {"family": "confound-linear"}, "n": 100,
                                        "estimators": ["ols_lr1"], "bogus_key": 1}))
        assert main(["bench", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            {"n": "abc"},
            {"estimators": [{"name": "cdnn_freezing", "hidden_widths": 5}]},
            {"split": {"fractions": "x"}},
            {"redraw_baseline": "no"},
            {"n": 250.9},
            {"replications": 2.7},
            {"seed": True},
            {"dgp": {"family": "confound-linear", "d": 2.5}},
            {"dgp": {"family": "confound-linear", "seed": "0"}},
            {"output": 5},
            {"output": ["a"]},
            {"output": None},
            {"dgp": {"family": "confound-linear", "d": 10**68}},
            {"n": 10**95},
            {"n": 10**95, "output": "out"},
            {"estimators": [{"name": "cdnn_freezing", "hidden_widths": [10**30]}],
             "output": "out"},
            {"estimators": [{"name": "cdnn_explicit", "ensemble_size": 10**30}],
             "output": "out"},
        ],
        ids=["string-n", "int-hidden-widths", "string-split-fractions", "string-redraw-baseline",
             "fractional-n", "fractional-replications", "bool-seed", "fractional-dgp-d",
             "string-dgp-seed", "int-output", "list-output", "null-output", "huge-dgp-d",
             "huge-n", "huge-n-with-output", "huge-hidden-width", "huge-ensemble-size"],
    )
    def test_config_value_of_the_wrong_type_returns_2(self, tmp_path, capsys, monkeypatch, edit):
        monkeypatch.setattr(bench, "_run_replication", lambda *a: pytest.fail("ran"))
        monkeypatch.chdir(tmp_path)  # a relative output would be made here
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "estimators": ["ols_lr1"]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**cfg, **edit}))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad config value: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": "cdnn_freezing", "epochs": 0}, "epochs"),
            ({"name": "cdnn_explicit", "hidden_widths": [2.5]}, "hidden widths"),
            ({"name": "cdnn_freezing", "optimizer": "bogus"},
             "unknown cdnn_freezing parameter keys: optimizer"),
            ({"name": "cdnn_freezing", "epochs": 2.5}, "epochs must be an integer >= 1"),
            ({"name": "cdnn_freezing", "batch_size": 1.5}, "batch_size must be an integer >= 1"),
            ({"name": "cdnn_explicit", "ensemble_size": 2.0},
             "ensemble_size must be an integer >= 1"),
            ({"name": "cdnn_freezing", "freeze_depth": "2"},
             "freeze_depth must be an integer >= 1"),
            ({"name": "cdnn_freezing", "treatment_scale": "x"},
             "treatment_scale must be a finite number"),
            ({"name": "cdnn_freezing", "learning_rate": True},
             "learning_rate must be a finite number"),
            ({"name": "cdnn_explicit", "momentum": None},
             "unknown cdnn_explicit parameter keys: momentum"),
            ({"name": "cdnn_explicit", "validation_fraction": True},
             "validation_fraction must be a finite number"),
            ({"name": "cdnn_freezing", "concat_inputs": "no"},
             "concat_inputs must be true or false"),
        ],
        ids=["zero-epochs", "fractional-width", "unknown-optimizer", "fractional-epochs",
             "fractional-batch-size", "float-ensemble-size", "string-freeze-depth",
             "string-treatment-scale", "bool-learning-rate", "null-momentum",
             "bool-validation-fraction", "string-concat-inputs"],
    )
    def test_bad_cdnn_setting_returns_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, entry, message
    ):
        monkeypatch.setattr(bench, "_run_replication", lambda *a: pytest.fail("ran"))
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "replications": 2,
               "estimators": ["ols_lr1", entry], "output": str(tmp_path / "out")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "estimators, name",
        [
            ([{"name": "dml", "folds": 2}, {"name": "dml", "folds": 5}], "dml"),
            (["ols_lr1", "ols_lr2", {"name": "ols_lr1"}], "ols_lr1"),
            ([{"name": "cdnn_freezing", "epochs": 3}, "dml", {"name": "cdnn_freezing"}],
             "cdnn_freezing"),
        ],
        ids=["dml-twice", "ols-string-and-dict", "cdnn-twice"],
    )
    def test_an_estimator_named_twice_returns_2(
        self, tmp_path, capsys, monkeypatch, estimators, name
    ):
        monkeypatch.setattr(bench, "_run_replication", lambda *a: pytest.fail("ran"))
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "replications": 2,
               "estimators": estimators, "output": str(tmp_path / "out")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: estimator {name!r} is named more than once\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"clamp": [0.9, 0.1]}, "dml clamp must be two numbers 0 < lo < hi < 1"),
            ({"clamp": [0.0, 0.5]}, "dml clamp must be two numbers 0 < lo < hi < 1"),
            ({"clamp": [0.5, 1.0]}, "dml clamp must be two numbers 0 < lo < hi < 1"),
            ({"clamp": [0.1]}, "dml clamp must be two numbers 0 < lo < hi < 1"),
            ({"clamp": ["0.1", 0.9]}, "dml clamp must be two numbers 0 < lo < hi < 1"),
            ({"clamp": 0.1}, "dml clamp must be two numbers 0 < lo < hi < 1"),
            ({"crossfit": "no"}, "crossfit must be true or false"),
            ({"crossfit": 0}, "crossfit must be true or false"),
            ({"ridge_lambda": -5}, "dml ridge_lambda must be a finite number >= 0"),
            ({"ridge_lambda": "1"}, "dml ridge_lambda must be a finite number >= 0"),
            ({"ridge_lambda": True}, "dml ridge_lambda must be a finite number >= 0"),
            ({"ridge_lambda": float("inf")}, "dml ridge_lambda must be a finite number >= 0"),
            ({"ridge_lambda": 10**400}, "dml ridge_lambda must be a finite number >= 0"),
            ({"folds": 1}, "dml folds must be >= 2"),
            ({"folds": "x"}, "folds must be an integer"),
            ({"folds": 2.0}, "folds must be an integer"),
        ],
        ids=["reversed-clamp", "zero-clamp", "one-clamp", "short-clamp", "string-clamp",
             "scalar-clamp", "string-crossfit", "int-crossfit", "negative-ridge",
             "string-ridge", "bool-ridge", "infinite-ridge", "huge-int-ridge", "one-fold",
             "string-folds", "float-folds"],
    )
    def test_bad_dml_setting_returns_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, setting, message
    ):
        monkeypatch.setattr(bench, "_run_replication", lambda *a: pytest.fail("ran"))
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "replications": 2,
               "estimators": ["ols_lr1", {"name": "dml", **setting}],
               "output": str(tmp_path / "out")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad config value: {message}, got ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fractions",
        [[float("nan"), 0.5, 0.5], [0.5, float("inf"), 0.25], ["0.5", "0.25", "0.25"],
         [True, 0.5, 0.5], [10**400, 0.5, 0.5]],
        ids=["nan", "infinite", "strings", "bool", "huge-int"],
    )
    def test_bad_split_fractions_return_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, fractions
    ):
        monkeypatch.setattr(bench, "_run_replication", lambda *a: pytest.fail("ran"))
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "estimators": ["ols_lr1"],
               "split": {"fractions": fractions}, "output": str(tmp_path / "out")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: bad config value: split fractions must be three finite numbers > 0, got "
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"n": 5}, "csv input takes no n or redraw_baseline"),
            ({"redraw_baseline": True}, "csv input takes no n or redraw_baseline"),
            ({"split": {"scheme": "ihdp_63_27_10", "fractions": [0.2, 0.2, 0.6]}},
             "split scheme 'ihdp_63_27_10' fixes its fractions"),
        ],
        ids=["csv-with-n", "csv-with-redraw-baseline", "named-scheme-with-fractions"],
    )
    def test_a_setting_that_cannot_apply_returns_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, edit, message
    ):
        monkeypatch.setattr(bench, "_run_replication", lambda *a: pytest.fail("ran"))
        rows = str(tmp_path / "a.csv")
        assert main(["generate", "--family", "confound-linear", "--n", "50", "--out", rows]) == 0
        cfg = {"dgp": {"csv": rows}, "estimators": ["ols_lr1"], "output": str(tmp_path / "out"),
               **edit}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit", [{"n": 3}, {"n": 50, "split": {"fractions": [0.98, 0.01, 0.01]}}],
        ids=["n-3", "one-percent-parts"],
    )
    def test_a_split_too_thin_for_n_returns_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, edit
    ):
        monkeypatch.setattr(bench, "_run_replication", lambda *a: pytest.fail("ran"))
        cfg = {"dgp": {"family": "confound-linear"}, "estimators": ["ols_lr1"],
               "output": str(tmp_path / "out"), **edit}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: split of n={edit['n']} leaves an empty part\n"
        assert not (tmp_path / "out").exists()

    def test_good_dml_settings_run(self, tmp_path):
        cfg = {"dgp": {"family": "confound-linear"}, "n": 200,
               "estimators": [{"name": "dml", "folds": 3, "crossfit": False,
                               "ridge_lambda": 0, "clamp": [0.05, 0.95]}],
               "output": str(tmp_path / "out")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"dgp": "csv", "estimators": ["ols_lr1"]}, "dgp must be an object, got 'csv'"),
            ({"dgp": {"csv": 5}, "estimators": ["ols_lr1"]}, "csv must be a string, got 5"),
            ({"dgp": {"family": "confound-linear"}, "estimators": ["ols_lr1"],
              "split": "ihdp_63_27_10"}, "split must be an object, got 'ihdp_63_27_10'"),
            ({"dgp": {"family": "confound-linear"}, "estimators": "ols_lr1"},
             "estimators must be an array, got 'ols_lr1'"),
            ({"dgp": {"family": "confound-linear"}, "estimators": {"name": "ols_lr1"}},
             "estimators must be an array, got {'name': 'ols_lr1'}"),
            ([1, 2], "the config must be an object, got [1, 2]"),
            ("config", "the config must be an object, got 'config'"),
        ],
        ids=["string-dgp", "int-csv-glob", "string-split", "string-estimators",
             "object-estimators", "array-config", "string-config"],
    )
    def test_a_container_of_the_wrong_type_is_named(
        self, tmp_path, capsys, monkeypatch, config, message
    ):
        monkeypatch.setattr(bench, "_run_replication", lambda *a: pytest.fail("ran"))
        if isinstance(config, dict):
            config = {"n": 100, **config}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: bad config value: {message}\n"

    def test_workers_key_returns_2(self, tmp_path, capsys):
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "estimators": ["ols_lr1"],
               "workers": 2}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: workers\n"

    def test_non_utf8_config_returns_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b"\xff\xfe{}")
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: config {cfg_path} is not UTF-8 text\n"

    def test_output_that_cannot_be_a_directory_returns_2_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(bench, "run", lambda config: pytest.fail("ran"))
        afile = tmp_path / "afile"
        afile.write_text("")
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "estimators": ["ols_lr1"],
               "output": str(afile)}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert "File exists" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["under-a-file", "in-an-unwritable-directory"])
    def test_output_that_cannot_be_made_returns_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, case
    ):
        monkeypatch.setattr(bench, "run", lambda config: pytest.fail("ran"))
        afile = tmp_path / "afile"
        afile.write_text("")
        if case == "under-a-file":
            output, message = afile / "out" / "deeper", f"[Errno 20] Not a directory: '{afile}'"
        else:  # a root user passes any permission bits, so access() says no
            monkeypatch.setattr(os, "access", lambda path, mode: False)
            output = tmp_path / "new" / "out"
            message = f"[Errno 13] Permission denied: '{tmp_path}'"
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "estimators": ["ols_lr1"],
               "output": str(output)}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]

    def test_an_error_found_in_a_replication_leaves_no_output(self, tmp_path, capsys):
        # a CSV's split is checked per replication, after the run has begun
        rows = tmp_path / "tiny.csv"
        rows.write_text("t,y,x0\n0,1,0.1\n1,2,0.2\n0,1,0.3\n")
        cfg = {"dgp": {"csv": str(rows)}, "estimators": ["ols_lr1"],
               "output": str(tmp_path / "out")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: split of n=3 leaves an empty part\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_returns_2(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_returns_2(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("{not json")
        assert main(["bench", "--config", str(cfg_path)]) == 2


class TestVerify:
    def test_lemma_passes(self, capsys):
        assert main(["verify", "lemma"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "lemma" in out

    def test_gradients_passes(self, capsys):
        assert main(["verify", "gradients"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_orthogonality_seed_with_an_extreme_point_passes(self, capsys):
        # seed 23 used to exit 2: one random probe point made a perturbed
        # propensity leave [0.001, 0.999]
        assert main(["verify", "orthogonality", "--seed", "23"]) == 0
        assert "[PASS] verify orthogonality" in capsys.readouterr().out

    def test_failed_check_returns_1(self, capsys, monkeypatch):
        from cdnn import bench

        monkeypatch.setattr(
            bench, "verify", lambda kind, seed=0: [bench.VerifyResult(kind, False, ["boom"])]
        )
        assert main(["verify", "lemma"]) == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fit", "verify-gradients", "verify-lemma", "bench"])
def test_negative_seed_returns_2(tmp_path, capsys, command):
    if command == "fit":
        data = tmp_path / "rows.csv"
        main(["generate", "--family", "confound-linear", "--n", "60", "--out", str(data)])
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "model.npz"), "--seed", "-1"]
    elif command == "bench":
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"dgp": {"family": "confound-linear"}, "n": 100, "estimators": ["ols_lr1"], "seed": -1}
        ))
        argv = ["bench", "--config", str(cfg_path)]
    else:
        argv = ["verify", command.split("-")[1], "--seed", "-1"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer\n"


class TestScoreWriter:
    """`cdnn score` formats its whole column in one pass, with the bytes of a
    per-value f"{v:.17g}" join."""

    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1 / 3, -1 / 3, 2.0**53 + 2, -(2.0**60), 2.0**64, 1e22, 123456789012345678.0]

    @pytest.mark.parametrize("rows", [1, len(SPECIAL), 5000])
    def test_bytes_match_the_per_value_join(self, tmp_path, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        values[: len(self.SPECIAL)] = self.SPECIAL[:rows]
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: None)
        monkeypatch.setattr(cli, "load_csv", lambda path: Dataset(np.zeros((rows, 1)),
                                                                  np.zeros(rows), np.zeros(rows)))
        monkeypatch.setattr(cli, "predict_ite", lambda est, x: values)
        out = tmp_path / "ite.csv"
        assert main(["score", "--model", "m.npz", "--data", "d.csv", "--out", str(out)]) == 0
        joined = "ite\n" + "".join(f"{v:.17g}\n" for v in values.tolist())
        assert out.read_bytes() == joined.encode()


class TestFitAndScore:
    def test_round_trip(self, tmp_path):
        data_path = tmp_path / "train.csv"
        main(["generate", "--family", "confound-linear", "--n", "300", "--seed", "7",
              "--out", str(data_path)])
        model_path = tmp_path / "model.npz"
        code = main(
            ["fit", "--data", str(data_path), "--variant", "freezing",
             "--out", str(model_path), "--epochs", "30", "--ensemble-size", "1",
             "--hidden", "16,16"]
        )
        assert code == 0

        score_path = tmp_path / "ite.csv"
        assert main(["score", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(score_path)]) == 0
        with open(score_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ite"]
        values = np.array([float(r[0]) for r in rows[1:]])
        assert values.shape == (300,)
        assert np.all(np.isfinite(values))

    def test_out_without_suffix_is_written_as_given(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "60", "--out", str(data_path)])
        model_path = tmp_path / "model"
        capsys.readouterr()
        assert main(["fit", "--data", str(data_path), "--out", str(model_path), "--epochs", "2",
                     "--ensemble-size", "1", "--hidden", "4"]) == 0
        printed = capsys.readouterr().out.strip().rsplit(" -> ", 1)[1]
        assert printed == str(model_path)
        assert model_path.is_file() and not (tmp_path / "model.npz").exists()
        assert main(["score", "--model", printed, "--data", str(data_path),
                     "--out", str(tmp_path / "ite.csv")]) == 0

    def test_score_bad_checkpoint_returns_2(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "50",
              "--out", str(data_path)])
        for fmt in (99, 1):
            bad = tmp_path / f"format-{fmt}.npz"
            np.savez(bad, meta=np.frombuffer(json.dumps({"format": fmt}).encode(), dtype=np.uint8))
            capsys.readouterr()
            assert main(["score", "--model", str(bad), "--data", str(data_path),
                         "--out", str(tmp_path / "o.csv")]) == 2
            assert capsys.readouterr().err == f"error: unsupported checkpoint format {fmt}\n"
            assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "corruption",
        [
            "unknown-config-key", "missing-array", "wrong-dtype-array",
            "non-numeric-width", "truncated-archive", "npy-file", "text-file",
            "unknown-variant", "mismatched-target-kind", "stage-1-treatment-edge-of-one",
            "stage-2-encoder-weight-moved-one-ulp",
            "digit-string-covariate-width", "fractional-config-width", "huge-config-width",
        ],
    )
    def test_score_malformed_checkpoint_returns_2(self, tmp_path, capsys, corruption):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "60",
              "--out", str(data_path)])
        model_path = tmp_path / "model.npz"
        variant = "explicit_residual" if corruption == "mismatched-target-kind" else "freezing"
        assert main(["fit", "--data", str(data_path), "--out", str(model_path), "--variant",
                     variant, "--epochs", "2", "--ensemble-size", "1", "--hidden", "4"]) == 0
        with np.load(model_path) as blob:
            arrays = dict(blob)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        bad = tmp_path / "bad.npz"
        if corruption == "truncated-archive":
            bad.write_bytes(model_path.read_bytes()[:-100])
        elif corruption == "npy-file":
            with open(bad, "wb") as fh:
                np.save(fh, arrays["stage1"])
        elif corruption == "text-file":
            bad.write_text("t,y,x0\n0,1,2\n")
        elif corruption == "missing-array":
            del arrays["stage2"]
        elif corruption == "wrong-dtype-array":
            arrays["stage1"] = arrays["stage1"].astype(int)
        elif corruption == "unknown-config-key":
            meta["config"]["bogus"] = 1
        elif corruption == "non-numeric-width":
            meta["config"]["hidden_widths"] = ["x"]
        elif corruption == "digit-string-covariate-width":
            meta["covariate_width"] = str(meta["covariate_width"])
        elif corruption == "fractional-config-width":
            meta["config"]["hidden_widths"] = [4.5]
        elif corruption == "huge-config-width":
            meta["config"]["hidden_widths"] = [10**30]
        elif corruption == "unknown-variant":
            meta["variant"] = "bogus"
        elif corruption == "mismatched-target-kind":
            # an explicit-residual fit's fresh stage 2 under the freezing label
            meta["variant"] = "freezing"
        else:
            stage = 1 if corruption == "stage-1-treatment-edge-of-one" else 2
            net = load_checkpoint(model_path).members[0][stage - 1].network
            if stage == 1:
                net.theta[net.treatment_edges()[0]] = 1.0
            else:
                net.weight(0)[0, 0] = np.nextafter(net.weight(0)[0, 0], np.inf)
            arrays[f"stage{stage}"][0] = net.theta
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        if not bad.exists():
            np.savez(bad, **arrays)
        capsys.readouterr()
        assert main(["score", "--model", str(bad), "--data", str(data_path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "error: malformed checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["nan-stage-2-output-bias", "layer-1-weight-moved-at-depth-2"])
    def test_score_refuses_a_broken_checkpoint_before_writing(self, tmp_path, capsys, edit):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "60", "--out", str(data_path)])
        model_path = tmp_path / "model.npz"
        cfg = CdnnConfig(hidden_widths=(4, 3), freeze_depth=2, ensemble_size=1, epochs=2)
        save_checkpoint(fit(load_csv(data_path), "freezing", cfg), model_path)
        with np.load(model_path) as blob:
            arrays = dict(blob)
        if edit.startswith("nan"):
            arrays["stage2"][0, -1] = np.nan
            reason = "a parameter is not finite (NaN or inf)"
        else:  # the first entry of layer 1, which freeze_depth=2 holds
            net = load_checkpoint(model_path).members[0][1].network
            j = net.params[0].size + net.params[1].size
            arrays["stage2"][0, j] = np.nextafter(arrays["stage2"][0, j], np.inf)
            reason = "frozen stage-2 encoder differs from stage 1's"
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        capsys.readouterr()
        assert main(["score", "--model", str(bad), "--data", str(data_path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: malformed checkpoint: member 0: {reason}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["score", "fit"])
    def test_non_utf8_csv_returns_2(self, tmp_path, capsys, command):
        model_path = tmp_path / "model.npz"
        good = tmp_path / "good.csv"
        good.write_text("t,y,x0\n0,1,2\n1,3,4\n0,2,1\n1,1,0\n")
        assert main(["fit", "--data", str(good), "--out", str(model_path), "--epochs", "1",
                     "--ensemble-size", "1", "--hidden", "2", "--validation-fraction", "0"]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,y,x0\n0,1,2\n1,\xff\xfe,3\n")
        argv = {
            "score": ["score", "--model", str(model_path), "--out", str(tmp_path / "o.csv")],
            "fit": ["fit", "--out", str(tmp_path / "m2.npz")],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--data", str(bad)]) == 2
        assert "error: file is not UTF-8 text (row 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "fit"])
    def test_overflowing_ground_truth_returns_2(self, tmp_path, capsys, command):
        model_path = tmp_path / "model.npz"
        good = tmp_path / "good.csv"
        good.write_text("t,y,x0\n0,1,2\n1,3,4\n0,2,1\n1,1,0\n")
        assert main(["fit", "--data", str(good), "--out", str(model_path), "--epochs", "1",
                     "--ensemble-size", "1", "--hidden", "2", "--validation-fraction", "0"]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y,y1,y0,x0\n1,1e308,1e308,-1e308,0\n")  # y1 - y0 overflows
        argv = {
            "score": ["score", "--model", str(model_path), "--out", str(tmp_path / "o.csv")],
            "fit": ["fit", "--out", str(tmp_path / "m2.npz")],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--data", str(bad)]) == 2
        assert "error: ground truth theta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["--out", "--data", "--model"])
    def test_score_directory_path_returns_2(self, tmp_path, capsys, target):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "40", "--out", str(data_path)])
        model_path = tmp_path / "model.npz"
        assert main(["fit", "--data", str(data_path), "--out", str(model_path),
                     "--epochs", "1", "--ensemble-size", "1", "--hidden", "2"]) == 0
        paths = {"--model": model_path, "--data": data_path, "--out": tmp_path / "o.csv"}
        paths[target] = tmp_path
        argv = ["score"] + [str(part) for item in paths.items() for part in item]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fit_infinite_value_returns_2(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_text("t,y,x0\n0,1,2\n1,inf,3\n")
        assert main(["fit", "--data", str(data_path), "--out", str(tmp_path / "m.npz")]) == 2
        assert "non-finite value 'inf' in column 'y' (row 2)" in capsys.readouterr().err

    def test_fit_zero_epochs_returns_2(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "50", "--out", str(data_path)])
        model_path = tmp_path / "m.npz"
        capsys.readouterr()
        assert main(["fit", "--data", str(data_path), "--out", str(model_path),
                     "--epochs", "0"]) == 2
        assert "error: epochs" in capsys.readouterr().err
        assert not model_path.exists()

    def test_fit_zero_width_returns_2(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "50", "--out", str(data_path)])
        capsys.readouterr()
        assert main(["fit", "--data", str(data_path), "--out", str(tmp_path / "m.npz"),
                     "--hidden", "8,0"]) == 2
        assert capsys.readouterr().err.startswith("error: hidden widths must be integers >= 1")

    @pytest.mark.parametrize(
        "size", [["--hidden", str(10**30)], ["--hidden", f"8,{10**30}"],
                 ["--ensemble-size", str(10**30)]],
        ids=["huge-hidden", "huge-second-hidden", "huge-ensemble-size"],
    )
    def test_fit_size_past_the_index_range_returns_2(self, tmp_path, capsys, monkeypatch, size):
        monkeypatch.setattr(cli, "fit", lambda *a: pytest.fail("trained"))
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "50", "--out", str(data_path)])
        model_path = tmp_path / "m.npz"
        capsys.readouterr()
        assert main(["fit", "--data", str(data_path), "--out", str(model_path), *size]) == 2
        assert capsys.readouterr().err.startswith("error: bad config value: ")
        assert not model_path.exists()

    @pytest.mark.parametrize("command", ["generate", "fit", "score"])
    @pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
    def test_bad_out_returns_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                               command, target):
        for name in ("generate", "load_csv", "fit", "load_checkpoint", "predict_ite"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"ran {name}"))
        out = tmp_path / "missing" / "out" if target == "missing-directory" else tmp_path
        argv = {
            "generate": ["generate", "--family", "confound-linear", "--n", "50"],
            "fit": ["fit", "--data", str(tmp_path / "d.csv")],
            "score": ["score", "--model", str(tmp_path / "m.npz"),
                      "--data", str(tmp_path / "d.csv")],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        message = (f"--out {out} is a directory" if target == "a-directory"
                   else f"--out {out}: directory {out.parent} does not exist")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["generate", "fit", "score"])
    @pytest.mark.parametrize("target", ["in-an-unwritable-directory", "dev-null"])
    def test_out_checks_the_place_it_is_written_into_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, target
    ):
        data_path, model_path = tmp_path / "d.csv", tmp_path / "m.npz"
        assert main(["generate", "--family", "confound-linear", "--n", "50",
                     "--out", str(data_path)]) == 0
        assert main(["fit", "--data", str(data_path), "--out", str(model_path),
                     "--epochs", "1", "--ensemble-size", "1", "--hidden", "4"]) == 0
        capsys.readouterr()
        argv = {
            "generate": ["generate", "--family", "confound-linear", "--n", "50"],
            "fit": ["fit", "--data", str(data_path), "--epochs", "1", "--ensemble-size", "1",
                    "--hidden", "4"],
            "score": ["score", "--model", str(model_path), "--data", str(data_path)],
        }[command]
        # a root user passes any permission bits, so access() says no to every
        # directory; a path written in place needs only itself to be writable
        monkeypatch.setattr(os, "access", lambda path, mode: not os.path.isdir(path))
        if target == "dev-null":
            assert main(argv + ["--out", os.devnull]) == 0
            return
        for name in ("generate", "load_csv", "fit", "load_checkpoint", "predict_ite"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"ran {name}"))
        (tmp_path / "out").mkdir()
        out = tmp_path / "out" / "o"
        assert main(argv + ["--out", str(out)]) == 2
        directory = os.path.realpath(tmp_path / "out")
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{directory}'\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_fit_bad_hidden_returns_2(self, tmp_path):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "50",
              "--out", str(data_path)])
        assert main(["fit", "--data", str(data_path), "--out", str(tmp_path / "m.npz"),
                     "--hidden", "sixty-four"]) == 2

    @pytest.mark.parametrize("setting, message", [
        (["--epochs", "0"], "epochs must be an integer >= 1, got 0"),
        (["--hidden", "8,x"], "bad --hidden value '8,x'"),
    ], ids=["zero-epochs", "bad-hidden"])
    def test_fit_setting_is_checked_before_the_data_is_read(
        self, tmp_path, capsys, monkeypatch, setting, message
    ):
        monkeypatch.setattr(cli, "load_csv", lambda *a: pytest.fail("read the data"))
        model_path = tmp_path / "m.npz"
        argv = ["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(model_path)]
        assert main(argv + setting) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model_path.exists()


class _Spied(Exception):
    pass


class TestDefaults:
    """An absent flag is not passed: the code it feeds applies its own default."""

    def passed(self, monkeypatch, owner, name, argv, cases):
        """For each (flags, passed) of `cases`, the keyword arguments that
        `main(argv + flags)` gives owner.name."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            raise _Spied

        monkeypatch.setattr(owner, name, spy)
        for flags, _ in cases:
            with pytest.raises(_Spied):
                main(argv + flags)
        return calls

    def test_generate_passes_only_given_flags_to_named_dgp(self, tmp_path, monkeypatch):
        cases = [([], {}), (["--d", "3", "--seed", "4"], {"d": 3, "seed": 4}),
                 (["--seed", "0"], {"seed": 0})]
        argv = ["generate", "--family", "null-effect", "--n", "9", "--out", str(tmp_path / "o")]
        calls = self.passed(monkeypatch, cli, "named_dgp", argv, cases)
        assert calls == [passed for _, passed in cases]

    def test_verify_passes_only_given_flags_to_bench_verify(self, monkeypatch):
        cases = [([], {}), (["--seed", "5"], {"seed": 5})]
        calls = self.passed(monkeypatch, bench, "verify", ["verify", "lemma"], cases)
        assert calls == [passed for _, passed in cases]

    def test_fit_passes_only_given_flags_to_cdnn_config(self, tmp_path, monkeypatch):
        cases = [
            ([], {}),
            (["--seed", "1", "--epochs", "7", "--hidden", "5,4", "--ensemble-size", "2",
              "--validation-fraction", "0.25"],
             {"seed": 1, "epochs": 7, "hidden_widths": (5, 4), "ensemble_size": 2,
              "validation_fraction": 0.25}),
            (["--epochs", "2"], {"epochs": 2}),
        ]
        monkeypatch.setattr(cli, "load_csv", lambda path: None)
        argv = ["fit", "--data", "d.csv", "--out", str(tmp_path / "m.npz")]
        calls = self.passed(monkeypatch, cli, "CdnnConfig", argv, cases)
        assert calls == [passed for _, passed in cases]


class _FullDisk:
    """A file whose every write puts down half its data, then fails as a full
    disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestWholeOutputs:
    """Each output file appears whole or not at all: a write that fails
    midway leaves no target and no temporary file, and an earlier target's
    bytes as they were."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("inputs")
        assert main(["generate", "--family", "confound-linear", "--n", "80",
                     "--out", str(base / "d.csv")]) == 0
        assert main(["fit", "--data", str(base / "d.csv"), "--out", str(base / "m.npz"),
                     "--epochs", "1", "--ensemble-size", "1", "--hidden", "4"]) == 0
        (base / "bench.json").write_text(json.dumps(
            {"dgp": {"family": "confound-linear"}, "n": 60, "estimators": ["ols_lr1"],
             "output": "out"}
        ))
        return base

    # command -> (argv given the inputs and output directory, the target's name)
    COMMANDS = {
        "csv": (lambda i, o: ["generate", "--family", "confound-linear", "--n", "50",
                              "--out", str(o / "d.csv")], "d.csv"),
        "checkpoint": (lambda i, o: ["fit", "--data", str(i / "d.csv"), "--out", str(o / "m.npz"),
                                     "--epochs", "1", "--ensemble-size", "1", "--hidden", "4"],
                       "m.npz"),
        "score": (lambda i, o: ["score", "--model", str(i / "m.npz"), "--data", str(i / "d.csv"),
                                "--out", str(o / "ite.csv")], "ite.csv"),
        "report-csv": (lambda i, o: ["bench", "--config", str(i / "bench.json")], "report.csv"),
        "report-md": (lambda i, o: ["bench", "--config", str(i / "bench.json")], "report.md"),
    }

    def run_with_full_disk(self, monkeypatch, tmp_path, inputs, command):
        argv, target = self.COMMANDS[command]
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        real_open = open

        def open_target_only(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            writes = "w" in mode or "x" in mode
            return _FullDisk(fh) if writes and target in os.path.basename(str(file)) else fh

        monkeypatch.setattr(dmod, "open", open_target_only, raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(argv(inputs, out)) == 2
        return out, target

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys, inputs,
                                           command):
        out, target = self.run_with_full_disk(monkeypatch, tmp_path, inputs, command)
        assert "No space left on device" in capsys.readouterr().err
        assert not (out / target).exists()
        assert sorted(p.name for p in out.iterdir()) == (
            ["report.csv"] if command == "report-md" else []
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, inputs,
                                                   command):
        _, target = self.COMMANDS[command]
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / target).write_bytes(b"earlier\n")
        out, _ = self.run_with_full_disk(monkeypatch, tmp_path, inputs, command)
        assert (out / target).read_bytes() == b"earlier\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            {target} | ({"report.csv"} if command == "report-md" else set())
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_reader_of_the_earlier_file_keeps_reading_it(self, tmp_path, monkeypatch, inputs,
                                                           command):
        # the new file replaces the earlier one rather than overwriting it,
        # and takes the permissions of the umask as a new file from open does
        argv, target = self.COMMANDS[command]
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(tmp_path)
        old_umask = os.umask(0o027)
        try:
            (out / target).write_bytes(b"earlier\n")
            with open(out / target, "rb") as earlier:
                assert main(argv(inputs, out)) == 0
                assert earlier.read() == b"earlier\n"
        finally:
            os.umask(old_umask)
        assert (out / target).read_bytes() != b"earlier\n"
        assert stat.S_IMODE((out / target).stat().st_mode) == 0o640
        assert sorted(p.name for p in out.iterdir()) == (
            ["report.csv", "report.md"] if command.startswith("report") else [target]
        )

    @pytest.mark.parametrize("writer", ["write_csv", "save_checkpoint", "score"])
    def test_a_rewritten_file_keeps_its_mode(self, tmp_path, inputs, writer):
        target = tmp_path / "out"
        write = {
            "write_csv": lambda: write_csv(load_csv(inputs / "d.csv"), target),
            "save_checkpoint": lambda: save_checkpoint(load_checkpoint(inputs / "m.npz"), target),
            "score": lambda: main(["score", "--model", str(inputs / "m.npz"),
                                   "--data", str(inputs / "d.csv"), "--out", str(target)]),
        }[writer]
        old_umask = os.umask(0o022)
        try:
            write()
            assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~0o022
            target.chmod(0o600)
            write()
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_a_path_that_is_no_regular_file_is_written_in_place(self, tmp_path, inputs):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        argv, _ = self.COMMANDS["score"]
        assert main(argv(inputs, tmp_path)[:-1] + [str(pipe)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received[0].startswith(b"ite\n") and received[0].count(b"\n") == 81
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]

    def test_a_symlinked_target_is_written_through_the_link(self, tmp_path, inputs):
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "ite.csv").write_bytes(b"earlier\n")
        (tmp_path / "ite.csv").symlink_to(tmp_path / "elsewhere" / "ite.csv")
        argv, _ = self.COMMANDS["score"]
        assert main(argv(inputs, tmp_path)) == 0
        assert (tmp_path / "ite.csv").is_symlink()
        assert (tmp_path / "elsewhere" / "ite.csv").read_bytes().startswith(b"ite\n")
        assert sorted(p.name for p in (tmp_path / "elsewhere").iterdir()) == ["ite.csv"]
