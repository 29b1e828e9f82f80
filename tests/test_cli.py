"""End-to-end command line checks and exit codes."""

import csv
import json

import numpy as np
import pytest

from cdnn import bench, cli
from cdnn.cli import main
from cdnn.data import Dataset, load_csv
from cdnn.estimator import load_checkpoint
from test_estimator import reference_save_checkpoint_v1


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
        ],
        ids=["string-n", "int-hidden-widths", "string-split-fractions", "string-redraw-baseline",
             "fractional-n", "fractional-replications", "bool-seed", "fractional-dgp-d",
             "string-dgp-seed"],
    )
    def test_config_value_of_the_wrong_type_returns_2(self, tmp_path, capsys, edit):
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "estimators": ["ols_lr1"]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**cfg, **edit}))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad config value: ")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": "cdnn_freezing", "epochs": 0}, "epochs"),
            ({"name": "cdnn_explicit", "hidden_widths": [2.5]}, "hidden widths"),
            ({"name": "cdnn_freezing", "optimizer": "bogus"}, "unknown optimizer"),
        ],
        ids=["zero-epochs", "fractional-width", "unknown-optimizer"],
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

    def test_workers_key_returns_2(self, tmp_path, capsys):
        cfg = {"dgp": {"family": "confound-linear"}, "n": 100, "estimators": ["ols_lr1"],
               "workers": 2}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: workers\n"

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

    def test_score_bad_checkpoint_returns_2(self, tmp_path):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "50",
              "--out", str(data_path)])
        bad = tmp_path / "bad.npz"
        np.savez(bad, meta=np.frombuffer(b'{"format": 99}', dtype=np.uint8))
        assert main(["score", "--model", str(bad), "--data", str(data_path),
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize(
        "corruption",
        [
            "unknown-config-key", "missing-array", "wrong-shape-mask", "wrong-dtype-array",
            "non-numeric-width", "truncated-archive", "npy-file", "text-file",
            "unknown-variant", "mismatched-target-kind", "stage-1-treatment-edge-of-one",
            "stage-2-encoder-weight-moved-one-ulp", "format-1-stage-2-mask-all-false",
            "digit-string-covariate-width", "fractional-config-width",
        ],
    )
    def test_score_malformed_checkpoint_returns_2(self, tmp_path, capsys, corruption):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "60",
              "--out", str(data_path)])
        model_path = tmp_path / "model.npz"
        assert main(["fit", "--data", str(data_path), "--out", str(model_path),
                     "--epochs", "2", "--ensemble-size", "1", "--hidden", "4"]) == 0
        if corruption in ("wrong-shape-mask", "mismatched-target-kind",
                          "format-1-stage-2-mask-all-false"):
            reference_save_checkpoint_v1(load_checkpoint(model_path), model_path)
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
        elif corruption == "wrong-shape-mask":
            arrays["m0.s2.mask0"] = np.zeros((2, 2), dtype=bool)
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
        elif corruption == "unknown-variant":
            meta["variant"] = "bogus"
        elif corruption == "mismatched-target-kind":
            # a freezing fit's stored stage 2 under the explicit-residual label
            meta["variant"] = "explicit_residual"
        elif corruption == "format-1-stage-2-mask-all-false":
            arrays.update({k: np.zeros_like(a) for k, a in arrays.items() if ".mask" in k})
        else:
            stage = 1 if corruption == "stage-1-treatment-edge-of-one" else 2
            net = load_checkpoint(model_path).members[0][stage - 1].network
            if stage == 1:
                net.treatment_weights()[0][1][0] = 1.0
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

    def test_fit_bad_hidden_returns_2(self, tmp_path):
        data_path = tmp_path / "d.csv"
        main(["generate", "--family", "confound-linear", "--n", "50",
              "--out", str(data_path)])
        assert main(["fit", "--data", str(data_path), "--out", str(tmp_path / "m.npz"),
                     "--hidden", "sixty-four"]) == 2
