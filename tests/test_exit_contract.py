"""The command line's exit contract, as one property over drawn commands,
valid and not: main returns 0, 1 or 2 and raises nothing; exit 2 leaves
every file as it was, and no new one; exits 0 and 1 leave their outputs
whole."""

import contextlib
import csv
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnn.cli import main
from cdnn.data import DGP_FAMILIES, generate, load_csv, named_dgp
from cdnn.estimator import CdnnConfig, fit, load_checkpoint, save_checkpoint

# a fixed budget of the same examples on every run
EXAMPLES = {"deadline": None, "derandomize": True}
# cdnn at its smallest: one epoch of a width-2 layer
TINY_CDNN = {"epochs": 1, "hidden_widths": [2]}


@pytest.fixture(scope="module")
def model_bytes():
    """A checkpoint on two covariates, as bytes."""
    est = fit(generate(named_dgp("confound-linear", d=2), 40), "freezing",
              CdnnConfig(epochs=1, hidden_widths=(2,), ensemble_size=1))
    archive = io.BytesIO()
    save_checkpoint(est, archive)
    return archive.getvalue()


@contextlib.contextmanager
def inside_a_new_directory():
    """A new empty working directory for the block, removed afterwards."""
    before = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            yield
        finally:
            os.chdir(before)


def snapshot():
    """Every file and directory under the working directory: its bytes, or
    None for a directory."""
    found = {}
    for root, dirs, files in os.walk("."):
        found.update({os.path.join(root, d): None for d in dirs})
        for name in files:
            with open(os.path.join(root, name), "rb") as fh:
                found[os.path.join(root, name)] = fh.read()
    return found


# each example is valid but for at most one flaw: a flaw of its own kind, or
# one of the CSV file it reads
CSV_FLAWS = ["no-content", "no-rows", "bad-field", "t-of-2"]


def csv_text(rng, rows, d, has_gt, flaw):
    """CSV text of `rows` rows on d covariates under the schema, with
    `flaw` from CSV_FLAWS, if any."""
    t = rng.integers(0, 2, rows)
    y1, y0 = rng.normal(size=rows), rng.normal(size=rows)
    columns = [t, np.where(t == 1, y1, y0)] + ([y1, y0] if has_gt else [])
    columns += list(rng.normal(size=(d, rows)))
    header = ["t", "y"] + (["y1", "y0"] if has_gt else []) + [f"x{j}" for j in range(d)]
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    if flaw == "no-content":
        return ""
    if flaw == "no-rows":
        lines = lines[:1]
    elif flaw in ("bad-field", "t-of-2"):
        fields = lines[-1].split(",")
        fields[0 if flaw == "t-of-2" else -1] = "2" if flaw == "t-of-2" else "oops"
        lines[-1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def flaws(*own):
    """One flaw of `own` or CSV_FLAWS, or none, which is drawn as often as
    all the flaws together."""
    kinds = [*own, *CSV_FLAWS]
    return st.sampled_from([None] * len(kinds) + kinds)


@st.composite
def bench_configs(draw):
    """A bench config and the CSV text it reads, if any."""
    flaw = draw(flaws("no-estimator", "unknown-estimator", "zero-epochs", "unknown-family",
                      "d-of-1", "n-below-3", "unknown-scheme", "fractions-past-1",
                      "zero-replications", "output-is-a-file", "csv-with-n"))
    entries = ["ols_lr1", "ols_lr2", "dml", {"name": "cdnn_freezing", **TINY_CDNN},
               {"name": "cdnn_explicit", **TINY_CDNN}]
    estimators = draw(st.permutations(entries))[: draw(st.integers(1, 3))]
    estimators = {"no-estimator": [], "unknown-estimator": estimators + ["no_such_estimator"],
                  "zero-epochs": [{"name": "cdnn_freezing", "epochs": 0}]}.get(flaw, estimators)
    config = {"estimators": estimators,
              "replications": draw(st.integers(1, 2)) if flaw != "zero-replications" else 0,
              "output": draw(st.sampled_from(["out", "out/deeper", "."]))}
    text = None
    if flaw in CSV_FLAWS or flaw == "csv-with-n" or draw(st.booleans()):
        config["dgp"] = {"csv": "rows.csv"}
        config["replications"] = 1  # one per file
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        # a file without ground truth fails every estimator's metrics: exit 1
        text = csv_text(rng, draw(st.integers(0, 10)), draw(st.integers(1, 3)),
                        draw(st.booleans()), flaw if flaw in CSV_FLAWS else None)
        if flaw == "csv-with-n":
            config["n"] = 20
    else:
        config["dgp"] = {"family": draw(st.sampled_from(DGP_FAMILIES)), "d": 2}
        config["n"] = draw(st.integers(0, 2) if flaw == "n-below-3" else st.integers(12, 60))
        if flaw == "unknown-family":
            config["dgp"]["family"] = "no-such-family"
        elif flaw == "d-of-1":
            config["dgp"]["d"] = 1
    config["split"] = {
        "unknown-scheme": {"scheme": "no-such-scheme"},
        "fractions-past-1": {"fractions": [0.5, 0.5, 0.5]},
    }.get(flaw, draw(st.sampled_from([{"scheme": "ihdp_63_27_10"},
                                      {"scheme": "twins_news_56_24_20"},
                                      {"fractions": [0.5, 0.3, 0.2]}])))
    if flaw == "output-is-a-file":
        config["output"] = "config.json"
    return config, text


def check_reports(config):
    """Both reports in the config's output, whole: a CSV row per
    (estimator, replication) and two aggregate rows per estimator, and a
    table row per estimator."""
    directory = config.get("output", ".")
    names = [e if isinstance(e, str) else e["name"] for e in config["estimators"]]
    replications = config.get("replications", 1)
    with open(os.path.join(directory, "report.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["estimator", "replication"]
    assert len(rows) == 1 + len(names) * (replications + 2)
    with open(os.path.join(directory, "report.md"), encoding="utf-8") as fh:
        table = fh.read().splitlines()
    assert [line.split(" | ")[0] for line in table[2:]] == [f"| {name}" for name in names]


@settings(max_examples=60, **EXAMPLES)
@given(drawn=bench_configs())
def test_bench_keeps_the_exit_contract(drawn):
    config, text = drawn
    with inside_a_new_directory():
        if text is not None:
            with open("rows.csv", "w", encoding="utf-8") as fh:
                fh.write(text)
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        before = snapshot()
        code = main(["bench", "--config", "config.json"])
        assert code in (0, 1, 2)
        if code == 2:
            assert snapshot() == before
        else:
            check_reports(config)


@st.composite
def file_commands(draw):
    """argv of generate, fit or score, whose --out comes last, and the CSV
    text that fit and score read."""
    flaw = draw(flaws("out-in-a-missing-directory", "out-is-a-directory", "n-of-0", "d-of-1",
                      "fraction-past-1", "model-not-an-archive", "no-model", "width-of-3"))
    command = draw(st.sampled_from(["generate", "fit", "score"]))
    d = 3 if flaw == "width-of-3" else 2  # the model's width
    if command == "generate":
        argv = ["generate", "--family", draw(st.sampled_from(DGP_FAMILIES)),
                "--n", "0" if flaw == "n-of-0" else str(draw(st.integers(1, 40))),
                "--d", "1" if flaw == "d-of-1" else "3"]
    elif command == "fit":
        fraction = "1.5" if flaw == "fraction-past-1" else draw(st.sampled_from(["0", "0.3"]))
        argv = ["fit", "--data", "rows.csv", "--epochs", "1", "--hidden", "2",
                "--ensemble-size", str(draw(st.integers(1, 2))), "--validation-fraction", fraction]
    else:
        models = {"model-not-an-archive": "rows.csv", "no-model": "missing.npz"}
        argv = ["score", "--model", models.get(flaw, "model.npz"), "--data", "rows.csv"]
    out = {"out-in-a-missing-directory": "missing/o.out", "out-is-a-directory": "adir"}.get(
        flaw, draw(st.sampled_from(["o.out", "earlier.out", os.devnull])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    text = csv_text(rng, draw(st.integers(0, 10)), d, draw(st.booleans()),
                    flaw if flaw in CSV_FLAWS else None)
    return argv + ["--out", out], text


def check_output(argv, out):
    """The output of an exit-0 command, whole."""
    if argv[0] == "generate":
        assert len(load_csv(out)) == int(argv[argv.index("--n") + 1])
    elif argv[0] == "fit":
        load_checkpoint(out)
    else:
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "ite" and len(lines) == 1 + len(load_csv("rows.csv"))


@settings(max_examples=60, **EXAMPLES)
@given(drawn=file_commands())
def test_file_commands_keep_the_exit_contract(model_bytes, drawn):
    argv, text = drawn
    out = argv[-1]
    with inside_a_new_directory():
        with open("rows.csv", "w", encoding="utf-8") as fh:
            fh.write(text)
        with open("model.npz", "wb") as fh:
            fh.write(model_bytes)
        with open("earlier.out", "wb") as fh:
            fh.write(b"earlier\n")
        os.mkdir("adir")
        before = snapshot()
        code = main(argv)
        assert code in (0, 2)
        after = snapshot()
        if code == 2:
            assert after == before
        else:
            # no temporary file is left beside the output, and nothing else moved
            others = {k: v for k, v in after.items() if k != f"./{out}"}
            assert others == {k: v for k, v in before.items() if k != f"./{out}"}
            if out != os.devnull:
                check_output(argv, out)
