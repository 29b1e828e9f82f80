"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Thresholds are pinned here; the synthetic-suite tolerances were frozen from
pilot runs against the exact oracles.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cdnn import bench
from cdnn.baselines import dml_ate, ols_lr1
from cdnn.data import (
    SplitSpec,
    concat_datasets,
    generate,
    load_csv,
    make_replications,
    named_dgp,
    oracle_of,
    split,
    write_csv,
)
from cdnn.estimator import CdnnConfig, fit, fit_stage1, predict_ite
from cdnn.metrics import eps_ate, sqrt_pehe

SEED = 20240 + 1


def report(num, ok, text):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        t0 = time.perf_counter()
        result = bench.verify_gradients(seed=SEED)
        elapsed = time.perf_counter() - t0
        ok = result.passed and elapsed < 5.0
        report(1, ok, f"{result.lines[1]}; runtime {elapsed:.2f}s < 5s")


class TestCriterion2LemmaIdentity:
    def test_thousand_oracles(self):
        t0 = time.perf_counter()
        result = bench.verify_lemma(seed=SEED)
        elapsed = time.perf_counter() - t0
        ok = result.passed and elapsed < 1.0
        report(2, ok, f"{result.lines[1]}; {result.lines[2]}; runtime {elapsed:.2f}s < 1s")


class TestCriterion3Orthogonality:
    def test_gateaux_suite(self):
        t0 = time.perf_counter()
        result = bench.verify_orthogonality(seed=SEED)
        elapsed = time.perf_counter() - t0
        ok = result.passed and elapsed < 120.0
        report(
            3,
            ok,
            f"{result.lines[1]}; {result.lines[2]}; {result.lines[3]}; "
            f"runtime {elapsed:.1f}s < 120s",
        )


class TestCriterion4Stage1Suppression:
    def test_bitwise_treatment_invariance(self):
        data = generate(named_dgp("confound-hetero", seed=SEED), 1200)
        model = fit_stage1(data, CdnnConfig(ensemble_size=1, epochs=120, seed=SEED))
        edges_zero = model.treatment_edges_zero()
        X = np.random.default_rng(SEED).standard_normal((1000, data.d))
        p0, _ = model.network.forward_batch(X, np.zeros(1000))
        p1, _ = model.network.forward_batch(X, np.ones(1000))
        bitwise = np.array_equal(p0, p1)
        report(
            4,
            edges_zero and bitwise,
            f"treatment edges exactly 0: {edges_zero}; predictions at t=0 and "
            f"t=1 bitwise identical on 1000 random inputs: {bitwise}",
        )


class TestCriterion5FreezingContract:
    def test_encoder_matrix_preserved(self):
        data = generate(named_dgp("confound-hetero", seed=SEED + 1), 1500)
        model = fit(data, "freezing", CdnnConfig(seed=SEED))
        ok = True
        for stage1, stage2 in model.members:
            d = stage1.network.covariate_width
            same_w = np.array_equal(
                stage2.network.weight(0)[:d, :], stage1.network.weight(0)[:d, :]
            )
            same_b = np.array_equal(stage2.network.bias(0), stage1.network.bias(0))
            ok = ok and same_w and same_b
        report(
            5,
            ok,
            "stage-2 covariate input matrix and first-layer bias bitwise equal "
            f"stage-1's after full training, all {len(model.members)} members",
        )


class TestCriterion6NullEffect:
    def test_null_effect_soundness(self):
        reps = make_replications(named_dgp("null-effect", seed=SEED), 5)
        means = []
        for i in range(5):
            data = generate(reps.spec_for(i), 2000)
            train, val, test = split(data, SplitSpec.ihdp(), seed=SEED + i)
            pool = concat_datasets([train, val])
            model = fit(pool, "freezing", CdnnConfig(seed=SEED + i))
            means.append(float(np.mean(np.abs(predict_ite(model, test.x)))))
        overall = float(np.mean(means))
        ok = overall <= 0.05
        report(
            6,
            ok,
            f"null-effect DGP (sigma=0.5, n=2000): mean |predicted ITE| over 5 "
            f"replications {overall:.4f} <= 0.05 (per rep: "
            + ", ".join(f"{m:.3f}" for m in means)
            + ")",
        )


@pytest.fixture(scope="module")
def hetero_suite():
    """Ten replications of the heterogeneous benchmark, both variants + OLS."""
    reps = make_replications(named_dgp("confound-hetero", seed=SEED), 10)
    rows = []
    t0 = time.perf_counter()
    for i in range(10):
        spec = reps.spec_for(i)
        data = generate(spec, 2000)
        train, val, test = split(data, SplitSpec.ihdp(), seed=SEED + 100 + i)
        pool = concat_datasets([train, val])
        oracle = oracle_of(spec)
        truth_fn = np.array([oracle.theta0(x) for x in test.x])

        freezing = fit(pool, "freezing", CdnnConfig(seed=SEED + i))
        explicit = fit(pool, "explicit_residual", CdnnConfig(seed=SEED + i))
        _, lr1_ite = ols_lr1(pool)

        pred_frz = predict_ite(freezing, test.x)
        pred_exp = predict_ite(explicit, test.x)
        rows.append(
            {
                "pehe_freezing": sqrt_pehe(pred_frz, test.theta),
                "pehe_explicit": sqrt_pehe(pred_exp, test.theta),
                "pehe_lr1": sqrt_pehe(lr1_ite(test.x), test.theta),
                "corr": float(np.corrcoef(pred_frz, truth_fn)[0, 1]),
            }
        )
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


class TestCriterion7HeterogeneousBenchmark:
    def test_beats_misspecified_ols_and_tracks_truth(self, hetero_suite):
        rows = hetero_suite["rows"]
        wins = sum(r["pehe_freezing"] < r["pehe_lr1"] for r in rows)
        mean_corr = float(np.mean([r["corr"] for r in rows]))
        elapsed = hetero_suite["elapsed"]
        ok = wins >= 8 and mean_corr > 0.9 and elapsed < 600.0
        report(
            7,
            ok,
            f"confound-hetero (n=2000, 10 reps): freezing beats ols_lr1 in "
            f"{wins}/10 replications (need >= 8); mean corr(pred, true effect) "
            f"{mean_corr:.3f} > 0.9; suite runtime {elapsed:.0f}s < 600s",
        )


class TestCriterion8VariantOrdering:
    def test_freezing_not_worse_than_explicit(self, hetero_suite):
        rows = hetero_suite["rows"]
        mean_frz = float(np.mean([r["pehe_freezing"] for r in rows]))
        mean_exp = float(np.mean([r["pehe_explicit"] for r in rows]))
        ok = mean_frz <= mean_exp
        report(
            8,
            ok,
            f"mean sqrt_pehe: freezing {mean_frz:.3f} <= explicit-residual "
            f"{mean_exp:.3f} over the 10-replication suite",
        )


class TestCriterion9DmlReference:
    def test_window_and_oracle_exactness(self):
        data = generate(named_dgp("confound-linear", seed=SEED), 5000)
        ate, stderr = dml_ate(data, seed=SEED)
        in_window = 1.9 <= ate <= 2.1

        spec0 = replace(named_dgp("confound-linear", seed=SEED + 1), noise_sigma=0.0)
        data0 = generate(spec0, 5000)
        oracle = oracle_of(spec0)
        ate0, _ = dml_ate(data0, oracle_g=oracle.g0, oracle_e=oracle.e0)
        exact = abs(ate0 - 2.0) <= 1e-10
        report(
            9,
            in_window and exact,
            f"dml on confound-linear (n=5000): {ate:.4f} in [1.9, 2.1]; with "
            f"oracle nuisances at sigma=0: |{ate0!r} - 2| = {abs(ate0 - 2.0):.2e} <= 1e-10",
        )


class TestCriterion10MetricCorrectness:
    def test_against_straight_line_recomputation(self):
        rng = np.random.default_rng(SEED)
        worst_pehe = worst_eps = 0.0
        dominance = True
        for _ in range(100):
            n = int(rng.integers(1, 300))
            pred = rng.standard_normal(n) * rng.uniform(0.1, 10)
            true = rng.standard_normal(n) * rng.uniform(0.1, 10)
            hand_pehe = math.sqrt(math.fsum((p - t) ** 2 for p, t in zip(pred, true)) / n)
            hand_eps = abs(math.fsum(pred) / n - math.fsum(true) / n)
            worst_pehe = max(worst_pehe, abs(sqrt_pehe(pred, true) - hand_pehe))
            worst_eps = max(worst_eps, abs(eps_ate(pred, true) - hand_eps))
            dominance = dominance and sqrt_pehe(pred, true) >= eps_ate(pred, true)
        ok = worst_pehe <= 1e-12 and worst_eps <= 1e-12 and dominance
        report(
            10,
            ok,
            f"100 random vectors: max |sqrt_pehe - recomputation| {worst_pehe:.2e}, "
            f"max |eps_ate - recomputation| {worst_eps:.2e} (<= 1e-12); "
            f"sqrt_pehe >= eps_ate always: {dominance}",
        )


class TestCriterion11ProtocolFidelity:
    def test_splits_determinism_roundtrip(self, tmp_path):
        sizes_747 = SplitSpec.ihdp().sizes(747)
        sizes_1000 = SplitSpec.ihdp().sizes(1000)
        split_ok = sizes_747 == (471, 201, 75) and sizes_1000 == (630, 270, 100)

        raw = {
            "dgp": {"family": "confound-linear", "seed": 3},
            "n": 400,
            "replications": 3,
            "estimators": ["ols_lr1", "ols_lr2", "dml"],
            "seed": SEED,
        }
        config = bench.config_from_dict(raw)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        bench.run(config).to_csv(pa)
        bench.run(config).to_csv(pb)
        bench_ok = pa.read_bytes() == pb.read_bytes()

        data = generate(named_dgp("confound-hetero", seed=SEED), 200)
        path = tmp_path / "rt.csv"
        write_csv(data, path)
        loaded = load_csv(path)
        rt_ok = (
            np.array_equal(loaded.x, data.x)
            and np.array_equal(loaded.t, data.t)
            and np.array_equal(loaded.y, data.y)
            and np.array_equal(loaded.y1, data.y1)
            and np.array_equal(loaded.y0, data.y0)
        )
        report(
            11,
            split_ok and bench_ok and rt_ok,
            f"split sizes n=747 -> {sizes_747}, n=1000 -> {sizes_1000}; "
            f"fixed-seed bench runs byte-identical: {bench_ok}; CSV round trip "
            f"value-exact: {rt_ok}",
        )
