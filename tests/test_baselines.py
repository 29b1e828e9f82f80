"""Linear baselines and the residual-on-residual average-effect estimator."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnn import baselines, theory
from cdnn.baselines import dml_ate, ols_lr1, ols_lr2
from cdnn.data import (
    AffineSurface,
    ConstantPropensity,
    Dataset,
    DgpSpec,
    LogisticPropensity,
    generate,
    named_dgp,
    oracle_of,
)
from cdnn.errors import ConfigError, DegenerateArmError, DegenerateTreatmentError, OverlapError
from cdnn.metrics import sqrt_pehe


def linear_spec(base_slopes, effect_intercept, effect_slopes=None, sigma=0.0, seed=0, p=0.5):
    d = len(base_slopes)
    return DgpSpec(
        d=d,
        propensity=ConstantPropensity(p),
        baseline=AffineSurface(0.5, tuple(base_slopes)),
        effect=AffineSurface(effect_intercept, tuple(effect_slopes or [0.0] * d)),
        noise_sigma=sigma,
        seed=seed,
    )


def normal_equations_solution(A, y):
    """Independent dense-solver oracle for the least-squares problem."""
    return np.linalg.solve(A.T @ A, A.T @ y)


class TestOlsLr1:
    def test_noiseless_treatment_coefficient(self):
        ds = generate(linear_spec([1.0, 0.0], 2.0), 400)
        model, ite = ols_lr1(ds)
        A = np.column_stack([np.ones(len(ds)), ds.x, ds.t.astype(float)])
        beta_oracle = normal_equations_solution(A, ds.y)
        assert model.coefficients[-1] == pytest.approx(beta_oracle[-1], abs=1e-10)
        assert model.coefficients[-1] == pytest.approx(2.0, abs=1e-8)
        assert np.all(ite(ds.x[:5]) == model.coefficients[-1])

    def test_normal_equations_residual_invariant(self):
        ds = generate(linear_spec([1.0, -0.5, 0.25], 1.0, sigma=1.0, seed=3), 500)
        model, _ = ols_lr1(ds)
        A = np.column_stack([np.ones(len(ds)), ds.x, ds.t.astype(float)])
        beta = np.concatenate([[model.intercept], model.coefficients])
        resid = A.T @ (A @ beta - ds.y)
        assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(ds.y))

    def test_constant_prediction_cannot_match_heterogeneous_truth(self):
        ds = generate(linear_spec([0.5, 0.5], 1.0, effect_slopes=[2.0, 0.0], seed=2), 4000)
        _, ite = ols_lr1(ds)
        assert sqrt_pehe(ite(ds.x), ds.theta) > 1.0  # effect sd is 2

    def test_dropping_the_confounder_biases_the_estimate(self):
        # x0 drives both treatment and outcome; with it in the design the
        # effect is recovered, without it the estimate is visibly off
        spec = DgpSpec(
            d=2,
            propensity=LogisticPropensity((1.0, 0.0), 0.0),
            baseline=AffineSurface(0.0, (1.5, 0.5)),
            effect=AffineSurface(1.0, (0.0, 0.0)),
            noise_sigma=0.3,
            seed=9,
        )
        ds = generate(spec, 6000)
        _, ite_full = ols_lr1(ds)
        dropped = Dataset(ds.x[:, 1:], ds.t, ds.y, ds.y1, ds.y0)
        _, ite_dropped = ols_lr1(dropped)
        full_est = float(ite_full(ds.x[:1])[0])
        dropped_est = float(ite_dropped(dropped.x[:1])[0])
        assert full_est == pytest.approx(1.0, abs=0.05)
        assert abs(dropped_est - 1.0) > 0.3

    def test_rank_deficiency_falls_back_to_ridge(self):
        ds = generate(linear_spec([1.0, 0.0], 1.0, seed=4), 100)
        duplicated = Dataset(
            np.column_stack([ds.x, ds.x[:, 0]]), ds.t, ds.y, ds.y1, ds.y0
        )
        with pytest.warns(UserWarning, match="ridge fallback"):
            ols_lr1(duplicated)

    def test_single_arm_rejected(self):
        ds = generate(linear_spec([1.0], 1.0), 50)
        all_treated = Dataset(ds.x, np.ones(len(ds), dtype=int), ds.y)
        with pytest.raises(DegenerateTreatmentError):
            ols_lr1(all_treated)


class TestOlsLr2:
    def test_noiseless_per_arm_recovery(self):
        ds = generate(
            linear_spec([1.0, -1.0], 2.0, effect_slopes=[0.5, 0.0], seed=5), 600
        )
        m1, m0, ite = ols_lr2(ds)
        # per-arm normal equations oracle
        for arm, model in ((1, m1), (0, m0)):
            idx = ds.t == arm
            A = np.column_stack([np.ones(idx.sum()), ds.x[idx]])
            beta = normal_equations_solution(A, ds.y[idx])
            assert model.intercept == pytest.approx(beta[0], abs=1e-9)
            assert np.allclose(model.coefficients, beta[1:], atol=1e-9)
        assert sqrt_pehe(ite(ds.x), ds.theta) <= 1e-6

    def test_identical_arms_give_zero_effect(self):
        ds = generate(linear_spec([1.0, 0.5], 0.0), 400)
        _, _, ite = ols_lr2(ds)
        assert np.max(np.abs(ite(ds.x))) <= 1e-10

    def test_heterogeneous_affine_effect_recovered(self):
        spec = linear_spec([1.0, 0.0], 1.0, effect_slopes=[2.0, 0.0], sigma=0.5, seed=6)
        ds = generate(spec, 5000)
        _, _, ite = ols_lr2(ds)
        oracle = oracle_of(spec)
        truth = np.array([oracle.theta0(x) for x in ds.x[:500]])
        assert np.allclose(ite(ds.x[:500]), truth, atol=0.15)

    def test_thin_arm_rejected(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 4))
        t = np.zeros(30, dtype=int)
        t[:3] = 1
        ds = Dataset(x, t, rng.standard_normal(30))
        with pytest.raises(DegenerateArmError):
            ols_lr2(ds)

    def test_agrees_with_lr1_on_symmetric_noiseless_design(self):
        # balanced arms, no treatment-covariate interaction: the pooled and
        # per-arm fits imply the same average effect
        ds = generate(linear_spec([1.0, -0.5], 1.5), 500)
        _, ite1 = ols_lr1(ds)
        _, _, ite2 = ols_lr2(ds)
        ate1 = float(np.mean(ite1(ds.x)))
        ate2 = float(np.mean(ite2(ds.x)))
        assert ate1 == pytest.approx(ate2, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n=st.integers(14, 80))
    def test_relabelling_the_arms_negates_the_effect(self, seed, d, n):
        # t -> 1 - t swaps which arm each per-arm fit sees, so the effect
        # m1 - m0 becomes m0 - m1, its exact negation
        rng = np.random.default_rng(seed)
        t = np.zeros(n, dtype=int)
        t[rng.permutation(n)[: n // 2]] = 1
        ds = Dataset(rng.standard_normal((n, d)) * 3.0, t, rng.standard_normal(n) * 10.0)
        query = rng.standard_normal((7, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a rank-deficient arm falls back to ridge
            ite = ols_lr2(ds)[2](query)
            swapped = ols_lr2(Dataset(ds.x, 1 - ds.t, ds.y))[2](query)
        assert np.array_equal(swapped, -ite)


class TestDmlAte:
    def test_constant_effect_window(self):
        ds = generate(named_dgp("confound-linear", seed=31), 5000)
        ate, stderr = dml_ate(ds, seed=7)
        assert 1.9 <= ate <= 2.1
        assert stderr < 0.1

    def test_null_effect_within_three_stderr(self):
        ds = generate(named_dgp("null-effect", seed=13), 5000)
        ate, stderr = dml_ate(ds, seed=1)
        assert abs(ate) <= 3.0 * stderr

    def test_oracle_nuisances_noiseless_is_exact(self):
        from dataclasses import replace

        spec = replace(named_dgp("confound-linear", seed=17), noise_sigma=0.0)
        ds = generate(spec, 5000)
        oracle = oracle_of(spec)
        ate, _ = dml_ate(ds, oracle_g=oracle.g0, oracle_e=oracle.e0)
        assert abs(ate - 2.0) <= 1e-10

    def test_oracle_nuisance_numerator_is_weighted_effect_mean(self):
        # with exact nuisances and zero noise the numerator collapses to
        # sum theta0(x_i) (t_i - e0(x_i))^2, so constant effects come back
        # exactly (weighted mean of a constant)
        from dataclasses import replace

        spec = replace(named_dgp("confound-linear", seed=23), noise_sigma=0.0)
        ds = generate(spec, 2000)
        oracle = oracle_of(spec)
        ghat = np.array([oracle.g0(x) for x in ds.x])
        ehat = np.array([oracle.e0(x) for x in ds.x])
        t_resid = ds.t - ehat
        numerator = float(np.sum(t_resid * (ds.y - ghat)))
        expected = float(np.sum(2.0 * t_resid * t_resid))
        assert numerator == pytest.approx(expected, rel=1e-12)

    def test_arm_swap_negates_estimate(self):
        ds = generate(named_dgp("confound-linear", seed=41), 3000)
        swapped = Dataset(ds.x, 1 - ds.t, ds.y, ds.y0, ds.y1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ate, _ = dml_ate(ds, seed=7)
            ate_sw, _ = dml_ate(swapped, seed=7)
        assert ate_sw == pytest.approx(-ate, abs=1e-12)

    def test_near_deterministic_treatment_rejected(self):
        # treatment is a threshold of x0 and the injected propensity knows
        # it, so treatment residuals vanish once clamping is disabled
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 2))
        t = (x[:, 0] > 0).astype(int)
        ds = Dataset(x, t, rng.standard_normal(200))
        with pytest.raises(OverlapError):
            dml_ate(
                ds,
                oracle_g=lambda xi: 0.0,
                oracle_e=lambda xi: 1.0 - 1e-9 if xi[0] > 0 else 1e-9,
                clamp=(1e-12, 1.0 - 1e-12),
            )

    @pytest.mark.parametrize("clamp", [(0.9, 0.1), (0.5, 0.5)])
    def test_a_clamp_without_lo_below_hi_is_rejected(self, clamp):
        ds = generate(named_dgp("confound-linear", seed=51), 200)
        with pytest.raises(ConfigError, match="lo < hi"):
            dml_ate(ds, clamp=clamp)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"folds": 1}, "dml folds must be >= 2"),
            ({"folds": 2.5}, "folds must be an integer"),
            ({"crossfit": "no"}, "crossfit must be true or false"),
            ({"ridge_lambda": -1.0}, "dml ridge_lambda must be a finite number >= 0"),
            ({"ridge_lambda": 10**400}, "dml ridge_lambda must be a finite number >= 0"),
            ({"clamp": (0.0, 1.0)}, "dml clamp must be two numbers 0 < lo < hi < 1"),
        ],
        ids=["one-fold", "fractional-folds", "string-crossfit", "negative-ridge",
             "huge-int-ridge", "closed-unit-clamp"],
    )
    def test_a_setting_outside_the_contract_raises_the_bench_message(self, setting, message):
        ds = generate(named_dgp("confound-linear", seed=51), 200)
        with pytest.raises(ConfigError, match=re.escape(f"bad config value: {message}, got ")):
            dml_ate(ds, **setting)

    @pytest.mark.parametrize("folds", [20_000, 10**400], ids=["twenty-thousand", "huge-int"])
    def test_folds_past_the_row_count_fit_one_row_each(self, monkeypatch, folds):
        ds = generate(named_dgp("confound-linear", seed=51), 200)
        expected = dml_ate(ds, folds=200, seed=3)
        fits = []
        original = baselines._ridge_fit
        monkeypatch.setattr(baselines, "_ridge_fit", lambda *a: fits.append(1) or original(*a))
        ate, stderr = dml_ate(ds, folds=folds, seed=3)
        assert (ate.hex(), stderr.hex()) == (expected[0].hex(), expected[1].hex())
        assert len(fits) == 400  # two nuisance fits for each of the 200 one-row folds

    @pytest.mark.parametrize("nuisances", ["oracle", "whole-data"])
    def test_stderr_is_that_of_the_orthogonal_score(self, nuisances):
        # stderr = sqrt(sum psi^2) / sum (t - e)^2, psi the score of theory at the estimate
        spec = named_dgp("confound-hetero", seed=29)
        ds = generate(spec, 1000)
        T = ds.t.astype(float)
        if nuisances == "oracle":
            oracle = oracle_of(spec)
            ghat = np.array([oracle.g0(x) for x in ds.x])
            ehat = np.array([oracle.e0(x) for x in ds.x])
            ate, stderr = dml_ate(ds, oracle_g=oracle.g0, oracle_e=oracle.e0)
        else:
            ghat = baselines._ridge_fit(ds.x, ds.y, 1e-3).predict(ds.x)
            ehat = baselines._ridge_fit(ds.x, T, 1e-3).predict(ds.x)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a linear propensity fit is clamped
                ate, stderr = dml_ate(ds, crossfit=False)
        ehat = np.clip(ehat, 0.01, 0.99)
        t_resid = T - ehat
        denom = float(np.sum(t_resid * t_resid))
        psi = theory._orthogonal_score(T, ds.y, ghat, ehat, ate)
        assert stderr.hex() == float(np.sqrt(np.sum(psi * psi)) / denom).hex()

    def test_no_crossfit_mode(self):
        ds = generate(named_dgp("confound-linear", seed=51), 4000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ate, _ = dml_ate(ds, crossfit=False)
        assert 1.85 <= ate <= 2.15


@pytest.mark.parametrize("arm", [0, 1], ids=["all-control", "all-treated"])
@pytest.mark.parametrize("estimate", [ols_lr1, dml_ate], ids=["ols_lr1", "dml_ate"])
def test_one_arm_error_names_the_estimator_and_the_counts(estimate, arm):
    ds = generate(linear_spec([1.0], 1.0), 50)
    one_arm = Dataset(ds.x, np.full(len(ds), arm), ds.y)
    counts = "(50 treated, 0 control)" if arm else "(0 treated, 50 control)"
    message = f"{estimate.__name__}: both treatment arms are required {counts}"
    with pytest.raises(DegenerateTreatmentError, match=f"^{re.escape(message)}$"):
        estimate(one_arm)
