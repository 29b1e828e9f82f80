"""Two-stage estimator: suppression, residuals, freezing contract, ensembles."""

import json
from dataclasses import replace

import numpy as np
import pytest

from cdnn import estimator as est
from cdnn import nn
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
from cdnn.errors import (
    ConfigError,
    DegenerateTreatmentError,
    IdentityViolationError,
    SchemaError,
    ShapeError,
    TrainingDivergenceError,
)

FAST = est.CdnnConfig(ensemble_size=1, seed=3)


def make_spec(effect_intercept, effect_slopes=None, d=2, sigma=0.0, seed=0, logistic=False):
    base_slopes = tuple([1.0, -0.5] + [0.25] * (d - 2))[:d]
    prop = LogisticPropensity(tuple([0.8] + [0.0] * (d - 1)), 0.0) if logistic else ConstantPropensity(0.5)
    return DgpSpec(
        d=d,
        covariate_law="standard_normal",
        propensity=prop,
        baseline=AffineSurface(1.0, base_slopes),
        effect=AffineSurface(effect_intercept, tuple(effect_slopes or [0.0] * d)),
        noise_sigma=sigma,
        seed=seed,
    )


def linear_identity_config(**overrides):
    defaults = dict(
        hidden_widths=(8,),
        activation="identity",
        epochs=1500,
        learning_rate=0.01,
        patience=300,
        validation_fraction=0.25,
        ensemble_size=1,
        seed=1,
    )
    defaults.update(overrides)
    return est.CdnnConfig(**defaults)


class TestFitStage1:
    def test_noiseless_linear_reaches_tiny_mse(self):
        data = generate(make_spec(0.0, seed=5), 600)
        model = est.fit_stage1(data, linear_identity_config())
        test = generate(make_spec(0.0, seed=77), 400)
        mse = float(np.mean((model.predict(test.x) - test.y) ** 2))
        assert mse <= 1e-6

    def test_constant_outcome_absorbed_by_bias(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((300, 2)), rng.integers(0, 2, 300), np.full(300, 4.25))
        cfg = est.CdnnConfig(ensemble_size=1, epochs=300, learning_rate=0.01, seed=2)
        model = est.fit_stage1(data, cfg)
        preds = model.predict(0.8 * rng.standard_normal((100, 2)))
        assert np.allclose(preds, 4.25, atol=0.05)

    def test_learns_the_propensity_mixture_under_confounding(self):
        # at held-out points the fit approaches e0*f(1,.) + (1-e0)*f(0,.)
        spec = make_spec(2.0, d=2, sigma=0.3, seed=11, logistic=True)
        data = generate(spec, 4000)
        model = est.fit_stage1(data, FAST)
        oracle = oracle_of(spec)
        probes = np.random.default_rng(2).standard_normal((100, 2)) * 0.7
        mixture = np.array([oracle.g0(x) for x in probes])
        assert np.max(np.abs(model.predict(probes) - mixture)) <= 0.25

    def test_treatment_suppression_is_bitwise(self):
        data = generate(make_spec(1.0, sigma=0.5, seed=21), 400)
        model = est.fit_stage1(data, est.CdnnConfig(ensemble_size=1, epochs=60, seed=4))
        assert model.treatment_edges_zero()
        X = np.random.default_rng(9).standard_normal((1000, 2))
        p0, _ = model.network.forward_batch(X, np.zeros(1000))
        p1, _ = model.network.forward_batch(X, np.ones(1000))
        assert np.array_equal(p0, p1)

    def test_concat_wiring_also_suppressed(self):
        data = generate(make_spec(1.0, sigma=0.5, seed=22), 300)
        cfg = est.CdnnConfig(
            ensemble_size=1, epochs=40, seed=4, concat_inputs=True, hidden_widths=(16, 16)
        )
        model = est.fit_stage1(data, cfg)
        assert model.treatment_edges_zero()
        X = np.random.default_rng(3).standard_normal((200, 2))
        p0, _ = model.network.forward_batch(X, np.zeros(200))
        p1, _ = model.network.forward_batch(X, np.ones(200))
        assert np.array_equal(p0, p1)

    def test_moved_treatment_edge_raises(self, monkeypatch):
        # the suppression contract is an explicit check, not an assert that -O strips
        real_fit_network = nn.fit_network

        def fit_then_nudge(net, *args, **kwargs):
            log = real_fit_network(net, *args, **kwargs)
            net.params[0][net.treatment_input_row(0), 0] = 1e-12
            return log

        monkeypatch.setattr(nn, "fit_network", fit_then_nudge)
        data = generate(make_spec(1.0, seed=23), 100)
        with pytest.raises(IdentityViolationError, match="treatment edges"):
            est.fit_stage1(data, est.CdnnConfig(ensemble_size=1, epochs=2, seed=4))


class TestComputeResiduals:
    def test_perfect_model_gives_zero_residuals(self):
        # hand-built exact linear model: y = 2*x0 - x1
        net = nn.Network.build(2, (), activation="identity", rng=0)
        net.weight(0)[:, 0] = [2.0, -1.0, 0.0]
        net.bias(0)[:] = 0.0
        model = est.Stage1Model(net, nn.TrainingLog())
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 2))
        data = Dataset(X, rng.integers(0, 2, 50), 2.0 * X[:, 0] - X[:, 1])
        res = est.compute_residuals(model, data)
        assert np.all(res.y == 0.0)

    def test_zero_model_returns_outcomes(self):
        net = nn.Network.build(2, (4,), rng=1)
        for p in net.params:
            p[:] = 0.0
        model = est.Stage1Model(net, nn.TrainingLog())
        data = generate(make_spec(1.0, sigma=0.5, seed=3), 100)
        res = est.compute_residuals(model, data)
        assert np.array_equal(res.y, data.y)

    def test_converged_fit_has_near_zero_residual_mean(self):
        data = generate(make_spec(1.0, sigma=0.2, seed=6), 2500)
        model = est.fit_stage1(data, FAST)
        res = est.compute_residuals(model, data)
        assert abs(float(np.mean(res.y))) <= 0.05


    def test_residual_dataset_keeps_covariates_and_treatment(self):
        net = nn.Network.build(2, (4,), rng=2)
        model = est.Stage1Model(net, nn.TrainingLog())
        data = generate(make_spec(1.0, sigma=0.5, seed=3), 50)
        res = est.compute_residuals(model, data)
        assert isinstance(res, Dataset)
        assert np.array_equal(res.x, data.x) and np.array_equal(res.t, data.t)
        assert np.array_equal(res.y, data.y - model.predict(data.x))
        assert not res.has_ground_truth

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_residual_raises(self, bad):
        # a Dataset rejects a non-finite y, so the stage-1 prediction is the bad value
        net = nn.Network.build(2, (4,), rng=1)
        net.bias(net.n_layers - 1)[:] = bad
        model = est.Stage1Model(net, nn.TrainingLog())
        data = generate(make_spec(1.0, seed=3), 20)
        with pytest.raises(ShapeError, match="non-finite residuals"):
            est.compute_residuals(model, data)


class TestFitStage2Explicit:
    def test_zero_effect_learns_near_zero(self):
        data = generate(make_spec(0.0, seed=61), 1500)
        s1 = est.fit_stage1(data, FAST)
        s2 = est.fit_stage2_explicit(est.compute_residuals(s1, data), FAST)
        probe = np.random.default_rng(1).standard_normal((200, 2)) * 0.8
        values = np.concatenate([s2.predict(probe, 1), s2.predict(probe, 0)])
        assert np.max(np.abs(values)) <= 0.05

    def test_constant_effect_splits_by_propensity(self):
        # theta=1, e0=0.5: the residual factorization puts h(1,.) at 0.5 and
        # h(0,.) at -0.5
        data = generate(make_spec(1.0, sigma=0.2, seed=6), 2500)
        s1 = est.fit_stage1(data, FAST)
        s2 = est.fit_stage2_explicit(est.compute_residuals(s1, data), FAST)
        probe = np.random.default_rng(1).standard_normal((200, 2)) * 0.8
        assert float(np.mean(s2.predict(probe, 1))) == pytest.approx(0.5, abs=0.15)
        assert float(np.mean(s2.predict(probe, 0))) == pytest.approx(-0.5, abs=0.15)

    def test_heterogeneous_effect_tracked(self):
        spec = named_dgp("confound-hetero", seed=19)
        data = generate(spec, 2500)
        s1 = est.fit_stage1(data, FAST)
        s2 = est.fit_stage2_explicit(est.compute_residuals(s1, data), FAST)
        test = generate(named_dgp("confound-hetero", seed=91), 500)
        oracle = oracle_of(spec)
        truth = np.array([oracle.theta0(x) for x in test.x])
        pred = s2.ite(test.x)
        assert np.corrcoef(pred, truth)[0, 1] > 0.9

    def test_reinitialization_uses_fresh_weights(self):
        data = generate(make_spec(1.0, sigma=0.3, seed=7), 800)
        cfg = est.CdnnConfig(ensemble_size=1, epochs=5, seed=8)
        s1 = est.fit_stage1(data, cfg)
        s2 = est.fit_stage2_explicit(est.compute_residuals(s1, data), cfg)
        assert s2.target_kind == "residual"
        assert not np.array_equal(
            s1.network.weight(0)[:2, :], s2.network.weight(0)[:2, :]
        )

    def test_single_arm_rejected(self):
        data = generate(make_spec(1.0, seed=9), 200)
        forced = Dataset(data.x, np.ones(len(data), dtype=int), data.y)
        s1 = est.fit_stage1(data, est.CdnnConfig(ensemble_size=1, epochs=5, seed=1))
        with pytest.raises(DegenerateTreatmentError):
            est.fit_stage2_explicit(est.compute_residuals(s1, forced), FAST)


class TestFitStage2Freezing:
    def test_frozen_encoder_is_bitwise_preserved(self):
        data = generate(make_spec(1.0, sigma=0.4, seed=31), 900)
        cfg = est.CdnnConfig(ensemble_size=1, epochs=80, seed=12)
        s1 = est.fit_stage1(data, cfg)
        w_before = s1.network.weight(0)[:2, :].copy()
        b_before = s1.network.bias(0).copy()
        s2 = est.fit_stage2_freezing(s1, data, cfg)
        assert np.array_equal(s2.network.weight(0)[:2, :], w_before)
        assert np.array_equal(s2.network.bias(0), b_before)
        # deeper layers warm-start but stay trainable
        assert not np.array_equal(s2.network.weight(1), s1.network.weight(1))

    def test_uninformative_treatment_gives_near_zero_ite(self):
        # x predicts y exactly and t adds nothing: treatment edges only move
        # if they carry information, so the effect estimate stays near zero
        spec = make_spec(0.0, d=2, sigma=0.0, seed=8, logistic=True)
        data = generate(spec, 1500)
        model = est.fit(data, "freezing", est.CdnnConfig(ensemble_size=1, seed=2))
        ite = est.predict_ite(model, data.x)
        assert float(np.mean(np.abs(ite))) <= 0.05

    def test_constant_effect_recovered(self):
        spec = DgpSpec(
            d=3,
            covariate_law="standard_normal",
            propensity=LogisticPropensity((0.7, 0.0, 0.0), 0.0),
            baseline=AffineSurface(1.0, (1.0, -0.5, 0.25)),
            effect=AffineSurface(2.0, (0.0, 0.0, 0.0)),
            noise_sigma=0.5,
            seed=3,
        )
        data = generate(spec, 2000)
        model = est.fit(data, "freezing", est.CdnnConfig(ensemble_size=1, seed=5))
        ite = est.predict_ite(model, data.x)
        assert float(np.mean(ite)) == pytest.approx(2.0, abs=0.15)

    def test_freeze_depth_pins_deeper_layers(self):
        data = generate(make_spec(1.0, sigma=0.4, seed=33), 600)
        cfg = est.CdnnConfig(ensemble_size=1, epochs=30, seed=13, freeze_depth=2)
        s1 = est.fit_stage1(data, cfg)
        w1_before = s1.network.weight(1).copy()
        s2 = est.fit_stage2_freezing(s1, data, cfg)
        assert np.array_equal(s2.network.weight(1), w1_before)

    def test_architecture_mismatch_rejected(self):
        data = generate(make_spec(1.0, seed=34), 300)
        s1 = est.fit_stage1(data, est.CdnnConfig(ensemble_size=1, epochs=5, seed=1))
        other = generate(make_spec(1.0, d=3, seed=35), 300)
        with pytest.raises(ConfigError):
            est.fit_stage2_freezing(s1, other, FAST)


class TestValidationCarveTooSmall:
    """floor(validation_fraction * n) == 0: each stage trains on every row
    with no validation part, for both variants alike."""

    DATA = Dataset([[0.0, 1.0], [1.0, -1.0], [2.0, 0.5]], [0, 1, 1], [0.5, 1.5, 2.0])
    CONFIG = est.CdnnConfig(hidden_widths=(4,), epochs=5, seed=0)

    @pytest.mark.parametrize("variant", est.VARIANTS)
    def test_fit_succeeds(self, variant):
        model = est.fit(self.DATA, variant, self.CONFIG)
        ite = est.predict_ite(model, self.DATA.x)
        assert ite.shape == (3,) and np.all(np.isfinite(ite))
        for s1, s2 in model.members:
            assert s1.training_log.val_mse == [] and s2.training_log.val_mse == []

    def test_explicit_stage2_called_directly(self):
        s1 = est.fit_stage1(self.DATA, self.CONFIG)
        s2 = est.fit_stage2_explicit(est.compute_residuals(s1, self.DATA), self.CONFIG)
        assert np.all(np.isfinite(s2.ite(self.DATA.x)))
        assert len(s2.training_log.train_mse) == 5 and s2.training_log.val_mse == []


class TestPredictIte:
    def _linear_stage2(self, t_weight):
        net = nn.Network.build(1, (), activation="identity", rng=0)
        net.weight(0)[:, 0] = [0.7, t_weight]
        net.bias(0)[:] = 0.25
        return est.Stage2Model("freezing", net, nn.FreezeMask.none(net), "outcome", nn.TrainingLog())

    def _estimator(self, t_weights):
        members = [(None, self._linear_stage2(w)) for w in t_weights]
        return est.CdnnEstimator(members, "freezing", est.CdnnConfig())

    def test_zero_treatment_edges_give_exact_zero(self):
        model = self._estimator([0.0])
        assert est.predict_ite(model, np.array([1.3])) == 0.0

    def test_hand_set_unit_weight(self):
        # t enters with weight 1 into an identity output: double forward
        # pass gives (0.7x + 1 + 0.25) - (0.7x + 0.25) = 1
        model = self._estimator([1.0])
        assert est.predict_ite(model, np.array([0.4])) == pytest.approx(1.0, abs=1e-15)

    def test_ensemble_average(self):
        model = self._estimator([1.0, 2.0, 3.0])
        assert est.predict_ite(model, np.array([0.0])) == pytest.approx(2.0, abs=1e-15)

    def test_matrix_input_returns_vector(self):
        model = self._estimator([1.0, 3.0])
        out = est.predict_ite(model, np.zeros((5, 1)))
        assert out.shape == (5,)
        assert np.allclose(out, 2.0)


class TestFit:
    def test_single_member_reduces_to_two_stage_run(self):
        data = generate(make_spec(1.0, sigma=0.3, seed=41), 600)
        cfg = est.CdnnConfig(ensemble_size=1, epochs=40, seed=6)
        model = est.fit(data, "explicit_residual", cfg)
        assert len(model.members) == 1
        assert model.members[0][1].target_kind == "residual"

    def test_same_seed_same_ensemble(self):
        data = generate(make_spec(1.0, sigma=0.3, seed=42), 500)
        cfg = est.CdnnConfig(ensemble_size=2, epochs=30, seed=7)
        a = est.fit(data, "freezing", cfg)
        b = est.fit(data, "freezing", cfg)
        for (s1a, s2a), (s1b, s2b) in zip(a.members, b.members):
            for pa, pb in zip(s1a.network.params, s1b.network.params):
                assert np.array_equal(pa, pb)
            for pa, pb in zip(s2a.network.params, s2b.network.params):
                assert np.array_equal(pa, pb)

    def test_member_failures_annotated(self):
        data = generate(make_spec(1.0, seed=43), 200)
        forced = Dataset(data.x, np.zeros(len(data), dtype=int), data.y)
        with pytest.raises(DegenerateTreatmentError):
            est.fit(forced, "freezing", FAST)

    def test_divergence_reaches_caller_with_epoch(self):
        data = generate(make_spec(1.0, seed=45), 200)
        huge = Dataset(data.x, data.t, data.y * 1e150)
        cfg = est.CdnnConfig(
            ensemble_size=1, epochs=50, seed=3, optimizer="sgd_momentum", learning_rate=1e6
        )
        with pytest.raises(TrainingDivergenceError, match="ensemble member 0: ") as info:
            est.fit(huge, "freezing", cfg)
        assert info.value.epoch is not None

    def test_member_error_keeps_its_type_and_attributes(self, monkeypatch):
        class CodedError(Exception):
            def __init__(self, code, detail):
                super().__init__(f"code {code}: {detail}")
                self.code = code

        def failing_stage1(*args, **kwargs):
            raise CodedError(7, "no luck")

        monkeypatch.setattr(est, "fit_stage1", failing_stage1)
        data = generate(make_spec(1.0, seed=46), 200)
        with pytest.raises(CodedError) as info:
            est.fit(data, "freezing", FAST)
        assert info.value.code == 7
        assert str(info.value) == "ensemble member 0: code 7: no luck"

    @pytest.mark.parametrize("variant", est.VARIANTS)
    @pytest.mark.parametrize("column, bad", [("y", np.nan), ("x", np.inf)])
    def test_non_finite_data_is_a_schema_error(self, variant, column, bad):
        # edited in place after construction: the carve's subsets re-validate,
        # so the fit fails as a data error, not as a training divergence
        data = generate(named_dgp("confound-hetero", seed=2), 60)
        getattr(data, column)[5] = bad
        with pytest.raises(SchemaError, match="finite"):
            est.fit(data, variant, FAST)

    def test_unknown_variant_rejected(self):
        data = generate(make_spec(1.0, seed=44), 200)
        with pytest.raises(ConfigError):
            est.fit(data, "implicit", FAST)


REUSE = est.CdnnConfig(hidden_widths=(8, 8), epochs=12, patience=5, ensemble_size=2, seed=11)


def count_stage1_training(monkeypatch):
    """The member index of every stage 1 that fit() trains, in order."""
    trained = []
    real = est.fit_stage1

    def counting(*args, **kwargs):
        trained.append(kwargs["seed_stream"])
        return real(*args, **kwargs)

    monkeypatch.setattr(est, "fit_stage1", counting)
    return trained


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_bitwise_equal_fits(a, b):
    assert len(a.members) == len(b.members)
    for (s1a, s2a), (s1b, s2b) in zip(a.members, b.members):
        for pa, pb in zip(s1a.network.params + s2a.network.params,
                          s1b.network.params + s2b.network.params):
            assert same_bits(pa, pb)
        assert s1a.training_log == s1b.training_log
        assert s2a.training_log == s2b.training_log


class TestStage1Reuse:
    """fit() takes over the stage-1 members the previous fit trained when the
    data and the stage-1 settings repeat."""

    @pytest.mark.parametrize(
        "seed, first, second",
        [(70, "freezing", "explicit_residual"), (71, "explicit_residual", "freezing")],
    )
    def test_warm_fit_is_bitwise_a_cold_fit(self, monkeypatch, seed, first, second):
        data = generate(make_spec(1.0, sigma=0.3, seed=seed), 200)
        other = generate(make_spec(1.0, sigma=0.3, seed=seed + 100), 200)
        trained = count_stage1_training(monkeypatch)
        est.fit(data, first, REUSE)
        warm = est.fit(data, second, REUSE)
        assert trained == [0, 1]  # the second variant trained no stage 1
        est.fit(other, first, REUSE)  # evicts data's members
        del trained[:]
        cold = est.fit(data, second, REUSE)
        assert trained == [0, 1]
        assert_bitwise_equal_fits(warm, cold)
        probe = other.x[:50]
        assert same_bits(est.predict_ite(warm, probe), est.predict_ite(cold, probe))

    def test_outcome_edited_in_place_misses(self, monkeypatch):
        data = generate(make_spec(1.0, sigma=0.3, seed=72), 200)
        trained = count_stage1_training(monkeypatch)
        est.fit(data, "freezing", REUSE)
        data.y[0] += 1.0
        est.fit(data, "explicit_residual", REUSE)
        assert trained == [0, 1, 0, 1]

    @pytest.mark.parametrize(
        "seed, change",
        [
            (74, {"seed": 12}),
            (75, {"learning_rate": 2e-3}),
            (76, {"validation_fraction": 0.25}),
            (77, {"hidden_widths": (8, 4)}),
        ],
    )
    def test_stage1_setting_change_misses(self, monkeypatch, seed, change):
        data = generate(make_spec(1.0, sigma=0.3, seed=seed), 200)
        trained = count_stage1_training(monkeypatch)
        est.fit(data, "freezing", REUSE)
        est.fit(data, "freezing", replace(REUSE, **change))
        assert trained == [0, 1, 0, 1]

    @pytest.mark.parametrize(
        "seed, change",
        [(78, {"treatment_scale": 0.05}), (79, {"freeze_depth": 2}), (80, {"ensemble_size": 1})],
    )
    def test_stage2_only_setting_change_hits(self, monkeypatch, seed, change):
        data = generate(make_spec(1.0, sigma=0.3, seed=seed), 200)
        trained = count_stage1_training(monkeypatch)
        a = est.fit(data, "freezing", REUSE)
        b = est.fit(data, "freezing", replace(REUSE, **change))
        assert trained == [0, 1]
        for (s1a, _), (s1b, _) in zip(a.members, b.members):
            for pa, pb in zip(s1a.network.params, s1b.network.params):
                assert same_bits(pa, pb)

    def test_growing_the_ensemble_trains_only_new_members(self, monkeypatch):
        data = generate(make_spec(1.0, sigma=0.3, seed=81), 200)
        trained = count_stage1_training(monkeypatch)
        est.fit(data, "freezing", REUSE)
        grown = est.fit(data, "explicit_residual", replace(REUSE, ensemble_size=4))
        assert trained == [0, 1, 2, 3]
        assert len(grown.members) == 4

    def test_estimators_share_no_mutable_stage1_state(self, monkeypatch):
        data = generate(make_spec(1.0, sigma=0.3, seed=82), 200)
        trained = count_stage1_training(monkeypatch)
        a = est.fit(data, "freezing", REUSE)
        s1a = a.members[0][0]
        expected = [p.copy() for p in s1a.network.params]
        epochs = len(s1a.training_log.train_mse)
        s1a.network.params[2] += 1.0
        s1a.training_log.train_mse.append(0.0)
        b = est.fit(data, "explicit_residual", REUSE)
        s1b = b.members[0][0]
        assert trained == [0, 1]
        assert s1a.network is not s1b.network
        assert all(same_bits(p, q) for p, q in zip(s1b.network.params, expected))
        assert len(s1b.training_log.train_mse) == epochs
        for p in s1b.network.params:
            p[...] = 0.0
        assert same_bits(s1a.network.params[2], expected[2] + 1.0)
        c = est.fit(data, "freezing", REUSE)
        assert trained == [0, 1, 0, 1]
        assert all(same_bits(p, q) for p, q in zip(c.members[0][0].network.params, expected))
        assert len(c.members[0][0].training_log.train_mse) == epochs

    def test_each_trained_member_is_taken_over_once(self, monkeypatch):
        data = generate(make_spec(1.0, sigma=0.3, seed=86), 200)
        trained = count_stage1_training(monkeypatch)
        runs = []
        for _ in range(2):
            start = len(trained)
            runs.append([est.fit(data, v, REUSE) for v in ("freezing", "explicit_residual")])
            assert trained[start:] == [0, 1]  # a repeated pair does the same work
        for first, again in zip(*runs):
            assert_bitwise_equal_fits(first, again)

    def test_only_the_latest_data_is_held(self, monkeypatch):
        first = generate(make_spec(1.0, sigma=0.3, seed=83), 200)
        second = generate(make_spec(1.0, sigma=0.3, seed=84), 200)
        trained = count_stage1_training(monkeypatch)
        est.fit(first, "freezing", REUSE)
        est.fit(second, "freezing", REUSE)
        est.fit(first, "freezing", REUSE)
        assert trained == [0, 1] * 3

    def test_reused_member_with_moved_treatment_edge_raises(self):
        data = generate(make_spec(1.0, sigma=0.3, seed=85), 200)
        est.fit(data, "freezing", REUSE)
        _, stored = est._stage1_memo
        net = stored[0].network
        net.params[0][net.treatment_input_row(0), 0] = 1e-12
        with pytest.raises(IdentityViolationError, match="ensemble member 0: reused"):
            est.fit(data, "explicit_residual", REUSE)


class TestArmRelabelingAntisymmetry:
    def test_noiseless_constant_effect(self):
        spec = DgpSpec(
            d=1,
            covariate_law="standard_normal",
            propensity=ConstantPropensity(0.5),
            baseline=AffineSurface(0.0, (1.0,)),
            effect=AffineSurface(1.0, (0.0,)),
            noise_sigma=0.0,
            seed=4,
        )
        data = generate(spec, 600)
        swapped = Dataset(data.x, 1 - data.t, data.y, data.y0, data.y1)
        cfg = est.CdnnConfig(hidden_widths=(16, 16), ensemble_size=1, seed=9, epochs=400)
        probe = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
        ite = est.predict_ite(est.fit(data, "freezing", cfg), probe)
        ite_sw = est.predict_ite(est.fit(swapped, "freezing", cfg), probe)
        assert np.max(np.abs(ite + ite_sw)) <= 0.05
        assert np.allclose(ite, 1.0, atol=0.05)


class TestSquaredLossEquivalence:
    def test_gradients_match_residual_formulation(self):
        # with the stage-1 output fixed, training h against y with the
        # encoding added at the output equals training h against y - g
        rng = np.random.default_rng(17)
        net = nn.Network.build(3, (8, 8), rng=rng, treatment_scale=0.01)
        X = rng.standard_normal((32, 3))
        T = rng.integers(0, 2, 32).astype(float)
        Y = rng.standard_normal(32)
        g_fixed = rng.standard_normal(32)

        h_pred, cache = net.forward_batch(X, T)
        _, dpred_sum = nn.mse_loss(h_pred + g_fixed, Y)
        grads_sum = nn.backward(net, cache, dpred_sum)

        h_pred2, cache2 = net.forward_batch(X, T)
        _, dpred_res = nn.mse_loss(h_pred2, Y - g_fixed)
        grads_res = nn.backward(net, cache2, dpred_res)

        for ga, gb in zip(grads_sum, grads_res):
            assert np.max(np.abs(ga - gb)) <= 1e-10


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        data = generate(make_spec(1.0, sigma=0.4, seed=51), 400)
        cfg = est.CdnnConfig(ensemble_size=2, epochs=25, seed=8)
        model = est.fit(data, "freezing", cfg)
        path = tmp_path / "model.npz"
        est.save_checkpoint(model, path)
        loaded = est.load_checkpoint(path)
        assert loaded.variant == model.variant
        assert loaded.config == model.config
        for (s1a, s2a), (s1b, s2b) in zip(model.members, loaded.members):
            for pa, pb in zip(s1a.network.params, s1b.network.params):
                assert np.array_equal(pa, pb)
            for pa, pb in zip(s2a.network.params, s2b.network.params):
                assert np.array_equal(pa, pb)
            for ma, mb in zip(s2a.mask.arrays, s2b.mask.arrays):
                assert np.array_equal(ma, mb)
        X = data.x[:20]
        assert np.array_equal(est.predict_ite(model, X), est.predict_ite(loaded, X))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda meta, arrays: meta["config"].update(bogus=1),
            lambda meta, arrays: meta["config"].pop("patience"),
            lambda meta, arrays: meta.pop("variant"),
            lambda meta, arrays: meta.pop("members"),
            lambda meta, arrays: meta["stage1"][0].pop("layers"),
            lambda meta, arrays: meta["stage2"][0].pop("target_kind"),
            lambda meta, arrays: arrays.pop("m0.s1.p0"),
            lambda meta, arrays: arrays.pop("m0.s2.mask3"),
            lambda meta, arrays: arrays.pop("meta"),
        ],
        ids=[
            "unknown-config-key",
            "missing-config-key",
            "missing-variant",
            "missing-members",
            "missing-layers",
            "missing-target-kind",
            "missing-parameter-array",
            "missing-mask-array",
            "missing-meta",
        ],
    )
    def test_malformed_checkpoint_raises_config_error(self, tmp_path, corrupt):
        data = generate(make_spec(1.0, sigma=0.4, seed=52), 100)
        cfg = est.CdnnConfig(hidden_widths=(4,), ensemble_size=1, epochs=2, seed=8)
        path = est.save_checkpoint(est.fit(data, "freezing", cfg), tmp_path / "model.npz")
        with np.load(path) as blob:
            arrays = dict(blob)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        corrupt(meta, arrays)
        if "meta" in arrays:
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ConfigError, match="malformed checkpoint"):
            est.load_checkpoint(bad)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, meta=np.frombuffer(b'{"format": 99}', dtype=np.uint8))
        with pytest.raises(ConfigError):
            est.load_checkpoint(path)
