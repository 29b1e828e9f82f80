"""Two-stage estimator: suppression, residuals, freezing contract, ensembles."""

import gc
import io
import json
import math
import multiprocessing
import os
import signal
import sys
import warnings
import zipfile
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnn import estimator as est
from cdnn import nn
from cdnn.data import (
    AffineSurface,
    ConstantPropensity,
    Dataset,
    DgpSpec,
    LogisticPropensity,
    _derived_seed,
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


class Rewrite:
    """A checkpoint corruption that replaces the saved file's bytes."""

    def __init__(self, rewrite):
        self.rewrite = rewrite


def edit_member0(stage, edit):
    """A corruption that applies `edit` to member 0's network of `stage`
    (1 or 2) and stores the edited theta, as a hand edit of the file would."""

    def corrupt(meta, arrays):
        model = est.load_checkpoint(io.BytesIO(npz_bytes(**arrays)))
        net = model.members[0][stage - 1].network
        edit(net)
        arrays[f"stage{stage}"][0] = net.theta

    return corrupt


def set_treatment_edge(net):
    net.theta[net.treatment_edges()[0]] = 1.0


def move_encoder_weight(net):
    net.weight(0)[0, 0] = np.nextafter(net.weight(0)[0, 0], np.inf)


def npz_bytes(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def flip_member_byte(raw, member=b"stage1.npy"):
    """raw with one data byte of the archive member `member` flipped."""
    at = raw.index(member) + 150
    return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :]


def npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


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


class TestStageMask:
    """_stage_mask against the sets each stage holds, written out through
    net.views: stage 1 the treatment rows, the explicit stage 2 nothing,
    freezing the first `held` layers but their treatment rows."""

    @pytest.mark.parametrize(
        "hidden, concat, depth, held",
        [
            ((5, 4, 3), False, 1, 1), ((5, 4, 3), False, 2, 2), ((5, 4, 3), False, 3, 3),
            ((5, 4, 3), True, 1, 1), ((5, 4, 3), True, 2, 2), ((5, 4, 3), True, 3, 3),
            ((5,), False, 2, 1), ((5, 4), True, 3, 2),
            ((), False, 1, 1), ((), True, 3, 1),
        ],
        ids=["depth-1", "depth-2", "depth-3", "concat-depth-1", "concat-depth-2",
             "concat-depth-3", "one-hidden-depth-2", "concat-two-hidden-depth-3",
             "no-hidden-depth-1", "concat-no-hidden-depth-3"],
    )
    def test_each_stage_holds_what_it_should(self, hidden, concat, depth, held):
        d = 3
        net = nn.Network.build(d, hidden, concat_inputs=concat, rng=0)
        cfg = est.CdnnConfig(hidden_widths=hidden, concat_inputs=concat, freeze_depth=depth)
        edges, frozen = (np.zeros(net.theta.size, dtype=bool) for _ in range(2))
        edge_views, frozen_views = net.views(edges), net.views(frozen)
        edge_views[0][d] = True  # t is the last of layer 0's d + 1 inputs
        for i in range(1, net.n_layers):
            edge_views[2 * i][-1] = concat  # and of every later layer's, with concat
        for i in range(held):
            frozen_views[2 * i][:] = frozen_views[2 * i + 1][:] = True
        frozen &= ~edges
        for stage, expected in (("stage1", edges), ("explicit_residual", np.zeros_like(edges)),
                                ("freezing", frozen)):
            mask = est._stage_mask(net, stage, cfg)
            assert mask.frozen.tobytes() == expected.tobytes(), stage
        assert np.array_equal(net.treatment_edges(), np.flatnonzero(edges))


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
        assert s2.variant == "explicit_residual"
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

    def test_moved_encoder_raises(self, monkeypatch):
        # with the encoder left trainable, training moves it off stage 1's bits
        fit_network = nn.fit_network

        def encoder_left_trainable(net, mask, *args, **kwargs):
            encoder, bias = net.views(mask.frozen)[:2]
            encoder[: net.covariate_width] = bias[:] = False
            return fit_network(net, mask, *args, **kwargs)

        monkeypatch.setattr(nn, "fit_network", encoder_left_trainable)
        data = generate(make_spec(1.0, sigma=0.3, seed=44), 300)
        cfg = est.CdnnConfig(hidden_widths=(8,), ensemble_size=2, epochs=3, seed=2)
        with pytest.raises(IdentityViolationError, match="ensemble member 0: frozen stage-2"):
            est.fit(data, "freezing", cfg)

    def test_training_that_frees_a_frozen_deeper_layer_raises(self, monkeypatch):
        # training gets a mask that frees layer 1; the check after the fit
        # asks _stage_mask afresh, so it sees layer 1 held and moved
        data = generate(make_spec(1.0, sigma=0.4, seed=33), 300)
        cfg = est.CdnnConfig(hidden_widths=(8, 6), ensemble_size=1, epochs=3, seed=13,
                             freeze_depth=2)
        s1 = est.fit_stage1(data, cfg)
        stage_mask, made = est._stage_mask, []

        def frees_layer1_for_training(net, stage, config):
            mask = stage_mask(net, stage, config)
            if not made:  # the first mask is the one training holds
                weight, bias = net.views(mask.frozen)[2:4]
                weight[:] = bias[:] = False
            made.append(mask)
            return mask

        monkeypatch.setattr(est, "_stage_mask", frees_layer1_for_training)
        with pytest.raises(IdentityViolationError, match="^frozen stage-2 encoder moved"):
            est.fit_stage2_freezing(s1, data, cfg)

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
        return est.Stage2Model("freezing", net, nn.TrainingLog())

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

    @pytest.mark.parametrize("c", [1.0, -0.75, 3.5, 1e-300])
    def test_output_c_times_t_gives_plus_c(self, c):
        # the network's output is exactly c*t, so the effect is f(1) - f(0) = +c
        stage2 = self._linear_stage2(c)
        stage2.network.weight(0)[0, 0] = 0.0
        stage2.network.bias(0)[:] = 0.0
        X = np.array([[-2.0], [0.0], [5.0]])
        assert list(stage2.ite(X)) == [c, c, c]
        model = est.CdnnEstimator([(None, stage2)], "freezing", est.CdnnConfig())
        assert list(est.predict_ite(model, X)) == [c, c, c]
        assert est.predict_ite(model, np.array([0.3])) == c

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
        assert model.members[0][1].variant == "explicit_residual"

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

    @pytest.mark.parametrize("variant", est.VARIANTS)
    def test_one_armed_training_part_is_rejected_before_training(self, monkeypatch, variant):
        # 10 rows, one treated: seed 0 carves the treated row into member 1's
        # validation part, leaving its 7 training rows all control
        rng = np.random.default_rng(100)
        t = np.zeros(10, dtype=int)
        t[3] = 1
        data = Dataset(rng.standard_normal((10, 2)), t, rng.standard_normal(10))
        cfg = est.CdnnConfig(hidden_widths=(4,), ensemble_size=3, epochs=2, seed=0)
        calls = []
        monkeypatch.setattr(nn, "fit_network", lambda *a, **k: calls.append(a))
        with pytest.raises(DegenerateTreatmentError, match=r"ensemble member 1: .*"
                           r"\(0 treated, 7 control\)"):
            est.fit(data, variant, cfg)
        assert calls == []

    def test_member_failures_annotated(self):
        data = generate(make_spec(1.0, seed=43), 200)
        forced = Dataset(data.x, np.zeros(len(data), dtype=int), data.y)
        with pytest.raises(DegenerateTreatmentError):
            est.fit(forced, "freezing", FAST)

    def test_divergence_reaches_caller_with_epoch(self):
        data = generate(make_spec(1.0, seed=45), 200)
        # finite covariates whose forward overflows: the loss is inf
        huge = Dataset(data.x * 1e200, data.t, data.y)
        cfg = est.CdnnConfig(ensemble_size=1, epochs=50, seed=3)
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

    @pytest.mark.parametrize(
        "error",
        [MemoryError("Unable to allocate 233. TiB"),
         ValueError("Maximum allowed dimension exceeded")],
        ids=["memory-error", "dimension-error"],
    )
    def test_a_network_numpy_cannot_allocate_is_a_config_error(self, monkeypatch, tmp_path,
                                                               error):
        # a stub stands in for the allocation, which would exhaust a real machine
        data = generate(make_spec(1.0, seed=47), 100)
        path = est.save_checkpoint(est.fit(data, "freezing", replace(FAST, epochs=1)),
                                   tmp_path / "model.npz")

        def cannot_allocate(self, *args):
            raise error

        monkeypatch.setattr(nn.Network, "__init__", cannot_allocate)
        with pytest.raises(ConfigError, match=f"^ensemble member 0: bad config value: "
                                              f"hidden_widths: {error}$"):
            est.fit(data, "freezing", replace(FAST, epochs=2))
        with pytest.raises(ConfigError, match=f"^malformed checkpoint: {error}$"):
            est.load_checkpoint(path)

    def test_no_covariates_stays_a_shape_error(self):
        t = np.arange(20) % 2
        data = Dataset(np.zeros((20, 0)), t, np.random.default_rng(0).standard_normal(20))
        with pytest.raises(ShapeError, match="covariate width must be >= 1"):
            est.fit(data, "freezing", replace(FAST, epochs=1))

    @pytest.mark.parametrize("variant", est.VARIANTS)
    @pytest.mark.parametrize("column, bad", [("y", np.nan), ("x", np.inf)])
    def test_non_finite_data_is_a_schema_error(self, variant, column, bad):
        # edited in place after construction: fit re-checks the arrays, so
        # the fit fails as a data error, not as a training divergence
        data = generate(named_dgp("confound-hetero", seed=2), 60)
        getattr(data, column)[5] = bad
        with pytest.raises(SchemaError, match="finite"):
            est.fit(data, variant, FAST)

    @pytest.mark.parametrize("variant", est.VARIANTS)
    @pytest.mark.parametrize("column, bad", [("y", np.nan), ("x", np.inf)])
    def test_non_finite_data_without_a_carve_is_a_schema_error(self, variant, column, bad):
        # no validation carve, so no subset re-validates the edited arrays
        data = generate(named_dgp("confound-hetero", seed=2), 60)
        getattr(data, column)[5] = bad
        with pytest.raises(SchemaError, match="finite"):
            est.fit(data, variant, replace(FAST, validation_fraction=0.0))

    def test_unknown_variant_rejected(self):
        data = generate(make_spec(1.0, seed=44), 200)
        with pytest.raises(ConfigError):
            est.fit(data, "implicit", FAST)


REUSE = est.CdnnConfig(hidden_widths=(8, 8), epochs=12, patience=5, ensemble_size=2, seed=11)


@pytest.fixture
def trained(monkeypatch, processes):
    """The member index of every stage 1 that fit() trains, in order. fit()
    is pinned to one process, because a call in a worker is not seen here."""
    trained = []
    real = est.fit_stage1

    def counting(*args, **kwargs):
        trained.append(kwargs["seed_stream"])
        return real(*args, **kwargs)

    monkeypatch.setattr(est, "fit_stage1", counting)
    processes(1)
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
    def test_warm_fit_is_bitwise_a_cold_fit(self, trained, seed, first, second):
        data = generate(make_spec(1.0, sigma=0.3, seed=seed), 200)
        other = generate(make_spec(1.0, sigma=0.3, seed=seed + 100), 200)
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

    def test_outcome_edited_in_place_misses(self, trained):
        data = generate(make_spec(1.0, sigma=0.3, seed=72), 200)
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
    def test_stage1_setting_change_misses(self, trained, seed, change):
        data = generate(make_spec(1.0, sigma=0.3, seed=seed), 200)
        est.fit(data, "freezing", REUSE)
        est.fit(data, "freezing", replace(REUSE, **change))
        assert trained == [0, 1, 0, 1]

    @pytest.mark.parametrize(
        "seed, change",
        [(78, {"treatment_scale": 0.05}), (79, {"freeze_depth": 2}), (80, {"ensemble_size": 1})],
    )
    def test_stage2_only_setting_change_hits(self, trained, seed, change):
        data = generate(make_spec(1.0, sigma=0.3, seed=seed), 200)
        a = est.fit(data, "freezing", REUSE)
        b = est.fit(data, "freezing", replace(REUSE, **change))
        assert trained == [0, 1]
        for (s1a, _), (s1b, _) in zip(a.members, b.members):
            for pa, pb in zip(s1a.network.params, s1b.network.params):
                assert same_bits(pa, pb)

    def test_growing_the_ensemble_trains_only_new_members(self, trained):
        data = generate(make_spec(1.0, sigma=0.3, seed=81), 200)
        est.fit(data, "freezing", REUSE)
        grown = est.fit(data, "explicit_residual", replace(REUSE, ensemble_size=4))
        assert trained == [0, 1, 2, 3]
        assert len(grown.members) == 4

    def test_estimators_share_no_mutable_stage1_state(self, trained):
        data = generate(make_spec(1.0, sigma=0.3, seed=82), 200)
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

    def test_each_trained_member_is_taken_over_once(self, trained):
        data = generate(make_spec(1.0, sigma=0.3, seed=86), 200)
        runs = []
        for _ in range(2):
            start = len(trained)
            runs.append([est.fit(data, v, REUSE) for v in ("freezing", "explicit_residual")])
            assert trained[start:] == [0, 1]  # a repeated pair does the same work
        for first, again in zip(*runs):
            assert_bitwise_equal_fits(first, again)

    def test_only_the_latest_data_is_held(self, trained):
        first = generate(make_spec(1.0, sigma=0.3, seed=83), 200)
        second = generate(make_spec(1.0, sigma=0.3, seed=84), 200)
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


def memo_bytes():
    """The stage-1 members fit() holds, as comparable bytes and logs."""
    key, held = est._stage1_memo
    return key, {m: (s.network.theta.tobytes(), s.training_log) for m, s in held.items()}


PARALLEL_CONFIGS = [
    est.CdnnConfig(ensemble_size=3, epochs=4, seed=21),
    est.CdnnConfig(hidden_widths=(8, 6, 4), concat_inputs=True, freeze_depth=2,
                   ensemble_size=3, epochs=4, seed=22),
]


class TestParallelMembers:
    """fit() trains its members in forked workers with bitwise the serial
    results, and hands a member's error to the caller as the serial fit does."""

    @pytest.mark.parametrize("variant", est.VARIANTS)
    @pytest.mark.parametrize("cfg", PARALLEL_CONFIGS, ids=["default", "concat-depth-2"])
    def test_parallel_fit_is_bitwise_the_serial_fit(self, processes, variant, cfg):
        data = generate(make_spec(1.0, sigma=0.3, d=3, seed=90), 240)
        parallel = est.fit(data, variant, cfg)
        processes(1)
        serial = est.fit(data, variant, cfg)
        assert_bitwise_equal_fits(parallel, serial)
        for (_, a), (_, b) in zip(parallel.members, serial.members):
            assert a.variant == b.variant == variant
            assert all(np.shares_memory(p, a.network.theta) for p in a.network.params)
        assert same_bits(est.predict_ite(parallel, data.x), est.predict_ite(serial, data.x))
        assert_no_children()

    def test_warm_fit_after_a_parallel_fit_is_its_serial_twin(self, processes):
        data = generate(make_spec(1.0, sigma=0.3, seed=91), 200)
        cfg = replace(REUSE, ensemble_size=3)
        fits, memos = [], []
        for run in range(2):
            if run:
                processes(1)
            fits.append([est.fit(data, "freezing", cfg)])
            memos.append([memo_bytes()])
            fits[-1].append(est.fit(data, "explicit_residual", cfg))
            memos[-1].append(memo_bytes())
        for parallel, serial in zip(*fits):
            assert_bitwise_equal_fits(parallel, serial)
        assert memos[0] == memos[1]
        assert sorted(memos[0][0][1]) == [0, 1, 2]  # the freezing fit trained every member
        assert memos[0][1][1] == {}  # the explicit fit took them all over

    def test_processes_never_exceed_the_count(self, processes, monkeypatch):
        data = generate(make_spec(1.0, sigma=0.3, seed=92), 200)
        seen = []
        real_fit = est.fit_stage1

        def observing(*args, **kwargs):
            seen.append(kwargs["seed_stream"])  # a worker appends to its own copy
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(est, "fit_stage1", observing)
        est.fit(data, "freezing", replace(REUSE, ensemble_size=5))
        assert processes.counts == [2]  # the caller and one worker
        assert seen == [0, 2, 4]  # the caller's share
        assert_no_children()

    @pytest.mark.parametrize(
        "error, check",
        [
            (TrainingDivergenceError("non-finite loss", epoch=3, step=5),
             lambda e: (type(e), str(e), e.epoch, e.step) == (
                 TrainingDivergenceError, "ensemble member 1: non-finite loss", 3, 5)),
            (SchemaError("bad value", row=7),
             lambda e: (type(e), str(e), e.row) == (
                 SchemaError, "ensemble member 1: bad value (row 7)", 7)),
        ],
        ids=["divergence-keeps-epoch-and-step", "schema-error-keeps-row"],
    )
    def test_worker_error_keeps_its_type_and_attributes(
        self, processes, monkeypatch, error, check
    ):
        with pytest.raises(type(error)) as info:
            fit_failing_on(monkeypatch, {1: error})
        assert check(info.value)
        assert_no_children()

    def test_unpicklable_worker_error_names_its_member(self, processes, monkeypatch):
        class LocalError(Exception):
            """Defined in a function: pickle cannot find it by name."""

        with pytest.raises(RuntimeError, match=r"^ensemble member 1: LocalError: no luck \("):
            fit_failing_on(monkeypatch, {1: LocalError("no luck")})
        assert_no_children()

    @pytest.mark.parametrize(
        "end, code",
        [(lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
        ids=["exit", "killed"],
    )
    def test_a_worker_that_dies_names_its_member(self, processes, monkeypatch, end, code):
        with pytest.raises(RuntimeError, match=f"^ensemble member 1: worker process ended "
                           f"with exit code {code} before"):
            fit_failing_on(monkeypatch, {1: end})
        assert_no_children()

    @pytest.mark.parametrize(
        "failing, expected", [((1, 2), 1), ((2, 3), 2), ((0, 1), 0)],
        ids=["worker-member-first", "caller-member-first", "both-first-members"],
    )
    def test_the_lowest_failing_member_wins(self, processes, monkeypatch, failing, expected):
        errors = {m: ShapeError(f"member {m} failed") for m in failing}
        with pytest.raises(ShapeError, match=f"^ensemble member {expected}: member {expected} "):
            fit_failing_on(monkeypatch, errors, members=4)
        assert_no_children()


    def test_worker_error_carries_the_worker_traceback(self, processes, monkeypatch):
        with pytest.raises(ShapeError, match="^ensemble member 1: bad shape") as info:
            fit_failing_on(monkeypatch, {1: ShapeError("bad shape")})
        cause = info.value.__cause__
        assert type(cause).__name__ == "_RemoteTraceback"
        assert "fit_stage1" in str(cause) and "ShapeError: bad shape" in str(cause)
        assert_no_children()


def fit_failing_on(monkeypatch, failures, members=3):
    """fit() with a stage 1 that fails for each member in `failures`: raising
    the exception given, or calling the function given."""
    real = est.fit_stage1

    def failing(*args, **kwargs):
        failure = failures.get(kwargs["seed_stream"])
        if isinstance(failure, Exception):
            raise failure
        if failure is not None:
            failure()
        return real(*args, **kwargs)

    monkeypatch.setattr(est, "fit_stage1", failing)
    data = generate(make_spec(1.0, sigma=0.3, seed=93), 120)
    est.fit(data, "freezing", replace(REUSE, hidden_widths=(4,), epochs=2, ensemble_size=members))


def assert_no_children():
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def prediction_models():
    """{(variant, config id): a fitted model} on 3 covariates, fitted once."""
    data = generate(make_spec(1.0, sigma=0.3, d=3, seed=94), 240)
    configs = {"default": replace(PARALLEL_CONFIGS[0], epochs=2),
               "concat-depth-2": replace(PARALLEL_CONFIGS[1], epochs=2)}
    models = {(variant, name): est.fit(data, variant, cfg)
              for variant in est.VARIANTS for name, cfg in configs.items()}
    block_rows = {name: model.members[0][1].network.block_rows
                  for (_, name), model in models.items()}
    assert block_rows["default"] != block_rows["concat-depth-2"]
    return models


def covariates(rows, seed=95):
    return np.random.default_rng(seed).standard_normal((rows, 3))


class TestParallelPrediction:
    """predict_ite() scores its forward blocks in forked workers with
    bitwise the serial results, and checks its input before any worker starts."""

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("variant", est.VARIANTS)
    @pytest.mark.parametrize("cfg", ["default", "concat-depth-2"])
    @pytest.mark.parametrize(
        "size",
        [lambda b: b, lambda b: 3 * b, lambda b: 3 * b + 1, lambda b: 2 * b + b // 2 + 1],
        ids=["one-block", "three-blocks", "three-blocks-and-a-row", "odd-rows"],
    )
    def test_parallel_prediction_is_bitwise_the_serial_prediction(
        self, prediction_models, processes, count, variant, cfg, size
    ):
        model = prediction_models[variant, cfg]
        block = model.members[0][1].network.block_rows
        rows = size(block)
        X = covariates(rows)
        processes(count)
        parallel = est.predict_ite(model, X)
        # P by (CPUs, blocks): one process per block below two per CPU
        procs = {(2, 1): 1, (2, 3): 3, (2, 4): 2, (3, 1): 1, (3, 3): 3, (3, 4): 4}
        assert processes.counts == [procs[count, -(-rows // block)]]
        processes(1)
        serial = est.predict_ite(model, X)
        assert processes.counts == [1]
        assert same_bits(parallel, serial)
        assert_no_children()

    def test_a_single_vector_returns_a_float(self, prediction_models, processes):
        model = prediction_models["freezing", "default"]
        x = covariates(1)[0]
        parallel = est.predict_ite(model, x)
        processes(1)
        assert type(parallel) is float
        assert parallel == est.predict_ite(model, x)
        assert_no_children()

    @pytest.mark.parametrize("variant", est.VARIANTS)
    @pytest.mark.parametrize("cfg", ["default", "concat-depth-2"])
    @pytest.mark.parametrize(
        "size",
        [lambda b: 1, lambda b: b - 1, lambda b: b, lambda b: b + 1, lambda b: 2 * b + 1],
        ids=["1", "B-1", "B", "B+1", "2B+1"],
    )
    def test_prediction_is_bitwise_the_mean_of_member_effects(
        self, prediction_models, processes, variant, cfg, size
    ):
        # predict_ite shares each block's [x | 1] and [x | 0] across members;
        # the sum starts at +0.0, so a member effect of -0.0 adds to +0.0
        model = prediction_models[variant, cfg]
        X = covariates(size(model.members[0][1].network.block_rows))
        expected = np.zeros(len(X))
        for _, stage2 in model.members:
            expected += stage2.ite(X)
        expected /= len(model.members)
        assert same_bits(est.predict_ite(model, X), expected)
        assert_no_children()

    @pytest.mark.parametrize(
        "shape, message",
        [((0, 3), "empty batch"), ((2 * 2048 + 1, 4), r"\(n, 3\), got \(4097, 4\)"),
         ((0,), r"\(n, 3\), got \(1, 0\)"), ((2, 2, 3), r"\(n, 3\), got \(2, 2, 3\)")],
        ids=["no-rows", "wrong-width", "empty-vector", "three-axes"],
    )
    def test_bad_input_raises_before_any_worker_starts(
        self, prediction_models, processes, monkeypatch, shape, message
    ):
        model = prediction_models["explicit_residual", "default"]
        X = np.zeros(shape)
        processes(1)
        with pytest.raises(ShapeError, match=message) as serial:
            est.predict_ite(model, X)
        processes(2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("predict_ite forked"))
        with pytest.raises(ShapeError) as parallel:
            est.predict_ite(model, X)
        assert str(parallel.value) == str(serial.value)
        assert_no_children()

    def test_worker_error_carries_the_worker_traceback(
        self, prediction_models, processes, monkeypatch
    ):
        caller = os.getpid()
        real = nn._predict

        def failing(net, U, work=None):
            if os.getpid() != caller:
                raise FloatingPointError("worker failed")
            return real(net, U, work)

        monkeypatch.setattr(nn, "_predict", failing)
        model = prediction_models["freezing", "default"]
        with pytest.raises(FloatingPointError, match="^worker failed$") as info:
            est.predict_ite(model, covariates(3 * 2048))
        assert "in failing" in str(info.value.__cause__)
        assert_no_children()

    def test_a_worker_that_dies_raises(self, prediction_models, processes, monkeypatch):
        caller = os.getpid()
        real = nn._predict
        monkeypatch.setattr(
            nn, "_predict",
            lambda net, U, work=None: os._exit(3) if os.getpid() != caller else real(net, U, work),
        )
        model = prediction_models["freezing", "default"]
        with pytest.raises(RuntimeError, match="^worker process ended with exit code 3 before"):
            est.predict_ite(model, covariates(3 * 2048))
        assert_no_children()


class TestNonFiniteCovariates:
    """A NaN or infinite covariate is a ShapeError naming its row, at every
    prediction entry point, before any worker starts."""

    ROWS = [lambda b: 0, lambda b: b + 5, lambda b: 3 * b]  # first block, second, last row

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ROWS, ids=["first-row", "second-block", "last-row"])
    def test_predict_ite_names_the_first_bad_row(
        self, prediction_models, processes, monkeypatch, count, bad, where
    ):
        model = prediction_models["freezing", "default"]
        block = model.members[0][1].network.block_rows
        X = covariates(3 * block + 1)
        row = where(block)
        X[row, 1] = bad
        X[-1, 2] = bad  # a later bad row is not the one named
        processes(count)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("predict_ite forked"))
        with pytest.raises(ShapeError, match=rf"finite .*; row {row} is not$"):
            est.predict_ite(model, X)
        assert_no_children()

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_single_bad_vector_is_row_0(self, prediction_models, processes, count):
        processes(count)
        with pytest.raises(ShapeError, match="row 0 is not$"):
            est.predict_ite(prediction_models["explicit_residual", "default"], [0.5, np.nan, 1.0])

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("stage", [0, 1], ids=["stage1", "stage2"])
    def test_stage_models_name_the_first_bad_row(
        self, prediction_models, processes, count, stage
    ):
        processes(count)
        model = prediction_models["explicit_residual", "concat-depth-2"].members[0][stage]
        X = covariates(2 * model.network.block_rows + 3)
        X[model.network.block_rows + 2, 0] = np.nan
        predict = model.predict if stage == 0 else lambda X: model.predict(X, 1)
        with pytest.raises(ShapeError, match=f"row {model.network.block_rows + 2} is not$"):
            predict(X)
        if stage == 1:
            with pytest.raises(ShapeError, match="row 0 is not$"):
                model.ite(np.full(3, np.inf))
        X[model.network.block_rows + 2, 0] = 0.0
        assert np.isfinite(predict(X)).all()


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


def checkpoint_bytes(model):
    buf = io.BytesIO()
    est.save_checkpoint(model, buf)
    return buf.getvalue()


def assert_same_model(a, b, X):
    """Bitwise equal thetas and predictions, and equal stage-2 variants."""
    assert (a.variant, a.config) == (b.variant, b.config)
    assert len(a.members) == len(b.members)
    for (s1a, s2a), (s1b, s2b) in zip(a.members, b.members):
        assert s1a.network.theta.tobytes() == s1b.network.theta.tobytes()
        assert s2a.network.theta.tobytes() == s2b.network.theta.tobytes()
        assert s2a.variant == s2b.variant
    assert est.predict_ite(a, X).tobytes() == est.predict_ite(b, X).tobytes()


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
            assert s2a.variant == s2b.variant
        X = data.x[:20]
        assert np.array_equal(est.predict_ite(model, X), est.predict_ite(loaded, X))

    def test_archive_holds_meta_and_one_matrix_per_stage(self, tmp_path):
        data = generate(make_spec(1.0, sigma=0.4, seed=53), 200)
        model = est.fit(data, "explicit_residual", est.CdnnConfig(epochs=2, seed=8))
        path = est.save_checkpoint(model, tmp_path / "model.npz")
        with zipfile.ZipFile(path) as archive:
            assert sorted(archive.namelist()) == ["meta.npy", "stage1.npy", "stage2.npy"]
        with np.load(path) as blob:
            meta = json.loads(bytes(blob["meta"]).decode("utf-8"))
            assert meta == {
                "format": 2,
                "variant": "explicit_residual",
                "config": json.loads(json.dumps(asdict(model.config))),
                "covariate_width": 2,
            }
            for k, stage in enumerate(zip(*model.members)):
                thetas = np.stack([s.network.theta for s in stage])
                assert thetas.shape == (3, stage[0].network.theta.size)
                assert blob[f"stage{k + 1}"].tobytes() == thetas.tobytes()
        assert checkpoint_bytes(est.load_checkpoint(path)) == path.read_bytes()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda meta, arrays: meta["config"].update(bogus=1),
            lambda meta, arrays: meta["config"].pop("patience"),
            lambda meta, arrays: meta.pop("variant"),
            lambda meta, arrays: meta["config"].pop("ensemble_size"),
            lambda meta, arrays: meta.pop("covariate_width"),
            lambda meta, arrays: arrays.pop("stage1"),
            lambda meta, arrays: arrays.update({"stage2": arrays["stage2"][:, :0]}),
            lambda meta, arrays: arrays.pop("stage2"),
            lambda meta, arrays: arrays.pop("meta"),
            lambda meta, arrays: arrays.update({"stage1": arrays["stage1"][:, :-1]}),
            lambda meta, arrays: arrays.update({"stage2": arrays["stage2"][0]}),
            lambda meta, arrays: arrays.update({"stage1": arrays["stage1"] != 0.0}),
            lambda meta, arrays: arrays.update({"stage1": np.vstack([arrays["stage1"]] * 2)}),
            lambda meta, arrays: arrays.update({"stage2": arrays["stage2"].T}),
            lambda meta, arrays: arrays.update({"stage2": arrays["stage2"].astype(np.int64)}),
            lambda meta, arrays: meta.update(covariate_width="two"),
            lambda meta, arrays: meta.update(covariate_width=0),
            lambda meta, arrays: meta.update(covariate_width="2"),
            lambda meta, arrays: meta.update(covariate_width=2.5),
            lambda meta, arrays: meta.update(covariate_width=10**30),
            lambda meta, arrays: meta["config"].update(hidden_widths=[2.5]),
            lambda meta, arrays: meta["config"].update(hidden_widths=["x"]),
            lambda meta, arrays: meta["config"].update(concat_inputs=True),
            lambda meta, arrays: meta["config"].update(hidden_widths=[5]),
            lambda meta, arrays: meta["config"].update(hidden_widths=[4, 4]),
            lambda meta, arrays: meta["config"].update(hidden_widths=4),
            lambda meta, arrays: meta["config"].update(hidden_widths=[10**30]),
            lambda meta, arrays: meta["config"].update(ensemble_size="1"),
            lambda meta, arrays: meta["config"].update(ensemble_size=2),
            lambda meta, arrays: meta["config"].update(ensemble_size=10**30),
            lambda meta, arrays: meta["config"].update(epochs=0),
            lambda meta, arrays: meta.update(variant="bogus"),
            lambda meta, arrays: meta.update(variant=["freezing"]),
            Rewrite(lambda raw: raw[: len(raw) // 2]),
            Rewrite(lambda raw: npy_bytes()),
            Rewrite(lambda raw: b"ite\n0.5\n"),
            Rewrite(lambda raw: b""),
            Rewrite(flip_member_byte),
            Rewrite(lambda raw: flip_member_byte(raw, b"stage2.npy")),
            Rewrite(lambda raw: npz_bytes(meta=np.frombuffer(b"\xff\xfe", dtype=np.uint8))),
            Rewrite(lambda raw: npz_bytes(meta=np.frombuffer(b"{format", dtype=np.uint8))),
        ],
        ids=[
            "unknown-config-key",
            "missing-config-key",
            "missing-variant",
            "missing-members",
            "missing-covariate-width",
            "missing-parameter-array",
            "missing-stage-2-parameter-array",
            "missing-stage-matrix",
            "missing-meta",
            "stage-matrix-of-another-width",
            "one-dimensional-stage-matrix",
            "wrong-dtype-stage-matrix",
            "wrong-shape-parameter",
            "transposed-parameter",
            "wrong-dtype-parameter",
            "string-covariate-width",
            "zero-covariate-width",
            "digit-string-covariate-width",
            "fractional-covariate-width",
            "huge-covariate-width",
            "fractional-config-width",
            "non-numeric-width",
            "concat-wiring-without-its-layers",
            "config-widths-of-another-shape",
            "config-widths-of-another-depth",
            "int-config-widths",
            "huge-config-width",
            "string-ensemble-size",
            "ensemble-size-of-another-count",
            "huge-config-ensemble-size",
            "zero-epochs",
            "unknown-variant",
            "list-variant",
            "truncated-archive",
            "npy-file",
            "text-file",
            "empty-file",
            "bad-member-crc",
            "bad-stage-2-member-crc",
            "non-utf8-meta",
            "non-json-meta",
        ],
    )
    def test_malformed_checkpoint_raises_config_error(self, tmp_path, corrupt):
        data = generate(make_spec(1.0, sigma=0.4, seed=52), 100)
        cfg = est.CdnnConfig(hidden_widths=(4,), ensemble_size=1, epochs=2, seed=8)
        model = est.fit(data, "freezing", cfg)
        path = tmp_path / "model.npz"
        est.save_checkpoint(model, path)
        est.load_checkpoint(path)  # the file loads before it is corrupted
        bad = tmp_path / "bad.npz"
        if isinstance(corrupt, Rewrite):
            bad.write_bytes(corrupt.rewrite(path.read_bytes()))
        else:
            with np.load(path) as blob:
                arrays = dict(blob)
            meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
            corrupt(meta, arrays)
            if "meta" in arrays:
                arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            np.savez(bad, **arrays)
        with pytest.raises(ConfigError, match="malformed checkpoint"):
            est.load_checkpoint(bad)

    @pytest.mark.parametrize(
        "rewrite",
        [lambda raw: raw[: len(raw) // 2], lambda raw: b"PK\x03\x04" + b"junk" * 16],
        ids=["truncated-archive", "zip-signature-then-junk"],
    )
    def test_a_rejected_archive_leaves_no_file_open(self, tmp_path, rewrite):
        buffer = io.BytesIO()
        np.savez(buffer, meta=np.zeros(64, dtype=np.uint8), stage1=np.ones((1, 300)))
        bad = tmp_path / "bad.npz"
        bad.write_bytes(rewrite(buffer.getvalue()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match="is not an .npz archive"):
                est.load_checkpoint(bad)
            gc.collect()  # an unclosed file warns when it is collected
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (edit_member0(1, set_treatment_edge), "stage-1 treatment edges are not exactly 0"),
            (edit_member0(2, move_encoder_weight), "frozen stage-2 encoder differs"),
        ],
        ids=["stage-1-treatment-edge-of-one", "stage-2-encoder-weight-moved-one-ulp"],
    )
    def test_broken_contract_names_member_and_contract(self, tmp_path, corrupt, reason):
        data = generate(make_spec(1.0, sigma=0.4, seed=55), 100)
        cfg = est.CdnnConfig(hidden_widths=(4,), ensemble_size=2, epochs=2, seed=8)
        model = est.fit(data, "freezing", cfg)
        path = tmp_path / "model.npz"
        est.save_checkpoint(model, path)
        with np.load(path) as blob:
            arrays = dict(blob)
        corrupt(None, arrays)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ConfigError, match=f"^malformed checkpoint: member 0: {reason}"):
            est.load_checkpoint(bad)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda s1, s2: set_treatment_edge(s1.network), "stage-1 treatment edges"),
            (lambda s1, s2: move_encoder_weight(s2.network), "frozen stage-2 encoder"),
        ],
        ids=["treatment-edge", "encoder"],
    )
    def test_save_refuses_a_broken_contract(self, tmp_path, edit, reason):
        data = generate(make_spec(1.0, sigma=0.4, seed=56), 100)
        cfg = est.CdnnConfig(hidden_widths=(4, 3), ensemble_size=2, epochs=2, seed=8)
        model = est.fit(data, "freezing", cfg)
        edit(*model.members[1])
        path = tmp_path / "model.npz"
        with pytest.raises(ConfigError, match=f"^malformed checkpoint: member 1: {reason}"):
            est.save_checkpoint(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("concat", [False, True], ids=["default-wiring", "concat-inputs"])
    @pytest.mark.parametrize("param", [2, 3], ids=["layer-1-weight", "layer-1-bias"])
    def test_every_frozen_layer_is_checked(self, tmp_path, concat, param):
        # entry j, the first of layer 1's weight or bias, is held at freeze_depth=2
        data = generate(make_spec(1.0, sigma=0.4, seed=58), 100)
        cfg = est.CdnnConfig(hidden_widths=(4, 3, 2), concat_inputs=concat, freeze_depth=2,
                             ensemble_size=2, epochs=2, seed=8)
        model = est.fit(data, "freezing", cfg)
        j = sum(p.size for p in model.members[0][1].network.params[:param])
        path = tmp_path / "model.npz"
        est.save_checkpoint(model, path)
        with np.load(path) as blob:
            arrays = dict(blob)
        arrays["stage2"][0, j] = np.nextafter(arrays["stage2"][0, j], np.inf)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        reason = "frozen stage-2 encoder differs from stage 1's"
        with pytest.raises(ConfigError, match=f"^malformed checkpoint: member 0: {reason}"):
            est.load_checkpoint(bad)
        theta = model.members[1][1].network.theta
        theta[j] = np.nextafter(theta[j], -np.inf)
        with pytest.raises(ConfigError, match=f"^malformed checkpoint: member 1: {reason}"):
            est.save_checkpoint(model, tmp_path / "edited.npz")
        assert not (tmp_path / "edited.npz").exists()

    @pytest.mark.parametrize("variant", est.VARIANTS)
    @pytest.mark.parametrize("stage, value", [(1, np.inf), (2, np.nan)],
                             ids=["stage-1-inf", "stage-2-nan"])
    def test_a_non_finite_parameter_is_refused(self, tmp_path, variant, stage, value):
        # the last entry of theta, the output bias, is held by no stage
        data = generate(make_spec(1.0, sigma=0.4, seed=57), 100)
        cfg = est.CdnnConfig(hidden_widths=(4, 3), ensemble_size=2, epochs=2, seed=8)
        model = est.fit(data, variant, cfg)
        path = tmp_path / "model.npz"
        est.save_checkpoint(model, path)
        with np.load(path) as blob:
            arrays = dict(blob)
        arrays[f"stage{stage}"][1, -1] = value
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        reason = "a parameter is not finite"
        with pytest.raises(ConfigError, match=f"^malformed checkpoint: member 1: {reason}"):
            est.load_checkpoint(bad)
        model.members[1][stage - 1].network.theta[-1] = value
        with pytest.raises(ConfigError, match=f"^malformed checkpoint: member 1: {reason}"):
            est.save_checkpoint(model, tmp_path / "edited.npz")
        assert not (tmp_path / "edited.npz").exists()

    @pytest.mark.parametrize("optimizer", ["adaptive_moment", "sgd_momentum"])
    def test_retired_update_rule_keys_are_read_and_dropped(self, tmp_path, optimizer):
        # format-2 files written while a second update rule existed name it
        # and its momentum in their config
        data = generate(make_spec(1.0, sigma=0.4, seed=59), 200)
        cfg = est.CdnnConfig(hidden_widths=(4,), ensemble_size=2, epochs=2, seed=8)
        path = est.save_checkpoint(est.fit(data, "freezing", cfg), tmp_path / "model.npz")
        with np.load(path) as blob:
            arrays = dict(blob)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["config"].update(optimizer=optimizer, momentum=0.9)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        loaded = est.load_checkpoint(old)
        assert_same_model(loaded, est.load_checkpoint(path), data.x)
        resaved = checkpoint_bytes(loaded)
        with np.load(io.BytesIO(resaved)) as blob:
            saved = json.loads(bytes(blob["meta"]).decode("utf-8"))
        assert not {"optimizer", "momentum"} & set(saved["config"])
        assert resaved == path.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        # format 1, the per-parameter layout that preceded format 2, is not read
        for fmt in (99, 1):
            path = tmp_path / f"format-{fmt}.npz"
            np.savez(path, meta=np.frombuffer(json.dumps({"format": fmt}).encode(), dtype=np.uint8))
            with pytest.raises(ConfigError, match=f"^unsupported checkpoint format {fmt}$"):
                est.load_checkpoint(path)

    @pytest.mark.parametrize(
        "meta, shown",
        [({"format": "2"}, "'2'"), ({"variant": "freezing"}, "None"), ("2", "None")],
        ids=["string-format", "missing-format", "meta-not-an-object"],
    )
    def test_format_that_is_not_the_number_2_rejected(self, tmp_path, meta, shown):
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        with pytest.raises(ConfigError, match=f"^unsupported checkpoint format {shown}$"):
            est.load_checkpoint(path)


class TestCheckpointProperties:
    """Over small random configs, fits keep the paper's contracts and their
    checkpoints read back bitwise."""

    @settings(max_examples=40, deadline=None)
    @given(
        freeze_depth=st.integers(1, 3),
        concat=st.booleans(),
        members=st.integers(1, 2),
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
        epochs=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_fits_keep_the_contracts_and_round_trip(
        self, freeze_depth, concat, members, widths, epochs, seed
    ):
        data = generate(make_spec(1.0, sigma=0.4, d=2, seed=seed), 60)
        cfg = est.CdnnConfig(
            hidden_widths=widths, concat_inputs=concat, freeze_depth=freeze_depth,
            ensemble_size=members, epochs=epochs, batch_size=16, seed=seed,
        )
        for variant in est.VARIANTS:
            model = est.fit(data, variant, cfg)
            for s1, s2 in model.members:
                assert s1.treatment_edges_zero()
                frozen = est._stage_mask(s2.network, variant, cfg).frozen
                assert s2.network.theta[frozen].tobytes() == s1.network.theta[frozen].tobytes()
            raw = checkpoint_bytes(model)
            loaded = est.load_checkpoint(io.BytesIO(raw))
            assert_same_model(model, loaded, data.x)
            assert checkpoint_bytes(loaded) == raw


class TestSeedStreams:
    def test_one_draw_of_each_stream_is_pinned(self):
        # data._seed_sequence feeds both; any change to how seeds are
        # derived moves these first draws
        assert _derived_seed(7, 2, 1) == 6442943914433913233
        rng = est._member_rng(est.CdnnConfig(seed=7), 2, 1)
        assert rng.random() == 0.5231147502091889
        assert rng.integers(0, 2**62) == 539062929408051675


class TestCdnnConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 0),
            ("epochs", -1),
            ("batch_size", 0),
            ("patience", 0),
            ("ensemble_size", 0),
            ("learning_rate", 0.0),
            ("learning_rate", -1e-3),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("hidden_widths", (2.5,)),
            ("hidden_widths", (0,)),
            ("hidden_widths", (8, -1)),
            ("hidden_widths", ("8",)),
            ("hidden_widths", (True,)),
            ("hidden_widths", 5),
            ("epochs", 2.5),
            ("batch_size", 1.5),
            ("patience", "3"),
            ("ensemble_size", True),
            ("freeze_depth", 0),
            ("freeze_depth", 1.0),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("learning_rate", True),
            ("learning_rate", "0.1"),
            ("treatment_scale", "x"),
            ("treatment_scale", math.inf),
            ("treatment_scale", 10**400),
            ("validation_fraction", None),
            ("validation_fraction", True),
            ("concat_inputs", "no"),
            ("concat_inputs", 1),
            ("hidden_widths", (8, 10**30)),
            ("ensemble_size", 10**30),
            ("hidden_widths", (sys.maxsize + 1,)),
            ("ensemble_size", sys.maxsize + 1),
        ],
        ids=[
            "zero-epochs",
            "negative-epochs",
            "zero-batch-size",
            "zero-patience",
            "zero-ensemble-size",
            "zero-learning-rate",
            "negative-learning-rate",
            "nan-learning-rate",
            "infinite-learning-rate",
            "fractional-width",
            "zero-width",
            "negative-width",
            "string-width",
            "bool-width",
            "int-hidden-widths",
            "fractional-epochs",
            "fractional-batch-size",
            "string-patience",
            "bool-ensemble-size",
            "zero-freeze-depth",
            "float-freeze-depth",
            "negative-seed",
            "fractional-seed",
            "bool-seed",
            "bool-learning-rate",
            "string-learning-rate",
            "string-treatment-scale",
            "infinite-treatment-scale",
            "huge-int-treatment-scale",
            "null-validation-fraction",
            "bool-validation-fraction",
            "string-concat-inputs",
            "int-concat-inputs",
            "width-past-the-index-range",
            "ensemble-size-past-the-index-range",
            "width-one-past-the-index-range",
            "ensemble-size-one-past-the-index-range",
        ],
    )
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ConfigError):
            est.CdnnConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = est.CdnnConfig(epochs=np.int64(2), batch_size=np.int32(8), patience=np.uint8(1),
                             ensemble_size=np.int64(1), freeze_depth=np.int16(2), seed=np.int64(0),
                             learning_rate=np.float32(0.01), treatment_scale=np.float64(0.0),
                             validation_fraction=np.float32(0.25))
        assert (cfg.epochs, cfg.seed, cfg.validation_fraction) == (2, 0, 0.25)
        cfg = est.CdnnConfig(treatment_scale=0, validation_fraction=0, learning_rate=1)
        assert cfg.learning_rate == 1

    def test_no_update_rule_settings(self):
        names = {f.name for f in fields(est.CdnnConfig)}
        assert len(names) == 12 and not names & {"optimizer", "momentum", "algorithm"}
        for retired in ({"optimizer": "adaptive_moment"}, {"momentum": 0.9}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                est.CdnnConfig(**retired)

    def test_integer_widths_accepted(self):
        assert est.CdnnConfig(hidden_widths=(np.int64(3), 1)).hidden_widths == (3, 1)
        assert est.CdnnConfig(hidden_widths=()).hidden_widths == ()
        assert est.CdnnConfig(hidden_widths=[4]).hidden_widths == (4,)  # stored as a tuple

    def test_largest_sizes_accepted(self):
        # the check bounds the numbers only; nothing of this size is allocated
        cfg = est.CdnnConfig(hidden_widths=(sys.maxsize,), ensemble_size=sys.maxsize)
        assert (cfg.hidden_widths, cfg.ensemble_size) == ((sys.maxsize,), sys.maxsize)

    def test_smallest_values_accepted(self):
        cfg = est.CdnnConfig(epochs=1, batch_size=1, patience=1, ensemble_size=1,
                             learning_rate=5e-324)
        assert (cfg.epochs, cfg.batch_size, cfg.patience, cfg.ensemble_size) == (1, 1, 1, 1)
