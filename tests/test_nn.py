"""Network engine tests: activations, forward/backward, masks, the optimizer."""

import copy
import dataclasses
import math
import pickle
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnn import estimator as est
from cdnn import nn
from cdnn.errors import ShapeError, StaleCacheError, TrainingDivergenceError

def swish_prime(z):
    """Derivative of swish: logistic(z) * (1 + z * (1 - logistic(z)))."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        s = nn._logistic(z)
    return s * (1.0 + z * (1.0 - s))


def forward(net, x, t):
    """Score a single observation; returns (prediction, cache)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    preds, cache = net.forward_batch(x[None, :], np.asarray([t], dtype=float))
    return float(preds[0]), cache


def all_frozen(net):
    return nn.FreezeMask(net, np.ones(net.theta.size, dtype=bool))


def edges_mask(net):
    """Stage 1's mask: every treatment edge frozen."""
    mask = nn.FreezeMask(net)
    mask.frozen[net.treatment_edges()] = True
    return mask


# frozen from a 40-digit mpmath evaluation of z / (1 + exp(-z))
SWISH_ORACLE = {
    0.0: 0.0,
    1.0: 0.7310585786300049,
    -20.0: -4.122307236380407e-08,
    0.5: 0.3112296656009273,
    -3.7: -0.08926997924537604,
}


class TestSwish:
    def test_frozen_values(self):
        for z, expected in SWISH_ORACLE.items():
            assert nn.swish(z) == pytest.approx(expected, rel=1e-15, abs=1e-300)

    def test_matches_definition_on_grid(self):
        z = np.linspace(-30.0, 30.0, 1201)
        direct = z * (1.0 / (1.0 + np.exp(-z)))
        # swish's logistic is this same formula on numpy's exp; the bound allows a few ulps
        assert np.max(np.abs(nn.swish(z) - direct)) <= 4e-15

    def test_extreme_arguments_saturate(self):
        assert nn.swish(700.0) == 700.0
        assert abs(nn.swish(-700.0)) < 1e-300  # underflows cleanly, no overflow
        assert np.isfinite(nn.swish(np.array([-700.0, 700.0]))).all()

    def test_derivative_matches_finite_difference(self):
        z = np.linspace(-8.0, 8.0, 101)
        h = 1e-6
        fd = (nn.swish(z + h) - nn.swish(z - h)) / (2 * h)
        assert np.max(np.abs(swish_prime(z) - fd)) < 1e-8


class TestLogistic:
    """Saturation without warnings; any warning escaping fails the test."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("z", [710.0, 1e308, np.inf, -710.0, -1e308, -np.inf])
    def test_logistic_saturates_exactly(self, z):
        expected = 1.0 if z > 0 else 0.0
        # callers of _logistic hold this errstate; exp(710) overflows to inf
        with np.errstate(over="ignore"):
            assert nn._logistic(np.asarray(z)) == expected
            assert nn._logistic(np.array([z, z]))[1] == expected

    @pytest.mark.parametrize("z", [710.0, 1e308, np.inf, -710.0, -1e308, -np.inf])
    def test_swish_saturates_without_warning(self, z):
        expected = z if z > 0 else 0.0
        assert nn.swish(z) == expected
        assert np.array_equal(nn.swish(np.array([z])), [expected])

    def test_swish_of_finite_inputs_is_bitwise_z_times_logistic(self):
        z = np.concatenate(
            [[-1e308, -745.0, -710.0, -709.5, -0.0, 0.0, 1e308], np.linspace(-40.0, 40.0, 801)]
        )
        with np.errstate(over="ignore"):
            expected = z * nn._logistic(z)
        assert nn.swish(z).tobytes() == expected.tobytes()
        assert np.signbit(nn.swish(-710.0)) and np.signbit(nn.swish(-np.inf))

    def test_nan_stays_nan(self):
        with np.errstate(over="ignore"):
            assert np.isnan(nn._logistic(np.array([np.nan, 0.0]))[0])
        assert np.isnan(nn.swish(np.nan))
        assert np.isnan(swish_prime(np.array([np.nan]))[0])

    def test_swish_prime_saturates_without_warning(self):
        z = np.array([-710.0, -1e308, 710.0, 1e308])
        assert np.array_equal(swish_prime(z)[:2], [0.0, 0.0])
        assert np.array_equal(swish_prime(z)[2:], [1.0, 1.0])

    def test_huge_weights_give_finite_predictions(self):
        net = nn.Network.build(3, (8, 8), rng=2, treatment_scale=0.5)
        net.set_params(net.theta * 1e4)
        X = np.random.default_rng(0).standard_normal((200, 3))
        T = np.arange(200) % 2
        preds, cache = net.forward_batch(X, T)
        assert min(z.min() for z in cache.preacts) < -709.0
        assert np.isfinite(preds).all()
        bare, _ = net.forward_batch(X, T, keep_cache=False)
        assert bare.tobytes() == preds.tobytes()


class TestForward:
    def test_identity_layer_reproduces_linear_map(self):
        # single identity layer, identity block on x, zero treatment edge
        net = nn.Network.build(2, (), activation="identity", rng=0)
        W = net.weight(0)
        W[:] = 0.0
        W[0, 0] = 1.0
        W[1, 0] = 1.0
        pred, _ = forward(net, [1.0, 2.0], 0)
        assert pred == 3.0

    def test_all_zero_parameters_give_zero(self):
        net = nn.Network.build(3, (4, 4), rng=1)
        for p in net.params:
            p[:] = 0.0
        pred, _ = forward(net, [0.3, -1.0, 2.0], 1)
        assert pred == 0.0

    def test_matches_hand_rolled_matrix_arithmetic(self):
        # independent straight-line recomputation of a 2-layer swish net
        rng = np.random.default_rng(42)
        net = nn.Network.build(2, (3,), rng=rng, treatment_scale=0.5)
        x = np.array([0.7, -1.2])
        t = 1.0
        u = np.array([x[0], x[1], t])
        z1 = u @ net.weight(0) + net.bias(0)
        h1 = z1 / (1.0 + np.exp(-z1)) * 1.0  # z*sigmoid(z)
        expected = float((h1 @ net.weight(1) + net.bias(1))[0])
        pred, _ = forward(net, x, t)
        assert pred == pytest.approx(expected, rel=1e-14)

    def test_concat_wiring_reinjects_raw_input(self):
        net = nn.Network.build(2, (3, 3), concat_inputs=True, rng=5, treatment_scale=0.1)
        assert net.layers[1].input_width == 3 + 2 + 1
        assert net.treatment_input_row(1) == 5
        pred0, _ = forward(net, [0.1, 0.2], 0)
        pred1, _ = forward(net, [0.1, 0.2], 1)
        assert pred0 != pred1  # nonzero treatment edges reach deep layers

    def test_dimension_mismatch_raises(self):
        net = nn.Network.build(3, (4,), rng=0)
        with pytest.raises(ShapeError):
            forward(net, [1.0, 2.0], 0)
        with pytest.raises(ShapeError):
            net.forward_batch(np.zeros((2, 3)), np.zeros(3))

    @pytest.mark.parametrize("keep_cache", [True, False])
    def test_the_covariate_check_of_prediction(self, keep_cache):
        net = nn.Network.build(3, (4,), rng=0)
        X = np.zeros((5, 3))
        X[2, 1] = np.nan
        with pytest.raises(ShapeError, match="row 2 is not$"):
            net.forward_batch(X, np.zeros(5), keep_cache=keep_cache)
        with pytest.raises(ShapeError, match="^empty batch$"):
            net.forward_batch(X[:0], np.zeros(0), keep_cache=keep_cache)
        vector, _ = net.forward_batch(np.ones(3), [1.0], keep_cache=keep_cache)
        row, _ = net.forward_batch(np.ones((1, 3)), [1.0], keep_cache=keep_cache)
        assert vector.tobytes() == row.tobytes()

    @pytest.mark.parametrize(
        "activation, concat", [("swish", False), ("swish", True), ("identity", False)]
    )
    def test_prediction_without_cache_is_bitwise_equal(self, activation, concat):
        net = nn.Network.build(
            3, (8, 8), activation=activation, concat_inputs=concat, rng=4, treatment_scale=0.1
        )
        rng = np.random.default_rng(1)
        X = rng.standard_normal((500, 3))
        T = rng.integers(0, 2, 500).astype(float)
        cached, cache = net.forward_batch(X, T)
        bare, none = net.forward_batch(X, T, keep_cache=False)
        assert cache is not None and none is None
        assert cached.dtype == bare.dtype and cached.tobytes() == bare.tobytes()

    def test_zero_treatment_edges_make_treatment_irrelevant(self):
        net = nn.Network.build(4, (8, 8), rng=7, treatment_scale=0.0)
        X = np.random.default_rng(0).standard_normal((50, 4))
        p0, _ = net.forward_batch(X, np.zeros(50))
        p1, _ = net.forward_batch(X, np.ones(50))
        assert np.array_equal(p0, p1)


class TestBackward:
    def test_single_linear_parameter(self):
        # output w*x with x=3: gradient wrt w is 3
        net = nn.Network.build(1, (), activation="identity", rng=0)
        net.weight(0)[:] = [[0.5], [0.0]]
        net.bias(0)[:] = 0.0
        pred, cache = forward(net, [3.0], 0)
        grads = nn.backward(net, cache, 1.0)
        assert net.views(grads)[0][0, 0] == 3.0

    def test_matches_finite_differences_many_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 5))
            hidden = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 4))))
            net = nn.Network.build(d, hidden, rng=rng, treatment_scale=0.01)
            n = int(rng.integers(2, 7))
            batch = (
                rng.standard_normal((n, d)),
                rng.integers(0, 2, n).astype(float),
                rng.standard_normal(n),
            )
            assert nn.gradient_check(net, batch) <= 1e-4

    def test_stale_cache_rejected(self):
        net = nn.Network.build(2, (3,), rng=3)
        _, cache = forward(net, [1.0, 2.0], 0)
        mask = nn.FreezeMask.none(net)
        opt = nn.OptimizerState.create(net)
        grads = np.ones_like(net.theta)
        nn.step(net, grads, mask, opt)
        with pytest.raises(StaleCacheError):
            nn.backward(net, cache, 1.0)

    def test_frozen_zero_treatment_edges_stay_zero_through_updates(self):
        net = nn.Network.build(3, (5,), rng=11, treatment_scale=0.0)
        mask = edges_mask(net)
        opt = nn.OptimizerState.create(net)
        rng = np.random.default_rng(0)
        for _ in range(10):
            X = rng.standard_normal((8, 3))
            T = rng.integers(0, 2, 8).astype(float)
            Y = rng.standard_normal(8)
            preds, cache = net.forward_batch(X, T)
            _, dpred = nn.mse_loss(preds, Y)
            grads = nn.backward(net, cache, dpred)
            # the gradient is computed for frozen edges too ...
            assert net.views(grads)[0].shape == net.weight(0).shape
            nn.step(net, grads, mask, opt)
        # ... but the update never touches them
        assert np.all(net.weight(0)[3, :] == 0.0)


class TestStep:
    def test_state_holds_one_rule(self):
        names = [f.name for f in dataclasses.fields(nn.OptimizerState)]
        assert names == ["learning_rate", "step_count", "buffers", "scratch"]
        assert not hasattr(nn, "OPTIMIZERS")
        opt = nn.OptimizerState.create(nn.Network.build(2, (4,), rng=0))
        assert opt.learning_rate == 1e-3 and len(opt.buffers) == len(opt.scratch) == 2

    def test_fully_frozen_mask_is_a_no_op(self):
        net = nn.Network.build(2, (4,), rng=9, treatment_scale=0.01)
        before = net.theta.copy()
        opt = nn.OptimizerState.create(net)
        grads = np.full(net.theta.shape, 3.14)
        for _ in range(5):
            nn.step(net, grads, all_frozen(net), opt)
        assert np.array_equal(before, net.theta)

    @pytest.mark.parametrize("g", [1e-3, 1.0, 1e3])
    def test_adaptive_moment_first_step_magnitude_is_lr(self, g):
        # hand evaluation at step 1: lr * g / (|g| + eps) ~ lr * sign(g)
        net = nn.Network.build(1, (), activation="identity", rng=0)
        net.weight(0)[0, 0] = 1.0
        grads = np.zeros_like(net.theta)
        net.views(grads)[0][0, 0] = g
        lr = 1e-3
        opt = nn.OptimizerState.create(net, learning_rate=lr)
        nn.step(net, grads, nn.FreezeMask.none(net), opt)
        assert abs(1.0 - net.weight(0)[0, 0]) == pytest.approx(lr, rel=1e-4)

    def test_frozen_accumulators_stay_zero(self):
        net = nn.Network.build(2, (4,), rng=2, treatment_scale=0.0)
        mask = edges_mask(net)
        opt = nn.OptimizerState.create(net)
        grads = np.ones_like(net.theta)
        for _ in range(3):
            nn.step(net, grads, mask, opt)
        row = net.treatment_input_row(0)
        for buf in opt.buffers:
            assert np.all(net.views(buf)[0][row, :] == 0.0)

    def test_frozen_negative_zeros_keep_their_bytes(self):
        net = nn.Network.build(2, (4,), rng=5, treatment_scale=0.1)
        mask = nn.FreezeMask.none(net)
        opt = nn.OptimizerState.create(net, learning_rate=0.1)
        rng = np.random.default_rng(1)
        nn.step(net, rng.standard_normal(net.theta.size), mask, opt)
        j = 3  # a free entry with trained moments
        assert all(buf[j] != 0.0 for buf in opt.buffers)
        for flat in (net.theta, *opt.buffers):
            flat[j] = -0.0
        mask.frozen[j] = True
        for sign in (1.0, -1.0):
            grads = rng.standard_normal(net.theta.size)
            grads[j] = sign
            nn.step(net, grads, mask, opt)
            for flat in (net.theta, *opt.buffers):
                assert flat[j:j + 1].tobytes() == np.array([-0.0]).tobytes()

    def test_non_finite_gradient_raises_with_step(self):
        net = nn.Network.build(1, (2,), rng=0)
        grads = np.zeros_like(net.theta)
        net.views(grads)[0][0, 0] = np.nan
        opt = nn.OptimizerState.create(net)
        with pytest.raises(TrainingDivergenceError) as info:
            nn.step(net, grads, nn.FreezeMask.none(net), opt)
        assert info.value.step == 0


class TestMseLoss:
    def test_perfect_prediction(self):
        loss, grad = nn.mse_loss([1.0, 1.0], [1.0, 1.0])
        assert loss == 0.0
        assert np.array_equal(grad, [0.0, 0.0])

    def test_hand_arithmetic_single(self):
        loss, grad = nn.mse_loss([2.0], [0.0])
        assert loss == 4.0
        assert np.array_equal(grad, [4.0])

    def test_hand_arithmetic_pair(self):
        loss, _ = nn.mse_loss([1.0, 3.0], [0.0, 0.0])
        assert loss == 5.0  # (1 + 9) / 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            nn.mse_loss([], [])

    @pytest.mark.parametrize("n", [1, 3, 64, 600, 100_000])
    def test_loss_is_bitwise_numpy_mean(self, n):
        rng = np.random.default_rng(n)
        preds, targets = rng.standard_normal(n) * 3.0, rng.standard_normal(n)
        loss, _ = nn.mse_loss(preds, targets)
        diff = preds - targets
        assert loss == float(np.mean(diff * diff))


class TestGradientCheck:
    def test_linear_network_is_essentially_exact(self):
        rng = np.random.default_rng(4)
        net = nn.Network.build(3, (5,), activation="identity", rng=rng, treatment_scale=0.01)
        batch = (
            rng.standard_normal((6, 3)),
            rng.integers(0, 2, 6).astype(float),
            rng.standard_normal(6),
        )
        assert nn.gradient_check(net, batch) <= 1e-7

    def test_three_layer_swish_network(self):
        rng = np.random.default_rng(8)
        net = nn.Network.build(2, (4, 4, 4), rng=rng, treatment_scale=0.01)
        batch = (
            rng.standard_normal((5, 2)),
            rng.integers(0, 2, 5).astype(float),
            rng.standard_normal(5),
        )
        assert nn.gradient_check(net, batch) <= 1e-4

    def test_frozen_layers_are_still_checked(self):
        # the check is mask independent: gradients exist even where updates
        # are masked, and freezing must not change the result
        rng = np.random.default_rng(15)
        net = nn.Network.build(2, (4,), rng=rng, treatment_scale=0.01)
        batch = (
            rng.standard_normal((4, 2)),
            rng.integers(0, 2, 4).astype(float),
            rng.standard_normal(4),
        )
        err = nn.gradient_check(net, batch)
        assert err <= 1e-4


def reference_gradient_check(net, batch, step_size=1e-5):
    """gradient_check as one forward per probe, in probe order.

    nn.gradient_check runs the same probes as two stacked forwards; this loop
    is the definition it must match bit for bit. Unlike it, this loop skips
    NaN errors (`NaN > worst` is False).
    """
    X, T, targets = batch
    preds, cache = net.forward_batch(X, T)
    _, dpred = nn.mse_loss(preds, targets)
    grad = nn.backward(net, cache, dpred)

    theta = net.theta
    worst = 0.0
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + step_size
        lp, _ = nn.mse_loss(net.forward_batch(X, T, keep_cache=False)[0], targets)
        theta[j] = orig - step_size
        lm, _ = nn.mse_loss(net.forward_batch(X, T, keep_cache=False)[0], targets)
        theta[j] = orig
        fd = (lp - lm) / (2.0 * step_size)
        err = abs(grad[j] - fd) / max(abs(grad[j]) + abs(fd), 1e-2)
        if err > worst:
            worst = err
    return worst


def _random_batch(rng, n, d):
    return (
        rng.standard_normal((n, d)),
        rng.integers(0, 2, n).astype(float),
        rng.standard_normal(n),
    )


class TestStackedProbes:
    """One forward body over an optional leading stack axis; gradient_check
    probes through it in stacked chunks."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 5),
        hidden=st.lists(st.integers(1, 9), max_size=3).map(tuple),
        activation=st.sampled_from(nn.ACTIVATIONS),
        concat=st.booleans(),
        n=st.integers(1, 12),
        stack=st.integers(1, 7),
        keep_cache=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_row_is_bitwise_the_single_forward(
        self, d, hidden, activation, concat, n, stack, keep_cache, seed
    ):
        rng = np.random.default_rng(seed)
        net = nn.Network.build(
            d, hidden, activation=activation, concat_inputs=concat,
            treatment_scale=0.5, rng=rng,
        )
        thetas = net.theta + rng.standard_normal((stack, net.theta.size))
        X, T, _ = _random_batch(rng, n, d)
        stacked, _ = nn._forward(net, net.views(thetas), X, T, keep_cache)
        assert stacked.shape == (stack, n)
        for s in range(stack):
            net.set_params(thetas[s])
            single, _ = net.forward_batch(X, T, keep_cache=False)
            assert stacked[s].tobytes() == single.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_on_architecture_sweep(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        hidden = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 4))))
        net = nn.Network.build(
            d, hidden, activation=nn.ACTIVATIONS[seed % 2], concat_inputs=seed % 3 == 1,
            rng=rng, treatment_scale=0.01,
        )
        batch = _random_batch(rng, int(rng.integers(2, 7)), d)
        before = net.theta.copy()
        assert nn.gradient_check(net, batch) == reference_gradient_check(net, batch)
        assert net.theta.tobytes() == before.tobytes()

    def test_matches_reference_across_chunks(self, monkeypatch):
        rng = np.random.default_rng(21)
        net = nn.Network.build(4, (24, 24), concat_inputs=True, rng=rng, treatment_scale=0.01)
        batch = _random_batch(rng, 64, 4)
        stacks = []
        forward = nn._forward

        def spy(net, params, X, T, keep_cache, work=None):
            if params[0].ndim == 3:
                stacks.append(params[0].shape[0])
            return forward(net, params, X, T, keep_cache, work)

        monkeypatch.setattr(nn, "_forward", spy)
        assert nn.gradient_check(net, batch) == reference_gradient_check(net, batch)
        # every probe runs once per direction, in at least three chunks
        assert len(stacks) >= 6 and sum(stacks) == 2 * net.theta.size

    def test_non_finite_backprop_entry_fails_the_check(self, monkeypatch):
        rng = np.random.default_rng(4)
        net = nn.Network.build(3, (5,), rng=rng, treatment_scale=0.01)
        batch = _random_batch(rng, 6, 3)
        backward = nn.backward

        def broken(net, cache, loss_gradient):
            grad = backward(net, cache, loss_gradient)
            grad[3] = np.nan
            return grad

        monkeypatch.setattr(nn, "backward", broken)
        assert reference_gradient_check(net, batch) <= 1e-4  # the loop missed it
        assert np.isnan(nn.gradient_check(net, batch))


def _block_forwards(net, X, T):
    """The no-cache prediction as one _forward per block_rows slice."""
    rows = net.block_rows
    parts = [
        nn._forward(net, net.params, X[k : k + rows], T[k : k + rows], False)[0]
        for k in range(0, X.shape[0], rows)
    ]
    return np.concatenate(parts)


def _spy_forward_rows(monkeypatch):
    """Record the row count of every _forward call."""
    rows, forward = [], nn._forward

    def spy(net, params, X, T, keep_cache, work=None):
        rows.append(X.shape[0])
        return forward(net, params, X, T, keep_cache, work)

    monkeypatch.setattr(nn, "_forward", spy)
    return rows


class TestRowBlocks:
    """A forward without a cache runs in row blocks of about _BLOCK_BYTES."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 5),
        hidden=st.lists(st.integers(1, 200), max_size=3).map(tuple),
        activation=st.sampled_from(nn.ACTIVATIONS),
        concat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_prediction_is_bitwise_the_block_forwards(
        self, d, hidden, activation, concat, seed, data
    ):
        rng = np.random.default_rng(seed)
        net = nn.Network.build(
            d, hidden, activation=activation, concat_inputs=concat,
            treatment_scale=0.5, rng=rng,
        )
        rows = net.block_rows
        assert rows % 16 == 0
        n = data.draw(st.integers(1, 3 * rows), label="n")
        X, T, _ = _random_batch(rng, n, d)
        preds, cache = net.forward_batch(X, T, keep_cache=False)
        assert cache is None and preds.shape == (n,)
        assert preds.tobytes() == _block_forwards(net, X, T).tobytes()
        if n <= rows:
            once, _ = nn._forward(net, net.params, X, T, False)
            assert preds.tobytes() == once.tobytes()

    def test_block_holds_about_the_byte_budget(self):
        net = nn.Network.build(5, (64, 64, 64), rng=0)
        assert net.block_rows == 2048
        assert net.block_rows * 64 * 8 == nn._BLOCK_BYTES
        wide = nn.Network.build(5, (100_000,), rng=0)
        assert wide.block_rows == 16

    @pytest.mark.parametrize(
        "extra, calls", [(-1, 1), (0, 1), (1, 2), (1 + 2048, 3)], ids=["B-1", "B", "B+1", "2B+1"]
    )
    def test_rows_around_block_boundaries(self, monkeypatch, extra, calls):
        rng = np.random.default_rng(extra + 5)
        net = nn.Network.build(5, (64, 64, 64), rng=rng, treatment_scale=0.1)
        n = net.block_rows + extra
        X, T, _ = _random_batch(rng, n, 5)
        expected = _block_forwards(net, X, T)
        rows = _spy_forward_rows(monkeypatch)
        preds, _ = net.forward_batch(X, T, keep_cache=False)
        assert preds.tobytes() == expected.tobytes()
        assert len(rows) == calls and sum(rows) == n
        assert all(r == net.block_rows for r in rows[:-1])

    def test_cached_forward_is_one_unblocked_pass(self, monkeypatch):
        rng = np.random.default_rng(9)
        net = nn.Network.build(3, (64, 64), rng=rng, treatment_scale=0.1)
        n = 2 * net.block_rows + 1
        X, T, _ = _random_batch(rng, n, 3)
        rows = _spy_forward_rows(monkeypatch)
        preds, cache = net.forward_batch(X, T)
        assert rows == [n]
        assert cache.batch_size == n and preds.shape == (n,)
        assert all(a.shape[0] == n for a in cache.inputs + cache.preacts)
        grad = nn.backward(net, cache, np.ones(n))
        assert grad.shape == net.theta.shape and np.isfinite(grad).all()


class TestFlatLayout:
    """One flat float64 theta per network; params, masks, gradients, clones
    and checkpoints all follow its layout."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 5),
        hidden=st.lists(st.integers(1, 7), max_size=3).map(tuple),
        concat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_views_clone_and_checkpoint(self, d, hidden, concat, seed):
        rng = np.random.default_rng(seed)
        net = nn.Network.build(d, hidden, concat_inputs=concat, rng=rng, treatment_scale=0.1)
        mask = nn.FreezeMask(net, rng.random(net.theta.size) < 0.5)
        assert net.theta.dtype == np.float64 and net.theta.flags.c_contiguous
        for flat, views in ((net.theta, net.params), (mask.frozen, net.views(mask.frozen))):
            assert len(views) == 2 * net.n_layers
            assert all(np.shares_memory(v, flat) for v in views)
            assert np.concatenate([v.reshape(-1) for v in views]).tobytes() == flat.tobytes()
        net.theta[:] = np.arange(net.theta.size)  # in order: each view reads its own slice
        assert np.array_equal(np.concatenate([p.reshape(-1) for p in net.params]), net.theta)
        net.theta[:] = rng.standard_normal(net.theta.size)

        twin = net.clone()
        assert twin.theta.tobytes() == net.theta.tobytes()
        assert not np.shares_memory(twin.theta, net.theta)
        assert not any(np.shares_memory(p, net.theta) for p in twin.params)
        assert all(np.shares_memory(p, twin.theta) for p in twin.params)

        # a member that keeps the contracts a checkpoint checks: stage 1 with
        # zero treatment edges, stage 2 its copy with only the encoder kept
        cfg = est.CdnnConfig(hidden_widths=hidden, concat_inputs=concat, ensemble_size=1)
        net.theta[net.treatment_edges()] = 0.0
        encoder = est._stage_mask(net, "freezing", cfg).frozen
        twin.theta[:] = np.where(encoder, net.theta, rng.standard_normal(net.theta.size))
        stage2 = est.Stage2Model(twin, nn.TrainingLog())
        stage1 = est.Stage1Model(net, nn.TrainingLog())
        model = est.CdnnEstimator([(stage1, stage2)], "freezing", cfg)
        with tempfile.TemporaryDirectory() as directory:
            loaded = est.load_checkpoint(est.save_checkpoint(model, f"{directory}/model.npz"))
        (s1, s2), = loaded.members
        assert s1.network.theta.tobytes() == net.theta.tobytes()
        assert s2.network.theta.tobytes() == twin.theta.tobytes()
        assert loaded.variant == "freezing"

    @pytest.mark.parametrize(
        "copy_of", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    @pytest.mark.parametrize("concat", [False, True])
    def test_copies_keep_the_views(self, copy_of, concat):
        rng = np.random.default_rng(5)
        net = nn.Network.build(3, (5, 4), concat_inputs=concat, rng=rng, treatment_scale=0.1)
        mask = nn.FreezeMask(net, rng.random(net.theta.size) < 0.5)
        net2, mask2 = copy_of((net, mask))
        assert net2.theta.tobytes() == net.theta.tobytes()
        assert mask2.frozen.tobytes() == mask.frozen.tobytes()
        for flat, views, original in ((net2.theta, net2.params, net.theta),
                                      (mask2.frozen, net2.views(mask2.frozen), mask.frozen)):
            assert not np.shares_memory(flat, original)
            assert all(np.shares_memory(v, flat) for v in views)
            assert [v.shape for v in views] == [p.shape for p in net.params]
        net2.params[2][0, 0] += 1.0  # an edit through a view reaches theta
        assert net2.theta[net2.params[0].size + net2.params[1].size] == net2.params[2][0, 0]
        bias = net2.views(mask2.frozen)[1]
        bias[:] = ~bias
        assert mask2.frozen.tobytes() != mask.frozen.tobytes()

    @pytest.mark.parametrize(
        "wiring",
        [(1, (), "identity", False), (3, (5, 4), "swish", False), (3, (5, 4), "swish", True)],
        ids=["no-hidden", "two-hidden", "two-hidden-concat"],
    )
    def test_constructed_from_its_wiring_and_one_flat_theta(self, wiring):
        zero = nn.Network(*wiring)
        size = sum((s.input_width + 1) * s.output_width for s in zero.layers)
        assert zero.theta.shape == (size,) and zero.theta.dtype == np.float64
        assert not zero.theta.any() and zero.version == 0
        assert size == nn.Network.build(wiring[0], wiring[1], concat_inputs=wiring[3]).theta.size

        theta = np.random.default_rng(7).standard_normal(size)
        for value in (theta, theta.astype(np.float32), theta.tolist()):
            net = nn.Network(*wiring, value)
            assert net.theta.tobytes() == np.asarray(value, dtype=float).tobytes()
            assert net.theta.dtype == np.float64 and net.version == 0
            assert not np.shares_memory(net.theta, value)
            assert all(np.shares_memory(p, net.theta) for p in net.params)
            assert [p.shape for p in net.params] == [p.shape for p in zero.params]

        for wrong in (theta[:-1], np.append(theta, 0.0), theta[None, :], 0.5):
            with pytest.raises(ShapeError, match=re.escape(f"!= ({size},)")):
                nn.Network(*wiring, wrong)

    def test_step_leaves_the_gradient_unchanged(self):
        net = nn.Network.build(3, (6, 5), rng=4, treatment_scale=0.1)
        mask = est._stage_mask(net, "freezing", est.CdnnConfig())  # the encoder
        opt = nn.OptimizerState.create(net, learning_rate=0.05)
        rng = np.random.default_rng(2)
        for _ in range(3):
            preds, cache = net.forward_batch(rng.standard_normal((16, 3)), np.arange(16) % 2)
            _, dpred = nn.mse_loss(preds, rng.standard_normal(16))
            grad = nn.backward(net, cache, dpred)
            before = grad.copy()
            nn.step(net, grad, mask, opt)
            assert grad.tobytes() == before.tobytes()

    def test_backward_returns_a_fresh_vector_per_call(self):
        net = nn.Network.build(2, (4, 4), rng=6, treatment_scale=0.1)
        rng = np.random.default_rng(3)
        _, cache = net.forward_batch(rng.standard_normal((8, 2)), np.arange(8) % 2)
        first = nn.backward(net, cache, rng.standard_normal(8))
        kept = first.copy()
        second = nn.backward(net, cache, rng.standard_normal(8))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, net.theta)
        assert first.tobytes() == kept.tobytes()
        assert second.shape == net.theta.shape


class TestFitNetwork:
    def _toy_problem(self, seed=0, n=256):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        T = rng.integers(0, 2, n).astype(float)
        Y = 1.5 * X[:, 0] - 0.5 * X[:, 1] + T
        return X, T, Y

    def test_deterministic_given_seed(self):
        X, T, Y = self._toy_problem()
        results = []
        for _ in range(2):
            net = nn.Network.build(2, (8,), rng=3, treatment_scale=0.01)
            nn.fit_network(
                net, nn.FreezeMask.none(net), X, T, Y,
                rng=np.random.default_rng(7), epochs=20,
            )
            results.append(net.theta.copy())
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_early_stopping_restores_best(self):
        X, T, Y = self._toy_problem()
        Xv, Tv, Yv = self._toy_problem(seed=1, n=128)
        net = nn.Network.build(2, (8,), rng=3, treatment_scale=0.01)
        log = nn.fit_network(
            net, nn.FreezeMask.none(net), X, T, Y,
            rng=np.random.default_rng(7), epochs=200, patience=10,
            validation=(Xv, Tv, Yv),
        )
        assert log.best_epoch >= 0
        preds, _ = net.forward_batch(Xv, Tv)
        restored_mse, _ = nn.mse_loss(preds, Yv)
        assert restored_mse == pytest.approx(min(log.val_mse), rel=1e-12)

    def test_divergence_raises_with_epoch(self):
        X, T, Y = self._toy_problem()
        net = nn.Network.build(2, (8,), rng=3, treatment_scale=0.01)
        with pytest.raises(TrainingDivergenceError) as info:
            # finite inputs whose forward overflows: the loss is inf
            nn.fit_network(
                net, nn.FreezeMask.none(net), X * 1e200, T, Y,
                rng=np.random.default_rng(7), epochs=50,
            )
        assert info.value.epoch is not None


def reference_fit_network(
    net,
    mask,
    X,
    T,
    Y,
    *,
    rng,
    learning_rate=1e-3,
    epochs=300,
    batch_size=64,
    patience=25,
    validation=None,
):
    """The training loop that nn.fit_network replaced, kept as its oracle: it
    checks, concatenates and allocates through the public per-minibatch
    functions on every minibatch and every validation pass."""
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float).reshape(-1)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    n = X.shape[0]
    if n == 0:
        raise ShapeError("empty training set")
    opt = nn.OptimizerState.create(net, learning_rate)
    log = nn.TrainingLog()

    best = np.inf
    best_theta = None
    wait = patience
    with np.errstate(over="ignore"):  # as fit_network: divergence raises below
        for epoch in range(epochs):
            order = rng.permutation(n)
            Xe, Te, Ye = X[order], T[order], Y[order]
            epoch_losses = []
            for start in range(0, n, batch_size):
                batch = slice(start, start + batch_size)
                preds, cache = net.forward_batch(Xe[batch], Te[batch])
                loss, dpred = nn.mse_loss(preds, Ye[batch])
                if not np.isfinite(loss):
                    raise TrainingDivergenceError(
                        f"non-finite training loss at epoch {epoch}", epoch=epoch
                    )
                grad = nn.backward(net, cache, dpred)
                try:
                    nn.step(net, grad, mask, opt)
                except TrainingDivergenceError as err:
                    err.epoch = epoch
                    raise
                epoch_losses.append(loss)
            log.train_mse.append(float(np.mean(epoch_losses)))

            if validation is not None:
                Xv, Tv, Yv = validation
                vpred, _ = net.forward_batch(Xv, Tv, keep_cache=False)
                vmse, _ = nn.mse_loss(vpred, Yv)
                log.val_mse.append(vmse)
                if vmse < best:
                    best = vmse
                    best_theta = net.theta.copy()
                    log.best_epoch = epoch
                    wait = patience
                else:
                    wait -= 1
                    if wait <= 0:
                        log.stopped_early = True
                        break
    if best_theta is not None:
        net.set_params(best_theta)
    return log


def _fit_mask(net, kind):
    """The masks the stage fits train under."""
    if kind == "none":
        return nn.FreezeMask.none(net)
    # stage 1, and freezing stage 2 at freeze_depth 1 and 2
    stage, depth = {"edges": ("stage1", 1), "encoder": ("freezing", 1),
                    "depth2": ("freezing", 2)}[kind]
    return est._stage_mask(net, stage, est.CdnnConfig(freeze_depth=depth))


def _fit_problem(rng, n, d):
    X = rng.standard_normal((n, d))
    T = rng.integers(0, 2, n).astype(float)
    Y = np.sin(X[:, 0]) + X[:, -1] * T + 0.3 * rng.standard_normal(n)
    return X, T, Y


def _assert_fits_match(d, hidden, n, n_val, mask_kind, seed, *, activation="swish",
                       concat=False, **kwargs):
    """fit_network and reference_fit_network from one start: bitwise equal
    parameters and logs, or the same divergence error."""
    rng = np.random.default_rng(seed)
    net = nn.Network.build(
        d, hidden, activation=activation, concat_inputs=concat, rng=rng, treatment_scale=0.1
    )
    ref_net = net.clone()
    X, T, Y = _fit_problem(rng, n, d)
    validation = _fit_problem(rng, n_val, d) if n_val else None
    outcomes = []
    for fit, model in ((nn.fit_network, net), (reference_fit_network, ref_net)):
        try:
            outcome = fit(
                model, _fit_mask(model, mask_kind), X, T, Y,
                rng=np.random.default_rng(seed + 1), validation=validation, **kwargs,
            )
        except TrainingDivergenceError as err:
            outcome = (type(err), str(err), err.epoch, err.step)
        outcomes.append(outcome)
    log, ref_log = outcomes
    assert net.theta.tobytes() == ref_net.theta.tobytes()
    if isinstance(log, nn.TrainingLog):
        assert np.array(log.train_mse).tobytes() == np.array(ref_log.train_mse).tobytes()
        assert np.array(log.val_mse).tobytes() == np.array(ref_log.val_mse).tobytes()
        assert (log.best_epoch, log.stopped_early) == (ref_log.best_epoch, ref_log.stopped_early)
    else:
        assert log == ref_log
    return log


class TestFitMatchesReference:
    """nn.fit_network trains bit for bit as the loop through the public
    per-minibatch functions did."""

    @pytest.mark.parametrize("mask_kind", ["none", "edges", "encoder", "depth2"])
    def test_masks(self, mask_kind):
        log = _assert_fits_match(
            3, (8, 8, 8), 203, 64, mask_kind, 11, learning_rate=1e-2, epochs=12, batch_size=32,
        )
        assert len(log.train_mse) == 12

    @pytest.mark.parametrize(
        "activation, concat", [("swish", True), ("identity", False), ("identity", True)]
    )
    def test_wiring_and_activation(self, activation, concat):
        _assert_fits_match(
            2, (6, 5), 150, 40, "edges", 3, activation=activation, concat=concat,
            epochs=10, batch_size=16,
        )

    def test_default_widths_with_a_large_validation_set(self):
        # 600 validation rows: each activation matrix holds 300 KB
        _assert_fits_match(5, (64, 64, 64), 300, 600, "encoder", 5, epochs=4)

    def test_validation_set_of_several_row_blocks(self):
        # block_rows is 2048 for width 64: two full blocks and a shorter one
        _assert_fits_match(2, (64,), 100, 2 * 2048 + 77, "none", 6, epochs=3)

    def test_without_validation(self):
        log = _assert_fits_match(2, (7,), 90, 0, "edges", 8, epochs=6, batch_size=20)
        assert log.val_mse == [] and log.best_epoch == -1

    def test_early_stop(self):
        log = _assert_fits_match(
            2, (8,), 120, 60, "none", 9, learning_rate=0.5, epochs=200, patience=3,
            batch_size=16,
        )
        assert log.stopped_early and len(log.train_mse) < 200

    @pytest.mark.parametrize("n, batch_size", [(101, 10), (37, 64), (5, 1)])
    def test_batch_sizes(self, n, batch_size):
        _assert_fits_match(3, (5,), n, 20, "edges", n, epochs=5, batch_size=batch_size)

    def test_divergence_raises_the_same_error(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((256, 2))
        T = rng.integers(0, 2, 256).astype(float)
        Y = 1.5 * X[:, 0] - 0.5 * X[:, 1] + T
        errors = []
        for fit in (nn.fit_network, reference_fit_network):
            net = nn.Network.build(2, (8,), rng=3, treatment_scale=0.01)
            with pytest.raises(TrainingDivergenceError) as info:
                # finite inputs whose forward overflows: the loss is inf
                fit(
                    net, nn.FreezeMask.none(net), X * 1e200, T, Y, rng=np.random.default_rng(7),
                    epochs=50,
                )
            errors.append((type(info.value), str(info.value), info.value.epoch, info.value.step))
        assert errors[0] == errors[1]
        assert errors[0][2] is not None

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 4),
        hidden=st.lists(st.integers(1, 6), max_size=3).map(tuple),
        activation=st.sampled_from(nn.ACTIVATIONS),
        concat=st.booleans(),
        mask_kind=st.sampled_from(["none", "edges", "encoder", "depth2"]),
        n=st.integers(1, 40),
        n_val=st.integers(0, 30),
        batch_size=st.integers(1, 48),
        patience=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_bitwise_equal(
        self, d, hidden, activation, concat, mask_kind, n, n_val, batch_size, patience, seed,
    ):
        if mask_kind == "depth2" and len(hidden) < 2:
            mask_kind = "encoder"
        _assert_fits_match(
            d, hidden, n, n_val, mask_kind, seed, activation=activation, concat=concat,
            learning_rate=0.05, epochs=6, batch_size=batch_size,
            patience=patience,
        )


class TestFitRejectsBadInput:
    """Each bad input raises ShapeError naming the array before any training."""

    def _fit(self, X, T, Y, **kwargs):
        net = nn.Network.build(2, (4,), rng=1, treatment_scale=0.1)
        before = net.theta.copy()
        with pytest.raises(ShapeError) as info:
            nn.fit_network(
                net, nn.FreezeMask.none(net), X, T, Y, rng=np.random.default_rng(0),
                **{"epochs": 3, **kwargs},
            )
        assert net.theta.tobytes() == before.tobytes()
        return str(info.value)

    def _data(self, n=47):
        return _fit_problem(np.random.default_rng(n), n, 2)

    @pytest.mark.parametrize("name", ["T", "Y"])
    def test_longer_target_or_treatment(self, name):
        X, T, Y = self._data()
        arrays = {"T": T, "Y": Y}
        arrays[name] = np.append(arrays[name], 1.0)
        message = self._fit(X, arrays["T"], arrays["Y"])
        assert message.startswith(f"{name} holds 48 values for the 47 rows of X")

    def test_shorter_target(self):
        X, T, Y = self._data()
        assert self._fit(X, T, Y[:40]).startswith("Y holds 40 values")

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda v: (v[0][:, :1], v[1], v[2]), r"validation X must be shaped \(n, 2\)"),
            (lambda v: (v[0], v[1][:-1], v[2]), "validation T holds 9 values"),
            (lambda v: (v[0], v[1], v[2][:-2]), "validation Y holds 8 values"),
            (lambda v: (v[0][:0], v[1][:0], v[2][:0]), "validation X has no rows"),
            (lambda v: v[:2], r"expected \(validation X, validation T, validation Y\)"),
        ],
        ids=["width", "short-T", "short-Y", "empty", "pair"],
    )
    def test_bad_validation_set(self, edit, expected):
        validation = edit(self._data(10))
        assert re.match(expected, self._fit(*self._data(), validation=validation))

    @pytest.mark.parametrize("name", ["X", "T", "Y", "validation X", "validation Y"])
    def test_non_finite_value(self, name):
        (X, T, Y), (Xv, Tv, Yv) = self._data(), self._data(10)
        arrays = {"X": X, "T": T, "Y": Y, "validation X": Xv, "validation Y": Yv}
        arrays[name].flat[3] = np.nan
        message = self._fit(X, T, Y, validation=(Xv, Tv, Yv))
        assert message == f"{name} holds a non-finite value"

    def test_empty_training_set(self):
        X, T, Y = self._data()
        assert self._fit(X[:0], T[:0], Y[:0]) == "X has no rows"

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one(self, batch_size):
        message = self._fit(*self._data(), batch_size=batch_size)
        assert message == f"batch_size must be an integer >= 1, got {batch_size}"

    @pytest.mark.parametrize(
        "setting, value, least",
        [("batch_size", 2.5, 1), ("batch_size", True, 1), ("epochs", 2.5, 0),
         ("epochs", -1, 0), ("epochs", "3", 0), ("patience", None, 0), ("patience", 1.5, 0)],
    )
    def test_count_that_is_no_integer_in_range(self, setting, value, least):
        message = self._fit(*self._data(), validation=self._data(10), **{setting: value})
        assert message == f"{setting} must be an integer >= {least}, got {value!r}"

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -1e-3, True, "0.1", None])
    def test_learning_rate_that_is_no_finite_number_above_zero(self, lr):
        message = self._fit(*self._data(), learning_rate=lr)
        assert message == f"learning rate must be a finite number > 0, got {lr!r}"
        with pytest.raises(ShapeError, match="^learning rate must be a finite number > 0"):
            nn.OptimizerState.create(nn.Network.build(2, (4,), rng=1), lr)

    def test_counts_of_numpy_types_and_zero_epochs_or_patience_pass(self):
        X, T, Y = self._data()
        net = nn.Network.build(2, (4,), rng=1, treatment_scale=0.1)
        for epochs, patience in ((np.int64(2), np.uint8(0)), (0, 5)):
            log = nn.fit_network(
                net, nn.FreezeMask.none(net), X, T, Y, rng=np.random.default_rng(0),
                epochs=epochs, batch_size=np.int32(16), patience=patience,
                learning_rate=np.float32(0.01), validation=self._data(10),
            )
            assert (len(log.train_mse) > 0) == (epochs > 0)


def reference_step(net, grads, mask, opt):
    """The per-array fancy-indexing update that nn.step replaced, kept as its
    oracle: it gathers the free entries of every array, updates them and
    scatters them back, touching nothing frozen."""
    mask.check_shapes(net)
    if len(grads) != len(net.params):
        raise ShapeError("gradient list does not match parameters")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingDivergenceError(
                f"non-finite gradient at optimizer step {opt.step_count}",
                step=opt.step_count,
            )
    opt.step_count += 1
    t = opt.step_count
    lr = opt.learning_rate
    for k, (p, g, m) in enumerate(zip(net.params, grads, net.views(mask.frozen))):
        free = ~m
        if not free.any():
            continue
        gk = g[free]
        m1, m2 = opt.buffers[0][k], opt.buffers[1][k]
        m1[free] = opt.beta1 * m1[free] + (1.0 - opt.beta1) * gk
        m2[free] = opt.beta2 * m2[free] + (1.0 - opt.beta2) * gk * gk
        mhat = m1[free] / (1.0 - opt.beta1**t)
        vhat = m2[free] / (1.0 - opt.beta2**t)
        p[free] -= lr * mhat / (np.sqrt(vhat) + opt.epsilon)
    net.version += 1
    return net


def _reference_state(net, learning_rate):
    """Optimizer state whose buffers are lists of separate per-parameter
    arrays, for reference_step."""
    buffers = [[np.zeros(p.shape) for p in net.params] for _ in range(2)]
    return nn.OptimizerState(learning_rate, buffers=buffers)


def _random_mask(net, mode, rng):
    if mode == "free":
        return nn.FreezeMask.none(net)
    if mode == "frozen":
        return all_frozen(net)
    return nn.FreezeMask(net, rng.random(net.theta.size) < 0.5)


def _assert_bitwise(net, ref_net, opt, ref_opt):
    assert opt.step_count == ref_opt.step_count
    assert net.version == ref_net.version
    for p, q in zip(net.params, ref_net.params):
        assert p.tobytes() == q.tobytes()
    for flat, ref_slot in zip(opt.buffers, ref_opt.buffers):
        for a, b in zip(net.views(flat), ref_slot):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestStepMatchesReference:
    """nn.step updates every parameter and accumulator bit for bit as the
    per-array fancy-indexing reference does."""

    def _run(self, d, hidden, concat, lr, steps, masks, seed, edits=()):
        rng = np.random.default_rng(seed)
        net = nn.Network.build(
            d, hidden, concat_inputs=concat, rng=rng, treatment_scale=0.1
        )
        ref_net = net.clone()
        opt = nn.OptimizerState.create(net, learning_rate=lr)
        ref_opt = _reference_state(ref_net, lr)
        mask = _random_mask(net, masks, rng)
        for k in range(steps):
            if k in edits:
                mask = _random_mask(net, "mixed", rng)
            scale = 10.0 ** rng.uniform(-4, 3)
            grads = scale * rng.standard_normal(net.theta.size)
            nn.step(net, grads, mask, opt)
            reference_step(ref_net, net.views(grads.copy()), mask, ref_opt)
            _assert_bitwise(net, ref_net, opt, ref_opt)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        hidden=st.lists(st.integers(1, 6), max_size=3).map(tuple),
        concat=st.booleans(),
        lr=st.sampled_from([1e-3, 3e-2, 0.5]),
        steps=st.integers(5, 9),
        masks=st.sampled_from(["free", "frozen", "mixed"]),
        edit=st.one_of(st.none(), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_bitwise_equal(
        self, d, hidden, concat, lr, steps, masks, edit, seed
    ):
        edits = () if edit is None else (edit,)
        self._run(d, hidden, concat, lr, steps, masks, seed, edits)

    @pytest.mark.parametrize("masks", ["free", "mixed"])
    def test_default_widths(self, masks):
        self._run(5, (64, 64, 64), False, 1e-3, 6, masks, 3)

    def test_mask_edited_between_steps_is_honoured(self):
        net = nn.Network.build(3, (6, 5), rng=4, treatment_scale=0.1)
        ref_net = net.clone()
        opt = nn.OptimizerState.create(net, learning_rate=0.05)
        ref_opt = _reference_state(ref_net, 0.05)
        mask = edges_mask(net)
        rng = np.random.default_rng(0)

        def both_step():
            grads = rng.standard_normal(net.theta.size)
            nn.step(net, grads, mask, opt)
            reference_step(ref_net, net.views(grads), mask, ref_opt)
            _assert_bitwise(net, ref_net, opt, ref_opt)

        for _ in range(3):
            both_step()
        # freeze the trained encoder, release the treatment row
        row = net.treatment_input_row(0)
        weight, bias = net.views(mask.frozen)[:2]
        weight[:] = bias[:] = True
        weight[row, :] = False
        encoder = net.weight(0)[:row].copy()
        encoder_moments = [net.views(buf)[0][:row].copy() for buf in opt.buffers]
        treatment_row = net.weight(0)[row].copy()
        both_step()
        assert np.array_equal(net.weight(0)[:row], encoder)
        for buf, before in zip(opt.buffers, encoder_moments):
            assert np.array_equal(net.views(buf)[0][:row], before)
            assert np.any(before != 0.0)  # trained moments, left exactly as they were
        assert np.all(net.weight(0)[row] != treatment_row)
        for _ in range(2):
            both_step()
