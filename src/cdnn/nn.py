"""Dense feed-forward regression networks with exact backprop and freeze masks.

Everything runs in double precision on numpy arrays. A network maps a
covariate vector plus a scalar treatment indicator to one real output.
Per-parameter boolean masks let callers pin any subset of weights: frozen
parameters still participate in the forward pass but are never updated, and
their optimizer accumulators stay at zero. All randomness comes from
explicitly passed generators, so identical seed + config + data gives
bitwise identical parameters on one platform.

The swish logistic is computed with numpy's vectorised `exp`, whose bits
depend on the CPU's instruction set (numpy picks a SIMD kernel at run time),
so "one platform" includes the CPU family. For pre-activations below about
-709, `exp(-z)` overflows to inf and the logistic saturates to exactly 0;
`forward_batch`, `swish` and `swish_prime` silence overflow warnings (and
only those) around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, StaleCacheError, TrainingDivergenceError

ACTIVATIONS = ("swish", "identity")
OPTIMIZERS = ("sgd_momentum", "adaptive_moment")


def _logistic(z):
    """1 / (1 + exp(-z)) as a fresh float array, computed in place.

    For z below about -709, exp(-z) overflows to inf and the result is
    exactly 0; callers hold np.errstate(over="ignore") around it.
    """
    s = np.negative(z, out=np.empty_like(z))
    np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def swish(z):
    """Swish activation z * logistic(z).

    Stable over the whole double range: the logistic factor saturates instead
    of overflowing, so swish(-700.0) is a clean denormal-scale value rather
    than a NaN. Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        out = z * _logistic(z)
    return float(out) if out.ndim == 0 else out


def swish_prime(z):
    """Derivative of swish: logistic(z) * (1 + z * (1 - logistic(z)))."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        s = _logistic(z)
    return s * (1.0 + z * (1.0 - s))


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one dense layer.

    input_width counts every incoming unit, including the re-injected
    covariate/treatment block when the network concatenates its raw input to
    deeper layers.
    """

    input_width: int
    output_width: int
    activation: str = "swish"

    def __post_init__(self):
        if self.input_width < 1 or self.output_width < 1:
            raise ShapeError("layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")


@dataclass
class ForwardCache:
    """Intermediate values saved by a forward pass for the matching backward."""

    version: int
    inputs: list
    preacts: list
    sigmoids: list

    @property
    def batch_size(self):
        return self.preacts[0].shape[0]


class Network:
    """Dense MLP over (covariates, treatment) with an identity output layer.

    Parameters are stored as a flat list [W0, b0, W1, b1, ...] with weight
    matrices shaped (input_width, output_width). The final layer must have
    identity activation and width 1 (scalar regression output).
    """

    def __init__(self, layers, params, covariate_width, concat_inputs=False):
        self.layers = list(layers)
        self.params = list(params)
        self.covariate_width = int(covariate_width)
        self.concat_inputs = bool(concat_inputs)
        self.version = 0
        self._validate()

    def _validate(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        if len(self.params) != 2 * len(self.layers):
            raise ShapeError("parameter list does not match layer count")
        d = self.covariate_width
        extra = d + 1
        prev = extra
        for i, spec in enumerate(self.layers):
            expected_in = prev if i == 0 else prev + (extra if self.concat_inputs else 0)
            if spec.input_width != expected_in:
                raise ShapeError(
                    f"layer {i} expects input width {expected_in}, spec says {spec.input_width}"
                )
            W, b = self.params[2 * i], self.params[2 * i + 1]
            if W.shape != (spec.input_width, spec.output_width):
                raise ShapeError(f"layer {i} weight shape {W.shape} != spec")
            if b.shape != (spec.output_width,):
                raise ShapeError(f"layer {i} bias shape {b.shape} != spec")
            prev = spec.output_width
        out = self.layers[-1]
        if out.output_width != 1 or out.activation != "identity":
            raise ShapeError("output layer must be width 1 with identity activation")

    @classmethod
    def build(
        cls,
        covariate_width,
        hidden_widths=(64, 64, 64),
        *,
        activation="swish",
        concat_inputs=False,
        treatment_scale=0.0,
        rng=None,
    ):
        """Create a network with Glorot-uniform weights and zero biases.

        Rows of each weight matrix fed by the treatment input are drawn
        uniform in +/- treatment_scale instead; a scale of 0.0 pins them to
        exactly 0.0 (the stage-1 suppression initialization).
        """
        rng = np.random.default_rng(rng)
        d = int(covariate_width)
        if d < 1:
            raise ShapeError("covariate width must be >= 1")
        extra = d + 1
        layers = []
        prev = extra
        for w in hidden_widths:
            layers.append(LayerSpec(prev, int(w), activation))
            prev = int(w) + (extra if concat_inputs else 0)
        layers.append(LayerSpec(prev, 1, "identity"))

        params = []
        for spec in layers:
            bound = np.sqrt(6.0 / (spec.input_width + spec.output_width))
            W = rng.uniform(-bound, bound, size=(spec.input_width, spec.output_width))
            b = np.zeros(spec.output_width)
            params.extend([W, b])
        net = cls(layers, params, d, concat_inputs)
        for i in range(len(layers)):
            row = net.treatment_input_row(i)
            if row is None:
                continue
            draws = rng.uniform(-1.0, 1.0, size=layers[i].output_width)
            W = net.params[2 * i]
            if treatment_scale == 0.0:
                W[row, :] = 0.0
            else:
                W[row, :] = treatment_scale * draws
        return net

    # -- structure helpers -------------------------------------------------

    @property
    def n_layers(self):
        return len(self.layers)

    def weight(self, i):
        return self.params[2 * i]

    def bias(self, i):
        return self.params[2 * i + 1]

    def treatment_input_row(self, layer_index):
        """Row index of the treatment input within layer's weight matrix.

        None for layers that do not see the raw input.
        """
        if layer_index == 0:
            return self.covariate_width
        if self.concat_inputs:
            return self.layers[layer_index].input_width - 1
        return None

    def treatment_weights(self):
        """List of (layer_index, 1-d view) of all treatment-edge weights."""
        out = []
        for i in range(self.n_layers):
            row = self.treatment_input_row(i)
            if row is not None:
                out.append((i, self.params[2 * i][row, :]))
        return out

    def n_params(self):
        return sum(p.size for p in self.params)

    def copy_params(self):
        return [p.copy() for p in self.params]

    def set_params(self, params):
        if len(params) != len(self.params):
            raise ShapeError("parameter list length mismatch")
        for dst, src in zip(self.params, params):
            if dst.shape != src.shape:
                raise ShapeError("parameter shape mismatch")
            np.copyto(dst, src)
        self.version += 1

    def clone(self):
        net = Network(self.layers, self.copy_params(), self.covariate_width, self.concat_inputs)
        return net

    # -- forward -----------------------------------------------------------

    def forward_batch(self, X, T, keep_cache=True):
        """Run the network on a batch.

        X: (n, covariate_width), T: (n,). Returns (predictions (n,), cache).
        With keep_cache=False the cache is None and each layer's values are
        dropped once the next layer has read them: prediction needs no
        backward, and on large batches the cache dominates memory.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.covariate_width:
            raise ShapeError(
                f"expected covariates shaped (n, {self.covariate_width}), got {X.shape}"
            )
        T = np.asarray(T, dtype=float).reshape(-1)
        if T.shape[0] != X.shape[0]:
            raise ShapeError("covariate and treatment batch sizes differ")
        if X.shape[0] == 0:
            raise ShapeError("empty batch")

        u = np.concatenate([X, T[:, None]], axis=1)
        a = u
        inputs, preacts, sigmoids = [], [], []
        # entered once per call, not per layer: entering it (~2 us) costs
        # more than a whole layer of a small network
        with np.errstate(over="ignore"):
            for i, spec in enumerate(self.layers):
                if i > 0 and self.concat_inputs:
                    a = np.concatenate([a, u], axis=1)
                z = a @ self.params[2 * i]
                z += self.params[2 * i + 1]
                s = _logistic(z) if spec.activation == "swish" else None
                if keep_cache:
                    inputs.append(a)
                    preacts.append(z)
                    sigmoids.append(s)
                a = z if s is None else z * s
        cache = ForwardCache(self.version, inputs, preacts, sigmoids) if keep_cache else None
        return a[:, 0], cache


def forward(net, x, t):
    """Score a single observation; returns (prediction, cache)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    preds, cache = net.forward_batch(x[None, :], np.asarray([t], dtype=float))
    return float(preds[0]), cache


def backward(net, cache, loss_gradient):
    """Exact reverse-mode gradients of loss_gradient . predictions.

    loss_gradient is dL/dprediction: a scalar for a single-sample cache or a
    length-n vector for a batch cache. Returns gradients in the same flat
    [W0, b0, W1, b1, ...] layout as net.params.
    """
    if cache.version != net.version:
        raise StaleCacheError("forward cache is stale: parameters changed since forward")
    n = cache.batch_size
    lg = np.asarray(loss_gradient, dtype=float).reshape(-1)
    if lg.shape[0] != n:
        raise ShapeError(f"loss gradient length {lg.shape[0]} != batch size {n}")

    grads = [None] * len(net.params)
    delta = lg[:, None]
    for i in reversed(range(net.n_layers)):
        spec = net.layers[i]
        z = cache.preacts[i]
        if spec.activation == "swish":
            # delta * (s * (1 + z*(1 - s))), evaluated in place in that order
            s = cache.sigmoids[i]
            dz = 1.0 - s
            dz *= z
            dz += 1.0
            dz *= s
            dz *= delta
        else:
            dz = delta
        a = cache.inputs[i]
        grads[2 * i] = a.T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        if i > 0:
            da = dz @ net.params[2 * i].T
            delta = da[:, : net.layers[i - 1].output_width]
    return grads


def mse_loss(predictions, targets):
    """Mean squared error and its gradient 2*(pred - target)/n."""
    predictions = np.asarray(predictions, dtype=float).reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if predictions.shape != targets.shape:
        raise ShapeError("prediction and target lengths differ")
    if predictions.size == 0:
        raise ShapeError("empty batch")
    diff = predictions - targets
    # bitwise np.mean for float64, without its Python-level overhead
    return float(np.add.reduce(diff * diff) / diff.size), 2.0 * diff / diff.size


@dataclass
class FreezeMask:
    """Per-parameter booleans, True = frozen (used in forward, never updated)."""

    arrays: list

    @classmethod
    def none(cls, net):
        return cls([np.zeros(p.shape, dtype=bool) for p in net.params])

    @classmethod
    def all(cls, net):
        return cls([np.ones(p.shape, dtype=bool) for p in net.params])

    def check_shapes(self, net):
        if len(self.arrays) != len(net.params):
            raise ShapeError("mask length does not match parameter list")
        for m, p in zip(self.arrays, net.params):
            if m.shape != p.shape:
                raise ShapeError("mask shape does not match parameter shape")

    def freeze_treatment_edges(self, net):
        for i in range(net.n_layers):
            row = net.treatment_input_row(i)
            if row is not None:
                self.arrays[2 * i][row, :] = True
        return self

    def freeze_input_encoder(self, net):
        """Freeze the first-layer covariate weight block and its bias.

        This pins the linear covariate encoding computed by the first hidden
        layer; the treatment row of the same matrix stays trainable.
        """
        self.arrays[0][: net.covariate_width, :] = True
        self.arrays[1][:] = True
        return self

    def freeze_layer(self, net, layer_index, keep_treatment_trainable=True):
        self.arrays[2 * layer_index][:] = True
        self.arrays[2 * layer_index + 1][:] = True
        if keep_treatment_trainable:
            row = net.treatment_input_row(layer_index)
            if row is not None:
                self.arrays[2 * layer_index][row, :] = False
        return self


@dataclass
class OptimizerState:
    """Update rule plus per-parameter accumulators.

    algorithm "sgd_momentum": velocity v <- momentum*v + g, p <- p - lr*v.
    algorithm "adaptive_moment": bias-corrected first/second moment rule with
    a first-step magnitude of ~lr regardless of the gradient scale.
    Each slot is one flat buffer over all parameters (`buffers`); `slots[s][k]`
    is the view of buffer s shaped like parameter k. Accumulator entries of
    frozen parameters are never touched.
    """

    algorithm: str
    learning_rate: float
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    slots: list = field(default_factory=list)
    buffers: list = field(default_factory=list)

    @classmethod
    def create(cls, net, algorithm="adaptive_moment", learning_rate=1e-3, **kwargs):
        if algorithm not in OPTIMIZERS:
            raise ShapeError(f"unknown optimizer {algorithm!r}")
        if learning_rate <= 0:
            raise ShapeError("learning rate must be positive")
        state = cls(algorithm, float(learning_rate), **kwargs)
        n_slots = 1 if algorithm == "sgd_momentum" else 2
        state.buffers = [np.zeros(net.n_params()) for _ in range(n_slots)]
        state.slots = [_param_views(buf, net.params) for buf in state.buffers]
        return state


def _param_views(flat, params):
    """Views of a flat vector shaped like each parameter, in parameter order."""
    views, start = [], 0
    for p in params:
        views.append(flat[start : start + p.size].reshape(p.shape))
        start += p.size
    return views


def step(net, grads, mask, opt):
    """Apply one optimizer update in place; frozen entries stay bitwise put.

    The update runs once over the concatenation of all parameters.
    Accumulators are written only where the mask is free, and the update of
    a frozen entry is set to exactly 0, so `p - 0.0` leaves it unchanged. The
    mask is read afresh on every call.
    """
    mask.check_shapes(net)
    if len(grads) != len(net.params) or any(
        g.shape != p.shape for g, p in zip(grads, net.params)
    ):
        raise ShapeError("gradient list does not match parameters")
    g = np.concatenate(grads, axis=None, dtype=float)
    if not np.isfinite(g).all():
        raise TrainingDivergenceError(
            f"non-finite gradient at optimizer step {opt.step_count}",
            step=opt.step_count,
        )
    frozen = np.concatenate(mask.arrays, axis=None)
    free = ~frozen
    opt.step_count += 1
    t = opt.step_count
    lr = opt.learning_rate
    if opt.algorithm == "sgd_momentum":
        (v,) = opt.buffers
        np.multiply(v, opt.momentum, out=v, where=free)
        np.add(v, g, out=v, where=free)
        update = np.multiply(v, lr, out=g)
    else:
        m1, m2 = opt.buffers
        b1, b2 = opt.beta1, opt.beta2
        tmp = np.multiply(g, 1.0 - b1)
        np.multiply(m1, b1, out=m1, where=free)
        np.add(m1, tmp, out=m1, where=free)
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        np.multiply(m2, b2, out=m2, where=free)
        np.add(m2, tmp, out=m2, where=free)
        # (lr * mhat) / (sqrt(vhat) + eps), with mhat in tmp and vhat in g
        update = np.divide(m1, 1.0 - b1**t, out=tmp)
        np.divide(m2, 1.0 - b2**t, out=g)
        np.sqrt(g, out=g)
        g += opt.epsilon
        update *= lr
        update /= g
    np.copyto(update, 0.0, where=frozen)
    for p, u in zip(net.params, _param_views(update, net.params)):
        p -= u
    net.version += 1
    return net


def gradient_check(net, batch, step_size=1e-5):
    """Worst relative error between backprop and central finite differences.

    batch is (X, T, targets); the checked scalar is the batch MSE. Every
    parameter is probed, frozen or not. The denominator floors at 1e-2 so
    near-zero gradients are compared on an absolute scale.
    """
    X, T, targets = batch
    preds, cache = net.forward_batch(X, T)
    _, dpred = mse_loss(preds, targets)
    grads = backward(net, cache, dpred)

    worst = 0.0
    for k, p in enumerate(net.params):
        flat = p.reshape(-1)
        gflat = grads[k].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step_size
            lp, _ = mse_loss(net.forward_batch(X, T, keep_cache=False)[0], targets)
            flat[j] = orig - step_size
            lm, _ = mse_loss(net.forward_batch(X, T, keep_cache=False)[0], targets)
            flat[j] = orig
            fd = (lp - lm) / (2.0 * step_size)
            err = abs(gflat[j] - fd) / max(abs(gflat[j]) + abs(fd), 1e-2)
            if err > worst:
                worst = err
    return worst


@dataclass
class TrainingLog:
    """Per-epoch batch-averaged train MSE and full validation MSE."""

    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


def fit_network(
    net,
    mask,
    X,
    T,
    Y,
    *,
    rng,
    optimizer="adaptive_moment",
    learning_rate=1e-3,
    epochs=300,
    batch_size=64,
    patience=25,
    momentum=0.9,
    validation=None,
):
    """Mini-batch training loop with optional early stopping.

    validation is (X_val, T_val, Y_val) or None. With validation present the
    loop stops after `patience` epochs without improvement and restores the
    best parameters seen. Returns a TrainingLog.
    """
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float).reshape(-1)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    n = X.shape[0]
    if n == 0:
        raise ShapeError("empty training set")
    opt = OptimizerState.create(net, optimizer, learning_rate, momentum=momentum)
    log = TrainingLog()

    best = np.inf
    best_params = None
    wait = patience
    for epoch in range(epochs):
        order = rng.permutation(n)
        Xe, Te, Ye = X[order], T[order], Y[order]
        epoch_losses = []
        for start in range(0, n, batch_size):
            batch = slice(start, start + batch_size)
            preds, cache = net.forward_batch(Xe[batch], Te[batch])
            loss, dpred = mse_loss(preds, Ye[batch])
            if not np.isfinite(loss):
                raise TrainingDivergenceError(
                    f"non-finite training loss at epoch {epoch}", epoch=epoch
                )
            grads = backward(net, cache, dpred)
            try:
                step(net, grads, mask, opt)
            except TrainingDivergenceError as err:
                err.epoch = epoch
                raise
            epoch_losses.append(loss)
        log.train_mse.append(float(np.mean(epoch_losses)))

        if validation is not None:
            Xv, Tv, Yv = validation
            vpred, _ = net.forward_batch(Xv, Tv, keep_cache=False)
            vmse, _ = mse_loss(vpred, Yv)
            log.val_mse.append(vmse)
            if vmse < best:
                best = vmse
                best_params = net.copy_params()
                log.best_epoch = epoch
                wait = patience
            else:
                wait -= 1
                if wait <= 0:
                    log.stopped_early = True
                    break
    if best_params is not None:
        net.set_params(best_params)
    return log
