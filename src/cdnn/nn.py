"""Dense feed-forward regression networks with exact backprop and freeze masks.

Everything runs in double precision on numpy arrays. A network maps a
covariate vector plus a scalar treatment indicator to one real output.

Each network keeps all its parameters in one flat float64 vector,
`net.theta`, laid out as [W0, b0, W1, b1, ...] with every weight matrix in C
order; `net.params[k]` are reshaped views into it and `net.views(flat)`
gives the same views of any vector of that length. Gradients, freeze masks,
optimizer accumulators and snapshots are flat vectors in this layout, so the
optimizer step, a snapshot or a restore is one array operation. The forward
pass also runs over an (S, P) stack of such vectors, S networks of one
architecture in one call; `gradient_check` puts all its +h probes in one
stack and all its -h probes in another, chunked to a fixed byte budget, and
matches probing one parameter at a time bit for bit. A freeze
mask is a flat bool vector, True = frozen: frozen parameters still take part
in the forward pass but are never updated, and their optimizer accumulators
stay as they were. All randomness comes from explicitly passed generators, so
identical seed + config + data gives bitwise identical parameters on one
platform.

A forward without a cache (prediction, stage-1 residuals, the validation
loss) runs through one blocked predictor, `_predict`: one `_forward` per
row block under the same byte budget, one activation matrix per block:
2,048 rows for a 64-wide network. On a large batch, allocating and faulting
in full-size activations cost more than the arithmetic, while a block's
activations stay in cache. A batch of at most one block is one forward.
OpenBLAS picks its matmul kernel path from the row count, so a row's
prediction can differ in the last bit between batch sizes, and a batch of
several blocks from one unblocked forward over it; the same code, input and
parameters give the same bits. Prediction checks covariates once.

Each step of training has one body: `_forward`, `_mse`, `_backward` and
`_update`. The public `Network.forward_batch`, `mse_loss`, `backward` and
`step` check their arguments and run these bodies. `fit_network`, the
training loop of every stage fit, checks its inputs once before epoch 0 and
then runs the bodies directly on each minibatch, with the input [x | t]
built once per fit, one gradient vector, and the frozen entries read once.
Its validation pass after each epoch is a forward without a cache into
activation buffers allocated once per fit. The update runs plain ufuncs
over the whole flat vector and then writes back the frozen entries, so a
mask costs a scatter of the frozen entries instead of masked ufuncs.

The swish logistic is computed with numpy's vectorised `exp`, whose bits
depend on the CPU's instruction set (numpy picks a SIMD kernel at run time),
so "one platform" includes the CPU family. For pre-activations below about
-709, `exp(-z)` overflows to inf and the logistic saturates to exactly 0;
`forward_batch`, `_predict`, `swish` and `gradient_check` silence overflow
warnings (only those) around it, and `fit_network` around its whole loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ShapeError, StaleCacheError, TrainingDivergenceError, _is_count
from .errors import _is_finite_number

ACTIVATIONS = ("swish", "identity")
# byte budget of one chunk: the stacked probe parameters and activations of a
# gradient_check forward, or one activation matrix of a prediction block;
# probing ran as fast with 8 MiB chunks but raised peak memory more
_BLOCK_BYTES = 1 << 20


def _logistic(z, out=None):
    """1 / (1 + exp(-z)), computed in place in `out` or a fresh float array.

    For z below about -709, exp(-z) overflows to inf and the result is
    exactly 0; callers hold np.errstate(over="ignore") around it.

    This is one of two logistics. numpy's vectorised exp runs about 20x faster
    per value than data._logistic's libm exp, and training depends on it; its
    last bit differs from libm's on a few percent of values, which the DGP
    surfaces cannot afford, because their bits fix every generated dataset.
    """
    s = np.negative(z, out=np.empty_like(z) if out is None else out)
    np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def swish(z):
    """Swish activation z * logistic(z).

    Stable over the whole double range: the logistic factor saturates instead
    of overflowing, so swish(-700.0) is a clean denormal-scale value rather
    than a NaN, and swish(-inf) is -0.0 like swish(-710.0). Accepts scalars
    or arrays.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        # -inf * 0.0 would be NaN; the largest finite negative gives -0.0
        out = np.maximum(z, -np.finfo(float).max) * _logistic(z)
    return float(out) if out.ndim == 0 else out


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


def _layer_specs(covariate_width, hidden_widths, activation, concat_inputs):
    """One `activation` layer per hidden width, then a width-1 identity output.
    With concat_inputs each layer after the first also reads the raw input."""
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
    return layers


class Network:
    """Dense MLP over (covariates, treatment) with an identity output layer.

    All parameters live in one flat float64 vector `theta`; `params` is the
    list [W0, b0, W1, b1, ...] of views into it, with weight matrices shaped
    (input_width, output_width). Edit parameters in place (through either);
    rebinding `theta` or a `params` entry detaches it from the network. The
    constructor copies a given flat `theta` as float64 (ShapeError unless it
    holds one value per parameter), or starts from zeros without one.
    """

    def __init__(self, covariate_width, hidden_widths, activation, concat_inputs, theta=None):
        self.hidden_widths = tuple(int(w) for w in hidden_widths)
        self.layers = _layer_specs(covariate_width, self.hidden_widths, activation, concat_inputs)
        self.covariate_width = int(covariate_width)
        self.activation = activation
        self.concat_inputs = bool(concat_inputs)
        self.version = 0
        self._layout, size = [], 0  # (start, stop, shape) of each parameter in theta
        for spec in self.layers:
            for shape in ((spec.input_width, spec.output_width), (spec.output_width,)):
                self._layout.append((size, size + math.prod(shape), shape))
                size += math.prod(shape)
        if theta is not None and np.shape(theta) != (size,):
            raise ShapeError(f"parameter vector shape {np.shape(theta)} != {(size,)}")
        self.theta = np.zeros(size) if theta is None else np.array(theta, dtype=float)
        self.params = self.views(self.theta)

    def views(self, flat):
        """Views of a vector laid out like theta, shaped [W0, b0, W1, b1, ...].

        For an (S, P) stack of such vectors each view gains the leading S axis.
        """
        lead = flat.shape[:-1]
        return [flat[..., start:stop].reshape(lead + shape) for start, stop, shape in self._layout]

    # pickle and copy.deepcopy would copy each view on its own, detaching
    # `params` from `theta`; they carry theta alone and rebuild the views
    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "params"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.params = self.views(self.theta)

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
        net = cls(covariate_width, hidden_widths, activation, concat_inputs)
        for spec, w in zip(net.layers, net.params[::2]):
            bound = np.sqrt(6.0 / (spec.input_width + spec.output_width))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        edges = net.treatment_edges()
        draws = rng.uniform(-1.0, 1.0, size=edges.size)
        # a 0.0 scale pins +0.0, not the -0.0 of 0.0 times a negative draw
        net.theta[edges] = 0.0 if treatment_scale == 0.0 else treatment_scale * draws
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

    def treatment_edges(self):
        """Flat theta indices of every treatment-edge weight, in theta order."""
        index = self.views(np.arange(self.theta.size))
        rows = ((i, self.treatment_input_row(i)) for i in range(self.n_layers))
        return np.concatenate([index[2 * i][row] for i, row in rows if row is not None])

    def set_params(self, theta):
        """Copy a flat vector shaped like theta into theta."""
        if np.shape(theta) != self.theta.shape:
            raise ShapeError(f"parameter vector shape {np.shape(theta)} != {self.theta.shape}")
        np.copyto(self.theta, theta)
        self.version += 1

    def clone(self):
        wiring = self.covariate_width, self.hidden_widths, self.activation, self.concat_inputs
        return Network(*wiring, self.theta)

    # -- forward -----------------------------------------------------------

    def forward_batch(self, X, T, keep_cache=True):
        """Run the network on a batch.

        X: (n, covariate_width) finite covariates, n >= 1 (one vector is one
        row), T: (n,). Returns (predictions (n,), cache). With keep_cache=False
        the cache, most of the memory of a large batch, is None and the batch
        runs through the blocked `_predict`.
        """
        X = _covariates(self, X)
        T = np.asarray(T, dtype=float).reshape(-1)
        if T.shape[0] != X.shape[0]:
            raise ShapeError("covariate and treatment batch sizes differ")
        if not keep_cache:
            return _predict(self, _inputs(X, T)), None
        with np.errstate(over="ignore"):
            return _forward(self, self.params, X, T, True)

    @property
    def block_rows(self):
        """Rows per no-cache forward block: a multiple of 16 such that the
        widest activation matrix takes about _BLOCK_BYTES."""
        widest = max(spec.input_width for spec in self.layers)
        return max(16, _BLOCK_BYTES // (8 * widest) // 16 * 16)


_FRESH = (None, None, None)  # no workspace: every activation is a fresh array


def _forward(net, params, X, T, keep_cache, work=None):
    """The one forward body of `net`, on checked arrays X (n, d) and T (n,).

    With T None, X is already the raw input [x | t], shaped (n, d + 1).
    params are net.views(theta), or net.views of an (S, P) stack of parameter
    vectors: then every activation gains a leading S axis, the stack shares
    the raw input and the predictions are (S, n). Row s of a stacked run is
    bitwise the run of stack[s] alone (each matmul slice is the same BLAS
    call on the same strides). Only an unstacked cache feeds `backward`.

    work, one value of `_workspace(net, n)`, holds the activation matrices of
    an unstacked n-row forward without a cache, which then writes into it and
    returns a view into it. Callers hold np.errstate(over="ignore") around
    the call (see `_logistic`); entering it (~2 us) costs more than a whole
    layer of a small network.
    """
    u = X if T is None else _inputs(X, T)
    a = u
    stacked = params[0].ndim == 3
    if stacked and net.concat_inputs:
        # a real copy per network, not a broadcast view: concatenating a view
        # can give a strided result whose matmul rounds differently
        u = np.tile(u, (len(params[0]), 1, 1))
    inputs, preacts, sigmoids = [], [], []
    for i, spec in enumerate(net.layers):
        cat, lin, sig = work[i] if work else _FRESH
        if i > 0 and net.concat_inputs:
            a = np.concatenate([a, u], axis=-1, out=cat)
        z = np.matmul(a, params[2 * i], out=lin)
        b = params[2 * i + 1]
        # a stacked bias (S, out) broadcasts over rows as (S, 1, out); the
        # unstacked add skips that view, which costs ~0.8 us per layer
        z += b[:, None, :] if stacked else b
        s = _logistic(z, sig) if spec.activation == "swish" else None
        if keep_cache:
            inputs.append(a)
            preacts.append(z)
            sigmoids.append(s)
        # with a workspace (so without a cache) the activation overwrites the logistic
        a = z if s is None else np.multiply(z, s, out=sig)
    cache = ForwardCache(net.version, inputs, preacts, sigmoids) if keep_cache else None
    return a[..., 0], cache


def _covariates(net, x):
    """x as a 2-d float array (one vector is one row), after the one check of
    every prediction entry point: ShapeError unless it is shaped
    (n, covariate_width), n >= 1, and finite, naming the first bad row."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.ndim != 2 or X.shape[1] != net.covariate_width:
        raise ShapeError(f"expected covariates shaped (n, {net.covariate_width}), got {X.shape}")
    if X.shape[0] == 0:
        raise ShapeError("empty batch")
    if not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ShapeError(f"covariates must be finite (no NaN or inf); row {row} is not")
    return X


def _inputs(X, t):
    """The raw input [X | t] of covariates X (n, d) and a treatment t, one
    value for all rows or one per row."""
    U = np.empty((X.shape[0], X.shape[1] + 1))
    U[:, :-1] = X
    U[:, -1] = t
    return U


def _predict(net, U, work=None):
    """The one blocked predictor: `net`'s predictions on checked raw input
    rows U = [x | t], one `_forward` without a cache per `block_rows` slice,
    under np.errstate(over="ignore"). Each block's activations are fresh
    arrays, or buffers of `work` = `_workspace(net, len(U))` when given;
    prediction passes none, as buffers held through a whole call raised the
    peak memory of `cdnn score` by 6-9 %."""
    rows, n = net.block_rows, U.shape[0]
    out = np.empty(n)
    with np.errstate(over="ignore"):
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            space = work[min(rows, n - start)] if work else None
            out[block] = _forward(net, net.params, U[block], None, False, space)[0]
    return out


def _workspace(net, n):
    """{block length: per layer (concatenated input, pre-activation, logistic
    and then activation) buffers} for `_predict` on n rows: the full blocks
    and a shorter last one; None where a layer has no such matrix."""
    rows, work = net.block_rows, {}
    for k in {min(rows, n - s) for s in range(0, n, rows)}:
        for i, spec in enumerate(net.layers):
            cat = np.empty((k, spec.input_width)) if i > 0 and net.concat_inputs else None
            lin = np.empty((k, spec.output_width))
            sig = np.empty_like(lin) if spec.activation == "swish" else None
            work.setdefault(k, []).append((cat, lin, sig))
    return work


def backward(net, cache, loss_gradient):
    """Exact reverse-mode gradients of loss_gradient . predictions.

    loss_gradient is dL/dprediction: a scalar for a single-sample cache or a
    length-n vector for a batch cache. Returns a fresh flat gradient vector
    laid out like net.theta; net.views(grad) splits it per parameter. This
    checks the cache and the gradient, then runs `_backward`, the body
    `fit_network` runs on each minibatch.
    """
    if cache.version != net.version:
        raise StaleCacheError("forward cache is stale: parameters changed since forward")
    n = cache.batch_size
    lg = np.asarray(loss_gradient, dtype=float).reshape(-1)
    if lg.shape[0] != n:
        raise ShapeError(f"loss gradient length {lg.shape[0]} != batch size {n}")
    grad = np.empty_like(net.theta)
    _backward(net, cache, lg, net.views(grad))
    return grad


def _backward(net, cache, lg, blocks):
    """The one backward body: writes the gradient of lg . predictions into
    `blocks`, the views net.views(grad) of a flat vector shaped like theta.
    lg is a checked length-n vector for an n-row cache."""
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
        np.matmul(a.T, dz, out=blocks[2 * i])
        np.add.reduce(dz, axis=0, out=blocks[2 * i + 1])
        if i > 0:
            da = dz @ net.params[2 * i].T
            delta = da[:, : net.layers[i - 1].output_width]


def mse_loss(predictions, targets):
    """Mean squared error and its gradient 2*(pred - target)/n."""
    predictions = np.asarray(predictions, dtype=float).reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if predictions.shape != targets.shape:
        raise ShapeError("prediction and target lengths differ")
    if predictions.size == 0:
        raise ShapeError("empty batch")
    return _mse(predictions, targets)


def _mse(predictions, targets):
    """mse_loss of checked equal-length, non-empty float vectors."""
    diff = predictions - targets
    # bitwise np.mean for float64, without its Python-level overhead
    return float(np.add.reduce(diff * diff) / diff.size), 2.0 * diff / diff.size


class FreezeMask:
    """One flat bool vector `frozen` over a network's theta, True = frozen
    (used in forward, never updated); net.views(mask.frozen) shapes it like
    net.params. Without `frozen` every parameter starts free; the stage fits
    take theirs from estimator._stage_mask.
    """

    def __init__(self, net, frozen=None):
        self.frozen = np.zeros(net.theta.size, dtype=bool) if frozen is None else frozen

    @classmethod
    def none(cls, net):
        return cls(net)

    def check_shapes(self, net):
        if self.frozen.shape != net.theta.shape:
            raise ShapeError("mask shape does not match parameter vector")


@dataclass
class OptimizerState:
    """State of the one update rule, the bias-corrected first/second moment
    rule (Kingma and Ba, "Adam", ICLR 2015), whose first step has a magnitude
    of ~lr regardless of the gradient scale. `buffers` holds the two flat
    moment accumulators, laid out like the network's theta; net.views(
    buffers[s]) shapes buffer s like net.params. `scratch` holds two flat
    work vectors, for the update. An update leaves the accumulator entries
    of frozen parameters bitwise as they were. The moment decays and epsilon
    are constants, not settings; `create` checks the learning rate.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8

    learning_rate: float
    step_count: int = 0
    buffers: list = field(default_factory=list)
    scratch: list = field(default_factory=list)

    @classmethod
    def create(cls, net, learning_rate=1e-3):
        if not (_is_finite_number(learning_rate) and learning_rate > 0):
            raise ShapeError(f"learning rate must be a finite number > 0, got {learning_rate!r}")
        zeros = [np.zeros(net.theta.size) for _ in range(2)]
        return cls(float(learning_rate), buffers=zeros, scratch=[np.empty_like(z) for z in zeros])


def step(net, grad, mask, opt):
    """Apply one optimizer update in place; frozen entries stay bitwise put.

    grad is a flat vector laid out like net.theta (what `backward` returns)
    and is only read. This checks the mask and the gradient, reads which
    entries the mask freezes (afresh on every call) and runs `_update`, the
    body `fit_network` runs on each minibatch.
    """
    mask.check_shapes(net)
    if not isinstance(grad, np.ndarray) or grad.shape != net.theta.shape:
        raise ShapeError("gradient must be a flat vector shaped like net.theta")
    _update(net, grad, opt, _hold(net, mask, opt))
    return net


def _hold(net, mask, opt):
    """(flat indices of the entries `mask` freezes, their values in theta and
    in each of opt.buffers), for `_update` to write back; no values when
    nothing is frozen."""
    frozen = np.flatnonzero(mask.frozen)
    return frozen, [flat[frozen] for flat in (net.theta, *opt.buffers)] if frozen.size else []


def _update(net, grad, opt, held):
    """The one update body, over the whole flat vector with plain ufuncs.

    Raises TrainingDivergenceError on a non-finite gradient, before touching
    anything. Every entry is updated, then the frozen entries of theta and
    of each accumulator get back their `held` values. The arithmetic is
    elementwise, so free entries come out as if updated alone, and frozen
    ones are bitwise as they were, signed zeros included.
    """
    if not np.isfinite(grad).all():
        raise TrainingDivergenceError(
            f"non-finite gradient at optimizer step {opt.step_count}",
            step=opt.step_count,
        )
    opt.step_count += 1
    t = opt.step_count
    m1, m2 = opt.buffers
    tmp, denom = opt.scratch
    b1, b2 = opt.beta1, opt.beta2
    np.multiply(grad, 1.0 - b1, out=tmp)
    m1 *= b1
    m1 += tmp
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    m2 *= b2
    m2 += tmp
    # (lr * mhat) / (sqrt(vhat) + eps), with mhat in tmp and vhat in denom
    update = np.divide(m1, 1.0 - b1**t, out=tmp)
    np.divide(m2, 1.0 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += opt.epsilon
    update *= opt.learning_rate
    update /= denom
    net.theta -= update
    frozen, values = held
    for flat, kept in zip((net.theta, *opt.buffers), values):
        flat[frozen] = kept
    net.version += 1


def gradient_check(net, batch, step_size=1e-5):
    """Worst relative error between backprop and central finite differences.

    batch is (X, T, targets); the checked scalar is the batch MSE. Every
    parameter is probed, frozen or not. The denominator floors at 1e-2 so
    near-zero gradients are compared on an absolute scale. A non-finite error
    anywhere makes the result NaN, so a check against a tolerance fails.

    Probe j moves theta[j] alone by +-step_size. The probes run as two stacked
    forwards, all +h rows and all -h rows, in chunks that keep the stacked
    parameters and activations under _BLOCK_BYTES. A probe's loss
    depends only on its own row, so the result is bitwise that of probing one
    parameter at a time.
    """
    X, T, targets = batch
    preds, cache = net.forward_batch(X, T)
    _, dpred = mse_loss(preds, targets)
    grad = backward(net, cache, dpred)

    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float).reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    theta, n = net.theta, X.shape[0]
    widest = max(s.input_width + 3 * s.output_width for s in net.layers)
    chunk = max(1, _BLOCK_BYTES // (8 * (theta.size + n * widest)))
    lp, lm = np.empty(theta.size), np.empty(theta.size)
    for start in range(0, theta.size, chunk):
        cols = np.arange(start, min(start + chunk, theta.size))
        # x + (-h) is x - h exactly, so both stacks match the one-probe loop
        for losses, h in ((lp, step_size), (lm, -step_size)):
            probes = np.tile(theta, (cols.size, 1))
            probes[np.arange(cols.size), cols] = theta[cols] + h
            with np.errstate(over="ignore"):
                preds = _forward(net, net.views(probes), X, T, keep_cache=False)[0]
            diff = preds - targets
            losses[cols] = np.add.reduce(diff * diff, axis=-1) / n
    fd = (lp - lm) / (2.0 * step_size)
    err = np.abs(grad - fd) / np.maximum(np.abs(grad) + np.abs(fd), 1e-2)
    return float(err.max())


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
    learning_rate=1e-3,
    epochs=300,
    batch_size=64,
    patience=25,
    validation=None,
):
    """Mini-batch training loop with optional early stopping.

    validation is (X_val, T_val, Y_val) or None. With validation present the
    loop stops after `patience` epochs without improvement and restores the
    best parameters seen. Returns a TrainingLog.

    Every input is checked once, before epoch 0: X is (n, covariate_width)
    with n >= 1, T and Y hold n values, the validation triple likewise, all
    finite; mask fits net; the learning rate is a finite number > 0, epochs
    and patience are integers >= 0 and batch_size one >= 1. A failed check
    raises ShapeError naming the array or setting, with net untouched. The
    loop then builds the input [X | T] once and permutes it once per epoch,
    and each minibatch runs the kernels behind the public per-minibatch
    functions directly: `_forward` (Network.forward_batch), `_mse` (mse_loss),
    `_backward` (backward) into one gradient vector, and `_update` (step),
    with the frozen entries read once per fit. The validation pass after each
    epoch runs `_predict`, the blocked predictor, into activation buffers
    allocated once per fit. Overflow warnings are silenced for the whole loop;
    a non-finite loss or gradient still raises TrainingDivergenceError.
    """
    U, Y = _fit_arrays(net, (X, T, Y), ("X", "T", "Y"))
    if validation is not None:
        Uv, Yv = _fit_arrays(net, validation, ("validation X", "validation T", "validation Y"))
        work, best_theta = _workspace(net, len(Yv)), np.empty_like(net.theta)
    mask.check_shapes(net)
    for name, value, least in (("epochs", epochs, 0), ("batch_size", batch_size, 1),
                               ("patience", patience, 0)):
        if not _is_count(value, least):
            raise ShapeError(f"{name} must be an integer >= {least}, got {value!r}")
    opt = OptimizerState.create(net, learning_rate)
    held = _hold(net, mask, opt)
    grad = np.empty_like(net.theta)
    blocks = net.views(grad)
    params = net.params
    log = TrainingLog()

    n = U.shape[0]
    best = np.inf
    wait = patience
    with np.errstate(over="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            Ue, Ye = U[order], Y[order]
            epoch_losses = []
            for start in range(0, n, batch_size):
                batch = slice(start, start + batch_size)
                preds, cache = _forward(net, params, Ue[batch], None, True)
                loss, dpred = _mse(preds, Ye[batch])
                if not math.isfinite(loss):
                    raise TrainingDivergenceError(
                        f"non-finite training loss at epoch {epoch}", epoch=epoch
                    )
                _backward(net, cache, dpred, blocks)
                try:
                    _update(net, grad, opt, held)
                except TrainingDivergenceError as err:
                    err.epoch = epoch
                    raise
                epoch_losses.append(loss)
            log.train_mse.append(float(np.mean(epoch_losses)))

            if validation is not None:
                vmse, _ = _mse(_predict(net, Uv, work), Yv)
                log.val_mse.append(vmse)
                if vmse < best:
                    best = vmse
                    np.copyto(best_theta, net.theta)
                    log.best_epoch = epoch
                    wait = patience
                else:
                    wait -= 1
                    if wait <= 0:
                        log.stopped_early = True
                        break
    if log.best_epoch >= 0:
        net.set_params(best_theta)
    return log


def _fit_arrays(net, arrays, names):
    """(U, Y) of a training or validation triple (X, T, Y): the input matrix
    [X | T] and the targets, after the checks `fit_network` documents."""
    x, t, y = names
    if len(arrays) != 3:
        raise ShapeError(f"expected ({x}, {t}, {y}), got {len(arrays)} arrays")
    X, T, Y = (np.asarray(a, dtype=float) for a in arrays)
    if X.ndim != 2 or X.shape[1] != net.covariate_width:
        raise ShapeError(f"{x} must be shaped (n, {net.covariate_width}), got {X.shape}")
    n = X.shape[0]
    if n == 0:
        raise ShapeError(f"{x} has no rows")
    T, Y = T.reshape(-1), Y.reshape(-1)
    for name, a in ((t, T), (y, Y)):
        if a.shape[0] != n:
            raise ShapeError(f"{name} holds {a.shape[0]} values for the {n} rows of {x}")
    for name, a in ((x, X), (t, T), (y, Y)):
        if not np.isfinite(a).all():
            raise ShapeError(f"{name} holds a non-finite value")
    return _inputs(X, T), Y
