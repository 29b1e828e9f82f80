"""Two-stage controlled training for individual treatment effects.

Stage 1 regresses the outcome on covariates alone: the treatment input edges
are pinned to exactly zero, so the network learns the marginal outcome map
g(x) and its hidden layers learn a covariate encoding. Stage 2 introduces the
treatment in one of two ways:

* explicit_residual: a freshly initialized network regresses the stage-1
  residual y - g(x) on (x, t);
* freezing: the stage-1 network is reused with its first-layer covariate
  encoding frozen (weights and bias), deeper weights warm-started, and small
  random trainable treatment edges; it regresses the observed outcome y.

Either way the per-unit effect is the stage-2 prediction difference between
t=1 and t=0, averaged over an ensemble of members trained on separate
train/validation splits.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import numbers
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from ._workers import _map
from .data import Dataset, _seed_sequence
from .errors import ConfigError, DegenerateTreatmentError, IdentityViolationError, ShapeError

VARIANTS = ("explicit_residual", "freezing")
# what each variant's stage 2 regresses
_TARGET_KINDS = dict(zip(VARIANTS, ("residual", "outcome")))
CHECKPOINT_FORMAT = 2


@dataclass(frozen=True)
class CdnnConfig:
    """Architecture and training settings shared by both stages."""

    hidden_widths: tuple = (64, 64, 64)
    activation: str = "swish"
    concat_inputs: bool = False
    optimizer: str = "adaptive_moment"
    learning_rate: float = 1e-3
    momentum: float = 0.9
    epochs: int = 300
    batch_size: int = 64
    patience: int = 25
    validation_fraction: float = 0.3
    ensemble_size: int = 3
    treatment_scale: float = 1e-2
    freeze_depth: int = 1
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.patience, self.ensemble_size) < 1:
            raise ConfigError("epochs, batch size, patience and ensemble size must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("learning rate must be finite and positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation fraction must lie in [0, 1)")
        if self.freeze_depth < 1:
            raise ConfigError("freeze depth must be >= 1")
        if not all(_is_count(w) for w in self.hidden_widths):
            raise ConfigError(f"hidden widths must be integers >= 1, got {self.hidden_widths!r}")
        if self.optimizer not in nn.OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.activation not in nn.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")


def _is_count(value):
    """An integer >= 1 (a bool is not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


@dataclass
class Stage1Model:
    """Outcome model trained without treatment information."""

    network: nn.Network
    training_log: nn.TrainingLog

    def predict(self, X):
        return nn._predict(self.network, nn._inputs(nn._covariates(self.network, X), 0.0))

    def treatment_edges_zero(self):
        return all(np.all(w == 0.0) for _, w in self.network.treatment_weights())


@dataclass
class Stage2Model:
    """Treatment-aware model; predicts residuals or outcomes per variant."""

    variant: str
    network: nn.Network
    mask: nn.FreezeMask
    target_kind: str
    training_log: nn.TrainingLog

    def predict(self, X, t):
        return nn._predict(self.network, nn._inputs(nn._covariates(self.network, X), t))

    def ite(self, X):
        return self.predict(X, 1) - self.predict(X, 0)


@dataclass
class CdnnEstimator:
    """Ensemble of (stage 1, stage 2) pairs from separate train/val splits."""

    members: list
    variant: str
    config: CdnnConfig


def _as_arrays(data):
    return data.x, data.t.astype(float), data.y


def _member_rng(config, member, stream):
    return np.random.default_rng(_seed_sequence(config.seed, member, stream))


def _carve_validation(data, config, rng):
    n = len(data)
    n_val = int(np.floor(config.validation_fraction * n))
    if n_val == 0:
        return data, None
    perm = rng.permutation(n)
    return data.subset(perm[n_val:]), data.subset(perm[:n_val])


def _require_both_arms(data, context):
    treated, control = data.arm_counts()
    if treated == 0 or control == 0:
        raise DegenerateTreatmentError(
            f"{context}: both treatment arms are required ({treated} treated, {control} control)"
        )


def _train(net, mask, data, validation, rng, config):
    """Minibatch-train `net` in place on (x, t) -> y; every stage fit goes here.

    Training early-stops on `validation` when one is given.
    """
    return nn.fit_network(
        net,
        mask,
        *_as_arrays(data),
        rng=rng,
        optimizer=config.optimizer,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        epochs=config.epochs,
        batch_size=config.batch_size,
        patience=config.patience,
        validation=None if validation is None else _as_arrays(validation),
    )


def fit_stage1(data, config, validation=None, seed_stream=0):
    """Train the covariate-only outcome model.

    Treatment edges are initialized to exactly zero and frozen, so predictions
    cannot depend on the treatment input. With validation=None a validation
    part is carved from `data` per config.validation_fraction.
    """
    if len(data) < 2:
        raise ShapeError("need at least 2 samples")
    rng = _member_rng(config, seed_stream, 1)
    if validation is None:
        data, validation = _carve_validation(data, config, rng)
    net = nn.Network.build(
        data.d,
        config.hidden_widths,
        activation=config.activation,
        concat_inputs=config.concat_inputs,
        treatment_scale=0.0,
        rng=rng,
    )
    mask = nn.FreezeMask.none(net).freeze_treatment_edges(net)
    model = Stage1Model(net, _train(net, mask, data, validation, rng, config))
    if not model.treatment_edges_zero():
        raise IdentityViolationError("stage-1 treatment edges moved away from exactly 0")
    return model


def compute_residuals(model, data):
    """The dataset (x, t) with its outcome replaced by the stage-1 residual y - g(x)."""
    residuals = data.y - model.predict(data.x)
    if not np.all(np.isfinite(residuals)):
        raise ShapeError("non-finite residuals")
    return Dataset(data.x, data.t, residuals)


def fit_stage2_explicit(residuals, config, validation=None, seed_stream=0):
    """Regress the stage-1 residual on (x, t) with a fresh network.

    All weights are re-initialized; treatment edges start at small random
    values and are trainable. `residuals` and validation, when given, are
    compute_residuals datasets.
    """
    _require_both_arms(residuals, "explicit-residual stage 2")
    rng = _member_rng(config, seed_stream, 2)
    if validation is None:
        residuals, validation = _carve_validation(residuals, config, rng)
    net = nn.Network.build(
        residuals.d,
        config.hidden_widths,
        activation=config.activation,
        concat_inputs=config.concat_inputs,
        treatment_scale=config.treatment_scale,
        rng=rng,
    )
    mask = _stage2_mask(net, "explicit_residual", config)
    log = _train(net, mask, residuals, validation, rng, config)
    return Stage2Model("explicit_residual", net, mask, "residual", log)


def fit_stage2_freezing(stage1, data, config, validation=None, seed_stream=0):
    """Reuse the stage-1 network with the covariate encoding frozen.

    The first-layer covariate weight block and bias are copied bitwise and
    frozen, deeper weights warm-start from stage 1 and stay trainable up to
    config.freeze_depth, and treatment edges are re-drawn small-random and
    trainable. The regression target is the observed outcome. An encoder
    that is not bitwise stage 1's after training raises IdentityViolationError.

    With concat_inputs enabled (off by default) the raw covariates reach
    deeper layers alongside the frozen encoding; those re-injection weights
    warm-start and stay trainable, so prefer the default wiring when the
    frozen encoding should be the only covariate path.
    """
    _require_both_arms(data, "freezing stage 2")
    if stage1.network.covariate_width != data.d:
        raise ConfigError(
            f"stage-1 network expects {stage1.network.covariate_width} covariates, "
            f"data has {data.d}"
        )
    rng = _member_rng(config, seed_stream, 2)
    if validation is None:
        data, validation = _carve_validation(data, config, rng)

    net = stage1.network.clone()
    for _, w in net.treatment_weights():
        w[:] = config.treatment_scale * rng.uniform(-1.0, 1.0, size=w.size)

    mask = _stage2_mask(net, "freezing", config)
    log = _train(net, mask, data, validation, rng, config)
    if _encoder_bytes(net) != _encoder_bytes(stage1.network):
        raise IdentityViolationError("frozen stage-2 encoder moved away from stage 1's")
    return Stage2Model("freezing", net, mask, "outcome", log)


def _stage2_mask(net, variant, config):
    """The stage-2 freeze mask of `variant`: nothing frozen for the explicit
    fit; the encoder and the layers below config.freeze_depth for freezing."""
    mask = nn.FreezeMask.none(net)
    if variant == "freezing":
        mask.freeze_input_encoder(net)
        for layer in range(1, min(config.freeze_depth, net.n_layers - 1)):
            mask.freeze_layer(net, layer)
    return mask


def _encoder_bytes(net):
    """The first-layer covariate block and bias, which freezing keeps bitwise."""
    return net.weight(0)[: net.covariate_width].tobytes() + net.bias(0).tobytes()


# Stage 1 never reads these fields, so fits that differ only in them share
# stage-1 members. Every other field, present or future, is part of the key.
_STAGE2_ONLY_FIELDS = ("treatment_scale", "freeze_depth", "ensemble_size")

# (key, {member index: Stage1Model}): copies of the stage-1 members the most
# recent fit trained, which the next fit with the same key takes instead of
# training them. Freezing and explicit fits of one dataset run back to back,
# so one key is enough. A member is handed out once, so the fit after the
# pair trains again and a repeated run does the same work as the first.
# Callers fit each variant with its own fit() call and share stage 1 without
# passing it along, so this is module state and not an argument.
_stage1_memo = (None, {})


def _stage1_key(data, config):
    """SHA-256 over the arrays training reads and the stage-1 settings."""
    h = hashlib.sha256()
    for a in (data.x, data.t, data.y):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    settings = {k: v for k, v in asdict(config).items() if k not in _STAGE2_ONLY_FIELDS}
    h.update(repr(sorted(settings.items())).encode())
    return h.hexdigest()


def fit(data, variant, config):
    """Train the full ensemble: k separate train/validation splits, two
    stages each.

    The stage-1 members the previous fit trained are taken over when the
    data (x, t, y) and every config field stage 1 reads are the same, so
    fitting both variants of one dataset trains stage 1 once; the results
    are bitwise those of a fresh fit. Every member's training part must hold
    both treatment arms, which is checked before any member trains. Members
    are _map's tasks, so they train in up to one process per CPU with
    bitwise the same results as in one, and the lowest-numbered failing
    member raises its own exception, prefixed "ensemble member m: ".
    """
    global _stage1_memo
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    data.check_finite()
    _require_both_arms(data, "fit")
    carves = [
        _carve_validation(data, config, _member_rng(config, member, 0))
        for member in range(config.ensemble_size)
    ]
    for member, (train, _) in enumerate(carves):
        _require_both_arms(train, f"ensemble member {member}: training part")
    key = _stage1_key(data, config)
    held_key, spare = _stage1_memo
    k = config.ensemble_size
    handed = [spare.get(m) if held_key == key else None for m in range(k)]
    trained = {}
    _stage1_memo = (key, trained)
    members = _map(
        lambda m: _fit_member(m, *carves[m], variant, config, handed[m]), k, "ensemble member"
    )
    for member, (stage1, _) in enumerate(members):
        if handed[member] is None:
            trained[member] = Stage1Model(
                stage1.network.clone(), copy.deepcopy(stage1.training_log)
            )
    return CdnnEstimator(members, variant, config)


def _fit_member(member, train, validation, variant, config, stage1=None):
    """Member `member`'s (stage 1, stage 2); `stage1` is one handed in to take over."""
    if stage1 is None:
        stage1 = fit_stage1(train, config, validation=validation, seed_stream=member)
    elif not stage1.treatment_edges_zero():
        raise IdentityViolationError("reused stage-1 treatment edges are not exactly 0")
    if variant == "explicit_residual":
        res_train = compute_residuals(stage1, train)
        res_val = None if validation is None else compute_residuals(stage1, validation)
        stage2 = fit_stage2_explicit(res_train, config, validation=res_val, seed_stream=member)
    else:
        stage2 = fit_stage2_freezing(
            stage1, train, config, validation=validation, seed_stream=member
        )
    return stage1, stage2


def predict_ite(estimator, x):
    """Per-unit effect: stage-2 scored at t=1 minus t=0, ensemble-averaged.

    Accepts one covariate vector (returns a float) or a matrix (returns an
    array), checked before any worker starts. Each forward block
    (nn.Network.block_rows) of the matrix is one of _map's tasks, so several
    blocks are scored in up to one process per CPU; a block holds the rows
    it holds in one process, so every bit is the same. A task shares the
    block's [x | 1] and [x | 0] across members and sums their
    Stage2Model.ite.
    """
    single = np.ndim(x) == 1
    stage2 = [s for _, s in estimator.members]
    net = stage2[0].network  # every member has the config's layers
    X = nn._covariates(net, x)
    rows = net.block_rows

    def mean_ite(b):
        treated, control = (nn._inputs(X[b * rows : (b + 1) * rows], t) for t in (1.0, 0.0))
        total = np.zeros(len(treated))
        for s in stage2:
            total += nn._predict(s.network, treated) - nn._predict(s.network, control)
        return total / len(stage2)

    out = np.concatenate(_map(mean_ite, -(-X.shape[0] // rows)))
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(estimator, path):
    """Serialize the ensemble as an .npz archive; round-trips bitwise.

    Format 2: a meta JSON (format, variant, config, covariate width) and one
    (members, P) theta matrix per stage; the rest follows from the config.
    `path` is a file name, written exactly as given, or an open binary file.
    A model that load_checkpoint would reject raises ConfigError, and nothing
    is written.
    """
    stage1, stage2 = zip(*estimator.members)
    width = stage1[0].network.covariate_width
    arrays = {"stage1": np.stack([s.network.theta for s in stage1]),
              "stage2": np.stack([s.network.theta for s in stage2])}
    _decode(estimator.variant, estimator.config, width, arrays, [s.mask.frozen for s in stage2])
    meta = {"format": CHECKPOINT_FORMAT, "variant": estimator.variant,
            "config": asdict(estimator.config), "covariate_width": width}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    # np.savez given a file name appends ".npz"; given an open file it writes there
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def _param_shapes(config, width):
    """Shapes of [W0, b0, W1, b1, ...] of the config's network on `width` covariates."""
    try:
        specs = nn._layer_specs(width, config.hidden_widths, config.activation, config.concat_inputs)
    except ShapeError as err:  # a format-1 W0 without a covariate row
        raise ConfigError(f"malformed checkpoint: {err}") from None
    return [shape for s in specs for shape in ((s.input_width, s.output_width), (s.output_width,))]


def _decode(variant, config, width, arrays, masks=None):
    """The estimator whose member m has the thetas arrays["stage1"][m] and
    arrays["stage2"][m]. ConfigError unless every member keeps the paper's
    contracts and, when `masks` are given, its derived stage-2 mask is masks[m].
    """
    shapes = _param_shapes(config, width)
    rows = (config.ensemble_size, sum(math.prod(s) for s in shapes))
    stage1, stage2 = (_required(arrays, k, "f", rows) for k in ("stage1", "stage2"))
    wiring = width, config.hidden_widths, config.activation, config.concat_inputs
    layout = nn.Network(*wiring, [np.zeros(s) for s in shapes])
    members = []
    for m in range(config.ensemble_size):
        net1, net2 = (nn.Network(*wiring, layout.views(a[m])) for a in (stage1, stage2))
        s1 = Stage1Model(net1, nn.TrainingLog())
        mask = _stage2_mask(net2, variant, config)
        for broken, why in (
            (not s1.treatment_edges_zero(), "stage-1 treatment edges are not exactly 0"),
            (variant == "freezing" and _encoder_bytes(net2) != _encoder_bytes(net1),
             "frozen stage-2 encoder differs from stage 1's"),
            (masks is not None and not np.array_equal(masks[m], mask.frozen),
             "stage-2 mask differs from the one its config gives"),
        ):
            if broken:
                raise ConfigError(f"malformed checkpoint: member {m}: {why}")
        s2 = Stage2Model(variant, net2, mask, _TARGET_KINDS[variant], nn.TrainingLog())
        members.append((s1, s2))
    return CdnnEstimator(members, variant, config)


def _required(mapping, key, kind=None, shape=None):
    """mapping[key] of a checkpoint's meta or arrays; ConfigError if absent or,
    for an array, of another dtype kind than `kind` or shape than `shape`."""
    if key not in mapping:
        raise ConfigError(f"malformed checkpoint: missing {key!r}")
    a = mapping[key]
    if kind is not None and (a.dtype.kind != kind or shape not in (None, a.shape)):
        expected = f"kind {kind!r} of shape {shape or 'any'}"
        raise ConfigError(f"malformed checkpoint: {key!r} is {a.dtype} {a.shape}, not {expected}")
    return a


def _load_config(cfg):
    names = {f.name for f in fields(CdnnConfig)}
    keys = set(cfg) if isinstance(cfg, dict) else set()
    if keys != names:
        raise ConfigError(
            "malformed checkpoint config: "
            f"unknown keys {sorted(keys - names)}, missing keys {sorted(names - keys)}"
        )
    try:
        return CdnnConfig(**{**cfg, "hidden_widths": tuple(cfg["hidden_widths"])})
    except (TypeError, ValueError) as err:
        raise ConfigError(f"malformed checkpoint config: {err}") from None


@contextlib.contextmanager
def _open_archive(path):
    """np.load(path) as an open .npz archive; ConfigError if it is not one."""
    try:
        blob = np.load(path)
    except (EOFError, ValueError, zipfile.BadZipFile):
        # a truncated archive, an empty file or one that is not numpy's at all
        raise ConfigError(f"malformed checkpoint: {path} is not an .npz archive") from None
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ConfigError(f"malformed checkpoint: {path} holds one .npy array, not an archive")
    with blob:
        try:
            yield blob
        except zipfile.BadZipFile as err:
            # a member that fails its CRC or does not inflate
            raise ConfigError(f"malformed checkpoint: {err}") from None


def load_checkpoint(path):
    """Load a save_checkpoint file, of format 2 or the earlier format 1; a
    malformed one, or one that breaks the paper's contracts, raises ConfigError."""
    with _open_archive(path) as blob:
        raw = bytes(_required(blob, "meta"))
        try:
            meta = json.loads(raw.decode("utf-8"))
        except ValueError as err:  # not UTF-8, or not JSON
            raise ConfigError(f"malformed checkpoint: unreadable meta: {err}") from None
        fmt = meta.get("format") if isinstance(meta, dict) else None
        if fmt not in (1, CHECKPOINT_FORMAT):
            raise ConfigError(f"unsupported checkpoint format {fmt!r}")
        config = _load_config(_required(meta, "config"))
        variant = _required(meta, "variant")
        if variant not in VARIANTS:
            raise ConfigError(f"malformed checkpoint: unknown variant {variant!r}")
        if fmt == CHECKPOINT_FORMAT:
            width = _required(meta, "covariate_width")
            if not _is_count(width):
                raise ConfigError(f"malformed checkpoint: covariate_width {width!r} is not "
                                  "an integer >= 1")
            return _decode(variant, config, width, blob)
        # format 1 stored each parameter and mask of member m as its own array,
        # m{m}.s1.p{k}, m{m}.s2.p{k} and m{m}.s2.mask{k}: in order, theta's bytes
        if _required(meta, "members") != config.ensemble_size:
            raise ConfigError("malformed checkpoint: member count differs from ensemble_size")
        p0 = _required(blob, "m0.s1.p0", "f")
        width = len(p0) - 1 if p0.ndim else 0  # W0 has a row per covariate and one for t
        shapes = _param_shapes(config, width)

        def rows(name, kind):
            return np.array([
                np.concatenate([_required(blob, f"m{m}.{name}{k}", kind, s)
                                for k, s in enumerate(shapes)], axis=None)
                for m in range(config.ensemble_size)
            ])

        arrays = {"stage1": rows("s1.p", "f"), "stage2": rows("s2.p", "f")}
        return _decode(variant, config, width, arrays, rows("s2.mask", "b"))
