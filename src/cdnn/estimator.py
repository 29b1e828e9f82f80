"""Two-stage controlled training for individual treatment effects.

Stage 1 regresses the outcome on covariates alone: the treatment input edges
are pinned to exactly zero, so the network learns the marginal outcome map
g(x) and its hidden layers learn a covariate encoding. Stage 2 introduces the
treatment in one of two ways:

* explicit_residual: a freshly initialized network regresses the stage-1
  residual y - g(x) on (x, t);
* freezing: the stage-1 network is reused with the weights and biases of
  every layer below freeze_depth frozen (by default the first layer, the
  covariate encoding; never the output layer), deeper layers warm-started,
  and every treatment edge re-drawn small-random and trainable; it regresses
  the observed outcome y.

Either way the per-unit effect is the stage-2 prediction difference between
t=1 and t=0, averaged over an ensemble of members trained on separate
train/validation splits.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import zipfile
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from ._workers import _map
from .data import Dataset, _replaced_whole, _require_both_arms, _seed_sequence
from .errors import CdnnError, ConfigError, IdentityViolationError
from .errors import ShapeError, _check_size, _is_count, _is_finite_number

VARIANTS = ("explicit_residual", "freezing")
CHECKPOINT_FORMAT = 2


@dataclass(frozen=True)
class CdnnConfig:
    """Architecture and training settings shared by both stages."""

    hidden_widths: tuple = (64, 64, 64)
    activation: str = "swish"
    concat_inputs: bool = False
    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int = 64
    patience: int = 25
    validation_fraction: float = 0.3
    ensemble_size: int = 3
    treatment_scale: float = 1e-2
    freeze_depth: int = 1
    seed: int = 0

    def __post_init__(self):
        """Checks every type and range, so a bad setting fails before any work."""
        for name in ("epochs", "batch_size", "patience", "ensemble_size", "freeze_depth"):
            if not _is_count(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        for name in ("learning_rate", "treatment_scale", "validation_fraction"):
            if not _is_finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning rate must be finite and positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation fraction must lie in [0, 1)")
        if not isinstance(self.concat_inputs, bool):
            raise ConfigError(f"concat_inputs must be true or false, got {self.concat_inputs!r}")
        if not isinstance(self.hidden_widths, Sequence):
            raise ConfigError(
                f"bad config value: hidden_widths must be a sequence, got {self.hidden_widths!r}"
            )
        if not all(map(_is_count, self.hidden_widths)):
            raise ConfigError(f"hidden widths must be integers >= 1, got {self.hidden_widths!r}")
        for width in self.hidden_widths:
            _check_size("hidden_widths", width)
        _check_size("ensemble_size", self.ensemble_size)
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if self.activation not in nn.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not _is_count(self.seed, least=0):
            raise ConfigError("seed must be a nonnegative integer")


@dataclass
class Stage1Model:
    """Outcome model trained without treatment information."""

    network: nn.Network
    training_log: nn.TrainingLog

    def predict(self, X):
        return nn._predict(self.network, nn._inputs(nn._covariates(self.network, X), 0.0))

    def treatment_edges_zero(self):
        return bool(np.all(self.network.theta[self.network.treatment_edges()] == 0.0))


@dataclass
class Stage2Model:
    """Treatment-aware model; predicts residuals (explicit_residual) or outcomes (freezing)."""

    variant: str
    network: nn.Network
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


@contextlib.contextmanager
def _allocatable(prefix):
    """Turns numpy's ValueError or MemoryError for a network past the index
    range or memory into ConfigError, its message prefixed `prefix`; the
    package's own errors, such as a ShapeError, pass unchanged."""
    try:
        yield
    except (ValueError, MemoryError) as err:
        if isinstance(err, CdnnError):
            raise
        raise ConfigError(f"{prefix}{err}") from None


def _fresh_network(config, d, treatment_scale, rng):
    """A newly drawn network of the config's architecture on d covariates;
    ConfigError when it has too many parameters to allocate."""
    with _allocatable("bad config value: hidden_widths: "):
        return nn.Network.build(d, config.hidden_widths, activation=config.activation,
                                concat_inputs=config.concat_inputs,
                                treatment_scale=treatment_scale, rng=rng)


def _train(net, stage, data, validation, rng, config):
    """Minibatch-train `net` in place on (x, t) -> y, holding fixed what
    _stage_mask says `stage` holds; every stage fit goes here.

    Training early-stops on `validation` when one is given.
    """
    return nn.fit_network(
        net,
        _stage_mask(net, stage, config),
        *_as_arrays(data),
        rng=rng,
        learning_rate=config.learning_rate,
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
    net = _fresh_network(config, data.d, 0.0, rng)
    model = Stage1Model(net, _train(net, "stage1", data, validation, rng, config))
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
    net = _fresh_network(config, residuals.d, config.treatment_scale, rng)
    log = _train(net, "explicit_residual", residuals, validation, rng, config)
    return Stage2Model("explicit_residual", net, log)


def fit_stage2_freezing(stage1, data, config, validation=None, seed_stream=0):
    """Reuse the stage-1 network with the covariate encoding frozen.

    The first-layer covariate weight block and bias are copied bitwise and
    frozen, deeper weights warm-start from stage 1 (those below layer
    config.freeze_depth stay frozen too), and treatment edges are re-drawn
    small-random and trainable (see _stage_mask). The regression target is
    the observed outcome. A frozen entry that is not bitwise stage 1's after
    training raises IdentityViolationError.

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
    edges = net.treatment_edges()
    net.theta[edges] = config.treatment_scale * rng.uniform(-1.0, 1.0, size=edges.size)
    log = _train(net, "freezing", data, validation, rng, config)
    if not _keeps_stage1(net, stage1.network, "freezing", config):
        raise IdentityViolationError("frozen stage-2 encoder moved away from stage 1's")
    return Stage2Model("freezing", net, log)


def _stage_mask(net, stage, config):
    """What `stage` ("stage1" or a variant) holds fixed in `net`: stage 1 the
    treatment edges; explicit_residual nothing; freezing every entry of the
    layers below max(1, min(config.freeze_depth, n_layers - 1)), a prefix of
    theta, except the treatment edges."""
    mask = nn.FreezeMask.none(net)
    if stage == "stage1":
        mask.frozen[net.treatment_edges()] = True
    elif stage == "freezing":
        depth = max(1, min(config.freeze_depth, net.n_layers - 1))
        mask.frozen[: sum(p.size for p in net.params[: 2 * depth])] = True
        mask.frozen[net.treatment_edges()] = False
    return mask


def _keeps_stage1(net, stage1_net, variant, config):
    """Whether stage-2 `net` has bitwise stage 1's value in every entry the
    stage mask of `variant` holds fixed."""
    frozen = _stage_mask(net, variant, config).frozen
    return net.theta[frozen].tobytes() == stage1_net.theta[frozen].tobytes()


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
    are _map's tasks, so they train in the processes _workers._processes
    gives (with one BLAS thread, one per member below two members per CPU:
    the default 3 train in 3 processes on 2 CPUs) with bitwise the same
    results as in one, and the lowest-numbered failing member raises its
    own exception, prefixed "ensemble member m: ".
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
    blocks are scored in the processes _workers._processes gives (with one
    BLAS thread, one per block below two blocks per CPU); a block holds the
    rows it holds in one process, so every bit is the same. A task shares the
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
    `path` is a file name, written exactly as given and whole or not at all,
    or an open binary file. A model that load_checkpoint would reject raises
    ConfigError, and nothing is written.
    """
    stage1, stage2 = zip(*estimator.members)
    width = stage1[0].network.covariate_width
    arrays = {"stage1": np.stack([s.network.theta for s in stage1]),
              "stage2": np.stack([s.network.theta for s in stage2])}
    _decode(estimator.variant, estimator.config, width, arrays)
    meta = {"format": CHECKPOINT_FORMAT, "variant": estimator.variant,
            "config": asdict(estimator.config), "covariate_width": width}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    # np.savez given a file name appends ".npz"; zipfile seeks back over what
    # it wrote, which a device such as /dev/null accepts but does not keep
    archive = io.BytesIO()
    np.savez(archive, **arrays)
    writes = contextlib.nullcontext(path) if hasattr(path, "write") else _replaced_whole(path, "wb")
    with writes as fh:
        fh.write(archive.getbuffer())
    return path


def _network(config, width, theta=None):
    """The config's network on `width` covariates with parameters `theta`, or
    zeros; ConfigError when it has too many parameters to allocate."""
    wiring = width, config.hidden_widths, config.activation, config.concat_inputs
    with _allocatable("malformed checkpoint: "):
        return nn.Network(*wiring, theta)


def _decode(variant, config, width, arrays):
    """The estimator whose member m has the thetas arrays["stage1"][m] and
    arrays["stage2"][m]. ConfigError unless every member keeps the paper's
    contracts."""
    rows = (config.ensemble_size, _network(config, width).theta.size)
    stage1, stage2 = (_required(arrays, k, "f", rows) for k in ("stage1", "stage2"))
    members = []
    for m in range(config.ensemble_size):
        net1, net2 = (_network(config, width, a[m]) for a in (stage1, stage2))
        s1 = Stage1Model(net1, nn.TrainingLog())
        for broken, why in (
            (not (np.isfinite(net1.theta).all() and np.isfinite(net2.theta).all()),
             "a parameter is not finite (NaN or inf)"),
            (not s1.treatment_edges_zero(), "stage-1 treatment edges are not exactly 0"),
            (not _keeps_stage1(net2, net1, variant, config),
             "frozen stage-2 encoder differs from stage 1's"),
        ):
            if broken:
                raise ConfigError(f"malformed checkpoint: member {m}: {why}")
        members.append((s1, Stage2Model(variant, net2, nn.TrainingLog())))
    return CdnnEstimator(members, variant, config)


def _required(mapping, key, kind=None, shape=None):
    """mapping[key] of a checkpoint's meta or arrays; ConfigError if absent or,
    for an array, of another dtype kind than `kind` or shape than `shape`."""
    if key not in mapping:
        raise ConfigError(f"malformed checkpoint: missing {key!r}")
    a = mapping[key]
    if kind is not None and (a.dtype.kind != kind or a.shape != shape):
        raise ConfigError(f"malformed checkpoint: {key!r} is {a.dtype} {a.shape}, "
                          f"not kind {kind!r} of shape {shape}")
    return a


def _load_config(cfg):
    names = {f.name for f in fields(CdnnConfig)}
    # format-2 files written while a second update rule existed also carry its
    # two settings; no loaded model reads them, so they are dropped
    keys = set(cfg) - {"optimizer", "momentum"} if isinstance(cfg, dict) else set()
    if keys != names:
        raise ConfigError(
            "malformed checkpoint config: "
            f"unknown keys {sorted(keys - names)}, missing keys {sorted(names - keys)}"
        )
    try:
        return CdnnConfig(**{k: cfg[k] for k in names})
    except (TypeError, ValueError) as err:
        raise ConfigError(f"malformed checkpoint config: {err}") from None


@contextlib.contextmanager
def _open_archive(path):
    """np.load(path) as an open .npz archive; ConfigError if it is not one.
    A file name is opened here and closed on every exit, also when numpy
    rejects it; an open binary file stays the caller's."""
    opens = contextlib.nullcontext(path) if hasattr(path, "read") else open(path, "rb")
    with opens as fh:
        try:
            blob = np.load(fh)
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
    """Load a save_checkpoint file (format 2); any other format, and a
    malformed file or one that breaks the paper's contracts, raises ConfigError."""
    with _open_archive(path) as blob:
        raw = bytes(_required(blob, "meta"))
        try:
            meta = json.loads(raw.decode("utf-8"))
        except ValueError as err:  # not UTF-8, or not JSON
            raise ConfigError(f"malformed checkpoint: unreadable meta: {err}") from None
        fmt = meta.get("format") if isinstance(meta, dict) else None
        if fmt != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {fmt!r}")
        config = _load_config(_required(meta, "config"))
        variant = _required(meta, "variant")
        if variant not in VARIANTS:
            raise ConfigError(f"malformed checkpoint: unknown variant {variant!r}")
        width = _required(meta, "covariate_width")
        if not _is_count(width):
            raise ConfigError(f"malformed checkpoint: covariate_width {width!r} is not "
                              "an integer >= 1")
        return _decode(variant, config, width, blob)
