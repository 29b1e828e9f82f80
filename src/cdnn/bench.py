"""Experiment runner: replication suites, error metrics, reports, and the
numerical verification suites behind the `verify` command.

Reports are deterministic for a fixed seed: per-fit wall-clock times are kept
on the in-memory report and stderr summaries but never in emitted files, so
two identical runs write identical bytes.
"""

from __future__ import annotations

import csv
import glob as globmod
import inspect
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import estimator as est_mod
from ._workers import _map
from .baselines import _check_dml_settings, dml_ate, ols_lr1, ols_lr2
from .data import (
    DGP_FAMILIES,
    SPLIT_SCHEMES,
    ReplicationSet,
    SplitSpec,
    _derived_seed,
    _replaced_whole,
    concat_datasets,
    generate,
    load_csv,
    named_dgp,
    random_dgp,
    oracle_of,
    split,
)
from .errors import CdnnError, ConfigError, InvalidPerturbationError, MetricUnavailableError
from .errors import _check_seed, _check_size, _is_count
from .metrics import ate_error_signed, eps_ate, sqrt_pehe
from .nn import Network, gradient_check
from .theory import (
    gateaux_derivative,
    marginal_outcome,
    non_orthogonal_control,
    residualized_h,
    standard_perturbations,
)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class EstimatorSpec:
    name: str
    params: tuple = ()  # sorted (key, value) pairs, as the config gives them


@dataclass(frozen=True)
class ExperimentConfig:
    estimators: tuple
    split: SplitSpec
    seed: int = 0
    dgp: object = None
    csv_files: tuple = ()
    n: int = 0
    replications: int = 1
    output: str | None = None
    redraw_baseline: bool = False
    metrics_on: str = "test"

    def __post_init__(self):
        if not self.estimators:
            raise ConfigError("need at least one estimator")
        if not _is_count(self.replications):
            raise ConfigError("replications must be >= 1")
        _check_seed(self.seed)
        if (self.dgp is None) == (not self.csv_files):
            raise ConfigError("configure exactly one of dgp or csv input")
        if self.dgp is not None:
            if not _is_count(self.n, least=3):
                raise ConfigError("need n >= 3 samples per replication")
            _check_size("n", self.n)
            self.split.sizes(self.n)  # a split too thin for n fails here, before any work
        elif self.n or self.redraw_baseline:
            raise ConfigError("csv input takes no n or redraw_baseline: "
                              "each file fixes its rows and baseline")
        if self.metrics_on not in ("test", "all"):
            raise ConfigError("metrics_on must be 'test' or 'all'")


def _reject_unknown(d, allowed, context):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {context} keys: {', '.join(unknown)}")


def _estimator_spec_from(entry):
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict) or "name" not in entry:
        raise ConfigError(f"estimator entries need a name: {entry!r}")
    name = entry["name"]
    if name not in ESTIMATOR_NAMES:
        raise ConfigError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
    params = {k: v for k, v in entry.items() if k != "name"}
    check = _ESTIMATORS[name][0]
    # the seed is no setting: each replication derives it
    _reject_unknown(params, inspect.signature(check).parameters.keys() - {"seed"},
                    f"{name} parameter")
    check(**params)  # a bad setting fails here, before any work
    return EstimatorSpec(name, tuple(sorted(params.items())))


def _cdnn_ite(variant, pool, query_x, seed, default_val_fraction, **params):
    params.setdefault("validation_fraction", default_val_fraction)
    fitted = est_mod.fit(pool, variant, est_mod.CdnnConfig(seed=seed, **params))
    return est_mod.predict_ite(fitted, query_x)


def _dml_ite(pool, query_x, seed, default_val_fraction, **params):
    return np.full(query_x.shape[0], dml_ate(pool, seed=seed, **params)[0])


# name -> (check(**settings), fit_and_predict(pool, query x, seed, val fraction, **settings));
# check's parameters name the settings, and it raises ConfigError on a bad one
_ESTIMATORS = {
    "cdnn_freezing": (est_mod.CdnnConfig, partial(_cdnn_ite, "freezing")),
    "cdnn_explicit": (est_mod.CdnnConfig, partial(_cdnn_ite, "explicit_residual")),
    "ols_lr1": (lambda: None, lambda pool, query_x, *_: ols_lr1(pool)[-1](query_x)),
    "ols_lr2": (lambda: None, lambda pool, query_x, *_: ols_lr2(pool)[-1](query_x)),
    "dml": (_check_dml_settings, _dml_ite),
}
ESTIMATOR_NAMES = tuple(_ESTIMATORS)


def _split_spec_from(entry):
    if entry is None:
        return SplitSpec.ihdp()
    if type(entry) is not dict:
        raise ConfigError(f"bad config value: split must be an object, got {entry!r}")
    _reject_unknown(entry, ("scheme", "fractions"), "split")
    scheme = entry.get("scheme", "custom")
    if scheme == "custom":
        if "fractions" not in entry:
            raise ConfigError("custom split needs fractions")
        return SplitSpec(entry["fractions"])
    if not isinstance(scheme, str) or scheme not in SPLIT_SCHEMES:
        raise ConfigError(f"unknown split scheme {scheme!r}")
    if "fractions" in entry:
        raise ConfigError(f"split scheme {scheme!r} fixes its fractions; "
                          "give fractions with the custom scheme")
    return SplitSpec(SPLIT_SCHEMES[scheme])


_JSON_KINDS = {
    int: "an integer",
    bool: "true or false",
    str: "a string",
    dict: "an object",
    list: "an array",
}


def _given(entry, **kinds):
    """The keys of `kinds` that `entry` holds, each of the JSON type that its
    kind names in _JSON_KINDS (None: any, left to the code it feeds). An
    absent key is not passed, so the code it feeds applies its own default."""
    given = {key: entry[key] for key in kinds if key in entry}
    for key, value in given.items():
        # bool is a subclass of int, not an int here
        if kinds[key] is not None and type(value) is not kinds[key]:
            raise ConfigError(
                f"bad config value: {key} must be {_JSON_KINDS[kinds[key]]}, got {value!r}"
            )
    return given


def config_from_dict(raw):
    """Build an ExperimentConfig from parsed JSON; unknown keys and values of
    the wrong type raise ConfigError."""
    try:
        return _config_from_dict(raw)
    except CdnnError:  # ConfigError and SplitError are ValueErrors too
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad config value: {err}") from None


def _config_from_dict(raw):
    if type(raw) is not dict:
        raise ConfigError(f"bad config value: the config must be an object, got {raw!r}")
    allowed = {f.name for f in fields(ExperimentConfig)} - {"csv_files"}
    _reject_unknown(raw, allowed, "config")
    if "estimators" not in raw or "dgp" not in raw:
        raise ConfigError("config needs 'dgp' and 'estimators'")
    dgp_entry = _given(raw, dgp=dict)["dgp"]
    dgp = None
    csv_files = ()
    replications = _given(raw, replications=int)
    if "csv" in dgp_entry:
        _reject_unknown(dgp_entry, ("csv",), "dgp")
        csv_files = tuple(sorted(globmod.glob(_given(dgp_entry, csv=str)["csv"])))
        if not csv_files:
            raise ConfigError(f"csv glob {dgp_entry['csv']!r} matched no files")
        # one replication per file unless the config says otherwise
        count = replications.setdefault("replications", len(csv_files))
        if count != len(csv_files):
            raise ConfigError(f"replications={count} but csv glob matched {len(csv_files)} files")
    else:
        _reject_unknown(dgp_entry, ("family", "d", "seed"), "dgp")
        if "family" not in dgp_entry:
            raise ConfigError(f"dgp needs a 'family' (one of {DGP_FAMILIES}) or 'csv'")
        dgp = named_dgp(dgp_entry["family"], **_given(dgp_entry, d=int, seed=int))
    estimators = tuple(_estimator_spec_from(e) for e in _given(raw, estimators=list)["estimators"])
    names = [spec.name for spec in estimators]
    for name in names:
        if names.count(name) > 1:  # the report keys its aggregates by name
            raise ConfigError(f"estimator {name!r} is named more than once")
    return ExperimentConfig(
        estimators=estimators,
        split=_split_spec_from(raw.get("split")),
        dgp=dgp,
        csv_files=csv_files,
        **replications,
        **_given(raw, seed=int, n=int, output=str, redraw_baseline=bool, metrics_on=None),
    )


# ---------------------------------------------------------------------------
# running


@dataclass
class RepRow:
    estimator: str
    replication: int
    sqrt_pehe: float | None
    eps_ate: float | None
    ate_error_signed: float | None
    fit_seconds: float
    error: str | None = None

    @property
    def ok(self):
        return self.error is None


def _run_replication(config, i):
    if config.csv_files:
        data = load_csv(config.csv_files[i])
    else:
        reps = ReplicationSet(config.dgp, config.replications, config.redraw_baseline)
        data = generate(reps.spec_for(i), config.n)
    train, val, test = split(data, config.split, _derived_seed(config.seed, i, 1))
    pool = concat_datasets([train, val])
    eval_data = data if config.metrics_on == "all" else test
    f_train, f_val, _ = config.split.fractions
    default_val_fraction = f_val / (f_train + f_val)

    rows = []
    for j, spec in enumerate(config.estimators):
        t0 = time.perf_counter()
        try:
            fit_predict = _ESTIMATORS[spec.name][1]
            seed = _derived_seed(config.seed, i, 2 + j)
            pred = fit_predict(pool, eval_data.x, seed, default_val_fraction, **dict(spec.params))
            truth = eval_data.theta
            if truth is None:
                raise MetricUnavailableError(
                    "dataset carries no ground-truth potential outcomes"
                )
            rows.append(
                RepRow(
                    spec.name,
                    i,
                    sqrt_pehe(pred, truth),
                    eps_ate(pred, truth),
                    ate_error_signed(pred, truth),
                    time.perf_counter() - t0,
                )
            )
        except Exception as err:  # recorded, excluded from aggregates
            rows.append(
                RepRow(spec.name, i, None, None, None, time.perf_counter() - t0, str(err))
            )
    return rows


@dataclass
class MetricsReport:
    rows: list
    estimator_order: list

    def rows_for(self, name):
        return [r for r in self.rows if r.estimator == name]

    def aggregates(self):
        """Per-estimator mean/sd over successful replications.

        Returns dict name -> {n_ok, n_failed, mean_sqrt_pehe, sd_sqrt_pehe,
        mean_eps_ate, sd_eps_ate, mean_fit_seconds}; means/sds are None when
        every replication failed.
        """
        out = {}
        for name in self.estimator_order:
            rows = self.rows_for(name)
            good = [r for r in rows if r.ok]
            entry = {"n_ok": len(good), "n_failed": len(rows) - len(good)}
            ddof = 1 if len(good) > 1 else 0
            for metric in ("sqrt_pehe", "eps_ate"):
                values = np.array([getattr(r, metric) for r in good])
                entry[f"mean_{metric}"] = float(values.mean()) if good else None
                entry[f"sd_{metric}"] = float(values.std(ddof=ddof)) if good else None
            seconds = [r.fit_seconds for r in good]
            entry["mean_fit_seconds"] = float(np.mean(seconds)) if good else None
            out[name] = entry
        return out

    def to_csv(self, path):
        """One row per (estimator, replication) plus mean/sd aggregate rows;
        no wall time, so the bytes depend on the config and seed alone."""

        def fmt(v):
            return "" if v is None else format(v, ".17g")

        agg = self.aggregates()
        rows = [["estimator", "replication", "sqrt_pehe", "eps_ate", "ate_error_signed", "status"]]
        for r in self.rows:
            rows.append([
                r.estimator,
                str(r.replication),
                fmt(r.sqrt_pehe),
                fmt(r.eps_ate),
                fmt(r.ate_error_signed),
                "ok" if r.ok else f"error: {r.error}",
            ])
        for name in self.estimator_order:
            a = agg[name]
            for stat in ("mean", "sd"):
                rows.append([
                    name,
                    stat,
                    fmt(a[f"{stat}_sqrt_pehe"]),
                    fmt(a[f"{stat}_eps_ate"]),
                    "",
                    f"n={a['n_ok']}",
                ])
        with _replaced_whole(path, newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return path

    def to_markdown(self):
        """Estimator x metric table with mean+/-sd cells.

        Cells use two decimal places when both the mean and sd are >= 0.1 and
        three otherwise, so small-scale values stay readable.
        """

        def cell(mean, sd):
            if mean is None:
                return "failed"
            prec = 2 if (abs(mean) >= 0.1 and abs(sd) >= 0.1) else 3
            return f"{mean:.{prec}f}±{sd:.{prec}f}"

        agg = self.aggregates()
        lines = [
            "| estimator | sqrt_pehe (mean±sd) | eps_ate (mean±sd) | replications |",
            "|---|---|---|---|",
        ]
        for name in self.estimator_order:
            a = agg[name]
            n_txt = str(a["n_ok"]) + (f" ({a['n_failed']} failed)" if a["n_failed"] else "")
            lines.append(
                f"| {name} | {cell(a['mean_sqrt_pehe'], a['sd_sqrt_pehe'])} "
                f"| {cell(a['mean_eps_ate'], a['sd_eps_ate'])} | {n_txt} |"
            )
        return "\n".join(lines) + "\n"

    def summary_lines(self):
        agg = self.aggregates()
        lines = []
        for name in self.estimator_order:
            a = agg[name]
            if a["mean_sqrt_pehe"] is None:
                lines.append(f"{name}: all {a['n_failed']} replications failed")
                continue
            extra = f", {a['n_failed']} failed" if a["n_failed"] else ""
            lines.append(
                f"{name}: sqrt_pehe {a['mean_sqrt_pehe']:.4f}±{a['sd_sqrt_pehe']:.4f}, "
                f"eps_ate {a['mean_eps_ate']:.4f}±{a['sd_eps_ate']:.4f} "
                f"({a['n_ok']} replications{extra}, "
                f"{a['mean_fit_seconds']:.2f}s/fit)"
            )
        return lines


def run(config):
    """Execute the experiment; deterministic for a fixed config and seed.

    Each replication is one of _map's tasks, so they run in the processes
    _workers._processes gives; rows are reassembled in replication order,
    so the process count never changes a bit. The lowest-numbered
    replication that raises (a malformed CSV) raises its exception.
    """
    chunks = _map(lambda i: _run_replication(config, i), config.replications)
    rows = [row for chunk in chunks for row in chunk]
    return MetricsReport(rows, [s.name for s in config.estimators])


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class VerifyResult:
    kind: str
    passed: bool
    lines: list = field(default_factory=list)


def verify_gradients(seed=0, networks=20, tolerance=1e-4):
    """Backprop vs central finite differences over random architectures."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    errors = []
    for k in range(networks):
        d = int(rng.integers(2, 6))
        depth = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(3, 11)) for _ in range(depth))
        activation = "identity" if k % 5 == 4 else "swish"
        concat = bool(k % 3 == 1)
        scale = 0.0 if k % 4 == 0 else 0.01
        net = Network.build(
            d, hidden, activation=activation, concat_inputs=concat, treatment_scale=scale, rng=rng
        )
        n = int(rng.integers(3, 9))
        X = rng.standard_normal((n, d))
        T = rng.integers(0, 2, n).astype(float)
        Y = rng.standard_normal(n)
        errors.append(gradient_check(net, (X, T, Y)))
    # np.max, not max: a NaN error must reach the verdict and fail it
    worst = float(np.max(errors, initial=0.0))
    passed = worst <= tolerance
    lines = [
        f"networks checked: {networks} (architectures, activations, concat wiring varied)",
        f"max relative gradient error: {worst:.3e} (tolerance {tolerance:.0e})",
    ]
    return VerifyResult("gradients", passed, lines)


def verify_lemma(seed=0, oracles=1000, tolerance=1e-12):
    """Residual-decomposition and mixture identities over random oracles."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    worst_h = 0.0
    worst_mix = 0.0
    for _ in range(oracles):
        spec = random_dgp(rng)
        oracle = oracle_of(spec)
        x = rng.standard_normal(spec.d)
        t = int(rng.integers(0, 2))
        direct, factored = residualized_h(oracle, t, x, tol=tolerance)
        worst_h = max(worst_h, abs(direct - factored))
        worst_mix = max(worst_mix, abs(marginal_outcome(oracle, x) - oracle.g0(x)))
    passed = worst_h <= tolerance and worst_mix <= tolerance
    lines = [
        f"oracles checked: {oracles}",
        f"max |h_direct - theta*(t-e)|: {worst_h:.3e} (tolerance {tolerance:.0e})",
        f"max |mixture - g0|: {worst_mix:.3e} (tolerance {tolerance:.0e})",
    ]
    return VerifyResult("lemma", passed, lines)


def _is_constant_g_direction(perturbation, xs):
    probes = [perturbation.delta_g(x) for x in xs]
    return max(probes) - min(probes) < 1e-12, probes[0]


def _admissible(oracle, directions, x):
    """Whether no direction pushes the perturbed propensity out of range at x."""
    try:
        for pert in directions:
            gateaux_derivative(oracle, pert, x, method="analytic")
    except InvalidPerturbationError:
        return False
    return True


def _probe_points(oracle, directions, rng, n_x, d):
    """n_x standard-normal points, each admissible for every direction.

    An inadmissible point (13 of the 60000 points drawn for seeds 0-2999) is
    replaced by draws taken after all n_x original ones, so a seed whose
    points are all admissible keeps them unchanged.
    """
    xs = rng.standard_normal((n_x, d))
    for x in xs:
        while not _admissible(oracle, directions, x):
            x[:] = rng.standard_normal(d)
    return xs


def verify_orthogonality(seed=0, n_x=20, n_samples=100_000, min_pass_fraction=0.95):
    """Gateaux-derivative checks of the orthogonal score and its negative
    control at Monte-Carlo scale."""
    spec = named_dgp("confound-hetero", seed=seed)
    oracle = oracle_of(spec)
    directions = standard_perturbations(spec.d)
    xs = _probe_points(oracle, directions, np.random.default_rng(seed), n_x, spec.d)

    within = 0
    total = 0
    analytic_all_zero = True
    probe = 0
    for x in xs:
        for pert in directions:
            probe += 1
            estimate, stderr = gateaux_derivative(
                oracle, pert, x, n_samples=n_samples, seed=_derived_seed(seed, probe)
            )
            total += 1
            if abs(estimate) <= 3.0 * stderr:
                within += 1
            analytic, _ = gateaux_derivative(oracle, pert, x, method="analytic")
            if analytic != 0.0:
                analytic_all_zero = False

    controls_checked = 0
    controls_rejected = 0
    for pert in directions:
        is_const, c = _is_constant_g_direction(pert, xs[:3])
        if not (is_const and abs(c) >= 0.5):
            continue
        for x in xs[:5]:
            probe += 1
            estimate, stderr = non_orthogonal_control(
                oracle, pert, x, n_samples=n_samples, seed=_derived_seed(seed, probe)
            )
            controls_checked += 1
            if abs(estimate) > 3.0 * stderr:
                controls_rejected += 1

    frac = within / total
    passed = (
        frac >= min_pass_fraction
        and analytic_all_zero
        and controls_checked > 0
        and controls_rejected == controls_checked
    )
    lines = [
        f"finite-difference probes: {total} ({n_x} points x {len(directions)} directions, "
        f"{n_samples} samples each)",
        f"within 3 MC stderr of 0: {within}/{total} ({100 * frac:.1f}%, need >= "
        f"{100 * min_pass_fraction:.0f}%)",
        f"analytic closed form exactly 0 on all probes: {analytic_all_zero}",
        f"negative control rejected 0 at 3 sigma: {controls_rejected}/{controls_checked}",
    ]
    return VerifyResult("orthogonality", passed, lines)


SUITES = ("gradients", "lemma", "orthogonality")


def verify(kind, seed=0):
    """Run one named verification suite of SUITES (or "all" of them); each
    result ends with the suite's wall time."""
    if kind != "all" and kind not in SUITES:
        raise ConfigError(f"unknown verify kind {kind!r}")
    _check_seed(seed)
    results = []
    for k in SUITES if kind == "all" else (kind,):
        t0 = time.perf_counter()
        # looked up when called, so a wrapped module attribute verify_* is the one run
        result = globals()[f"verify_{k}"](seed=seed)
        result.lines.append(f"elapsed: {time.perf_counter() - t0:.2f}s")
        results.append(result)
    return results
