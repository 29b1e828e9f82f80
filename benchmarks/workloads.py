"""The benchmark workloads: hetero-suite, score and verify.

Each workload is a closed loop with one caller. Its inputs come from the
workload seed alone, and --seconds sets how many operations it runs: as many
as take about that long on the reference machine (2 cores, one BLAS thread).
The count never depends on how fast a run goes, so work counts repeat exactly
from run to run and from commit to commit.

An operation is one estimator fit, one baseline, one score call or one verify
suite. An operation fails when it raises or when a correctness check on its
output does not hold; checks run outside the timed section.
"""

from __future__ import annotations

import contextlib
import csv
import io
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from cdnn import baselines, bench, cli, data, estimator, metrics, nn
from layers import params_sha256

VARIANTS = ("freezing", "explicit_residual")


class CheckFailed(Exception):
    """A correctness check on an operation's output did not hold."""


@dataclass
class Outcome:
    sampler: object = None  # reference.Sampler in an untraced run
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    windows_ns: list = field(default_factory=list)  # (start, end) of each timed op
    seconds: dict = field(default_factory=dict)  # op kind -> durations
    records: list = field(default_factory=list)  # one per fit
    quality: list = field(default_factory=list)  # one per replication
    baseline_warnings: int = 0
    rates: list = field(default_factory=list)  # (throughput sample, reference rate)

    def elapsed_s(self, start_ns, end_ns):
        """Wall time of [start, end) less the time the sampler took in it."""
        busy = self.sampler.busy_ns(start_ns, end_ns) if self.sampler else 0
        return (end_ns - start_ns - busy) * 1e-9

    @property
    def run_s(self):
        """Time of the timed operations; checks and sampling are left out."""
        return sum(self.elapsed_s(start, end) for start, end in self.windows_ns)

    def add_rate(self, rate, start_ns, end_ns):
        ref = self.sampler.rate_between(start_ns, end_ns) if self.sampler else None
        self.rates.append((rate, ref))

    def throughput(self, aggregate=statistics.median):
        rates = [rate for rate, _ in self.rates]
        return aggregate(rates) if rates else 0.0

    def throughput_norm(self, aggregate=statistics.median):
        """Throughput samples, each scaled by the reference kernel's nominal
        rate over its rate while that sample was taken, then aggregated."""
        scaled = [rate * reference.NOMINAL_RATE / ref for rate, ref in self.rates if ref]
        return aggregate(scaled) if scaled else 0.0

    def timed(self, kind, op, check=None):
        """Run one operation; returns its result, or None when it failed."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            result = op()
        except Exception as err:  # any raise is a failed operation, recorded
            self.windows_ns.append((start, time.perf_counter_ns()))
            self.failed += 1
            self.errors.append(f"{kind}: {type(err).__name__}: {err}")
            return None
        end = time.perf_counter_ns()
        self.windows_ns.append((start, end))
        self.seconds.setdefault(kind, []).append(self.elapsed_s(start, end))
        if check is not None:
            try:
                check(result)
            except CheckFailed as err:
                self.failed += 1
                self.errors.append(f"{kind}: check failed: {err}")
                return None
        return result


def planned_ops(seconds, nominal_op_s):
    return max(1, round(seconds / nominal_op_s))


def warm_up():
    """First expit, BLAS and optimizer calls, so their one-off costs fall in setup."""
    rng = np.random.default_rng(0)
    net = nn.Network.build(5, rng=rng)
    mask = nn.FreezeMask.none(net)
    opt = nn.OptimizerState.create(net)
    X = rng.standard_normal((64, 5))
    T = rng.integers(0, 2, 64).astype(float)
    Y = rng.standard_normal(64)
    for _ in range(3):
        preds, cache = net.forward_batch(X, T)
        _, grad = nn.mse_loss(preds, Y)
        nn.step(net, nn.backward(net, cache, grad), mask, opt)
    np.linalg.lstsq(np.column_stack([np.ones(64), X]), Y, rcond=None)


def _set_rep(tracer, rep):
    if tracer is not None:
        tracer.rep = rep


def _median(values):
    return statistics.median(values) if values else 0.0


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# hetero-suite


def check_fit(fitted, variant, n_rows):
    est, pred, _ = fitted
    d = est.members[0][0].network.covariate_width
    for m, (stage1, stage2) in enumerate(est.members):
        if not stage1.treatment_edges_zero():
            raise CheckFailed(f"member {m}: stage-1 treatment edges are not exactly 0")
        if variant == "freezing":
            p1, p2 = stage1.network.params, stage2.network.params
            if not (_same_bits(p1[0][:d], p2[0][:d]) and _same_bits(p1[1], p2[1])):
                raise CheckFailed(f"member {m}: frozen stage-2 encoder differs from stage 1")
    if pred.shape != (n_rows,) or not np.all(np.isfinite(pred)):
        raise CheckFailed("effect predictions are not finite per test row")


def check_baseline(pred, n_rows):
    if pred.shape != (n_rows,) or not np.all(np.isfinite(pred)):
        raise CheckFailed("effect predictions are not finite per test row")


def counting_warnings(out, fn):
    """fn as an operation that adds the warnings it raises (ridge fallbacks,
    propensity clamps) to out.baseline_warnings."""

    def op():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pred = fn()
        out.baseline_warnings += len(caught)
        return pred

    return op


def fit_record(rep, variant, est, fit_s, train_rows):
    members = []
    for stage1, stage2 in est.members:
        members.append(
            {
                stage: {"epochs": len(log.train_mse), "best_epoch": log.best_epoch}
                for stage, log in (("stage1", stage1.training_log), ("stage2", stage2.training_log))
            }
        )
    epochs = sum(m[s]["epochs"] for m in members for s in ("stage1", "stage2"))
    params = [p for s1, s2 in est.members for p in s1.network.params + s2.network.params]
    return {
        "rep": rep,
        "variant": variant,
        "fit_s": fit_s,
        "sha256": params_sha256(params),
        "epochs": epochs,
        "train_rows_per_s": train_rows * epochs / fit_s,
        "members": members,
    }


class HeteroSuite:
    """The acceptance criterion-7 fixture: both variants, OLS and DML per
    confound-hetero replication, scored on the ihdp test split."""

    name = "hetero-suite"
    nominal_op_s = 14.0  # one replication

    def __init__(self, seed, seconds, n=2000, config=None):
        self.seed = seed
        self.replications = planned_ops(seconds, self.nominal_op_s)
        self.n = n
        self.config = dict(config or {})

    def setup(self):
        base = data.named_dgp("confound-hetero", seed=self.seed)
        reps = data.make_replications(base, self.replications)
        self.inputs = []
        for i in range(self.replications):
            spec = reps.spec_for(i)
            full = data.generate(spec, self.n)
            train, val, test = data.split(full, data.SplitSpec.ihdp(), self.seed + 100 + i)
            oracle = data.oracle_of(spec)
            truth_fn = np.array([oracle.theta0(x) for x in test.x])
            self.inputs.append((data.concat_datasets([train, val]), test, truth_fn))
        warm_up()

    def prepare_checks(self):
        pass

    def run(self, tracer=None, sampler=None):
        out = Outcome(sampler)
        for i, (pool, test, truth_fn) in enumerate(self.inputs):
            _set_rep(tracer, i)
            config = estimator.CdnnConfig(seed=self.seed + i, **self.config)
            # rows each stage trains on: the pool minus the carved validation part
            train_rows = len(pool) - int(np.floor(config.validation_fraction * len(pool)))
            preds = {}
            for variant in VARIANTS:

                def fit_op(variant=variant):
                    start = time.perf_counter_ns()
                    est = estimator.fit(pool, variant, config)
                    window = (start, time.perf_counter_ns())
                    return est, estimator.predict_ite(est, test.x), window

                fitted = out.timed(
                    "fit", fit_op, lambda r, v=variant: check_fit(r, v, len(test))
                )
                if fitted is not None:
                    est, preds[variant], window = fitted
                    record = fit_record(i, variant, est, out.elapsed_s(*window), train_rows)
                    out.records.append(record)
                    out.add_rate(1.0 / record["fit_s"], *window)

            baseline_ops = {
                "ols_lr1": lambda: baselines.ols_lr1(pool)[1](test.x),
                "ols_lr2": lambda: baselines.ols_lr2(pool)[2](test.x),
                "dml_ate": lambda: np.full(
                    len(test), baselines.dml_ate(pool, seed=config.seed)[0]
                ),
            }
            for name, fn in baseline_ops.items():
                pred = out.timed(
                    name, counting_warnings(out, fn), lambda p: check_baseline(p, len(test))
                )
                if pred is not None:
                    preds[name] = pred

            out.quality.append(
                {
                    "rep": i,
                    **{
                        f"sqrt_pehe_{k}": metrics.sqrt_pehe(p, test.theta)
                        for k, p in preds.items()
                    },
                    "corr_freezing": (
                        float(np.corrcoef(preds["freezing"], truth_fn)[0, 1])
                        if "freezing" in preds
                        else None
                    ),
                }
            )
        return out

    def summary(self, out):
        fits = [r["fit_s"] for r in out.records]
        q = out.quality

        def mean_of(key):
            vals = [r[key] for r in q if r.get(key) is not None]
            return float(np.mean(vals)) if vals else None

        return {
            # fits per second of fit time: the harmonic mean of the per-fit
            # rates, so fits that run more epochs weigh by their time
            "throughput_norm": (out.throughput_norm(statistics.harmonic_mean), "1/s"),
            "throughput": (out.throughput(statistics.harmonic_mean), "1/s"),
            "fit_s_p50": (_median(fits), "s", f"n={len(fits)}"),
            "train_rows_per_s": (
                _median([r["train_rows_per_s"] for r in out.records]),
                "1/s",
                "training rows x epochs",
            ),
            "sqrt_pehe_freezing": (mean_of("sqrt_pehe_freezing"), "1"),
            "sqrt_pehe_explicit": (mean_of("sqrt_pehe_explicit_residual"), "1"),
            "corr_freezing": (mean_of("corr_freezing"), "1"),
        }


# ---------------------------------------------------------------------------
# score


class Score:
    """`cdnn score` in-process: checkpoint + large CSV -> per-row effect CSV."""

    name = "score"
    nominal_op_s = 4.0  # one score call on 100k rows

    def __init__(self, seed, seconds, workdir, rows=100_000, train_rows=1000):
        self.seed = seed
        self.calls = planned_ops(seconds, self.nominal_op_s)
        self.rows = rows
        self.train_rows = train_rows
        workdir = Path(workdir)
        self.csv_path = workdir / "score_input.csv"
        self.model_path = workdir / "model.npz"
        self.out_path = workdir / "score_output.csv"

    def setup(self):
        scored = data.generate(data.named_dgp("confound-hetero", seed=self.seed), self.rows)
        data.write_csv(scored, self.csv_path)
        train = data.generate(
            data.named_dgp("confound-hetero", seed=self.seed + 1), self.train_rows
        )
        config = estimator.CdnnConfig(seed=self.seed, epochs=5)
        self.model = estimator.fit(train, "freezing", config)
        estimator.save_checkpoint(self.model, self.model_path)
        self.x = scored.x
        warm_up()

    def prepare_checks(self):
        self.reference = estimator.predict_ite(self.model, self.x)

    def _score(self, argv):
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main(argv)
        return code, printed.getvalue()

    def check(self, result):
        code, printed = result
        if code != 0 or not printed.startswith(f"wrote {self.rows} effect predictions"):
            raise CheckFailed(f"cdnn score exited with {code}: {printed.strip()!r}")
        with open(self.out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["ite"]:
            raise CheckFailed(f"unexpected header {rows[0]}")
        parsed = np.array([float(r[0]) for r in rows[1:]])
        if not _same_bits(parsed, self.reference):
            raise CheckFailed("score output differs from in-memory predict_ite")

    def run(self, tracer=None, sampler=None):
        out = Outcome(sampler)
        argv = [
            "score",
            "--model",
            str(self.model_path),
            "--data",
            str(self.csv_path),
            "--out",
            str(self.out_path),
        ]
        for k in range(self.calls):
            _set_rep(tracer, k)
            if out.timed("score", lambda: self._score(argv), self.check) is not None:
                out.add_rate(self.rows / out.seconds["score"][-1], *out.windows_ns[-1])
        return out

    def summary(self, out):
        return {
            "throughput_norm": (out.throughput_norm(), "1/s"),
            "score_rows_per_s": (out.throughput(), "1/s", f"n={len(out.rates)}"),
        }


# ---------------------------------------------------------------------------
# verify


# The orthogonality suite is left out: bench.verify_orthogonality raises
# InvalidPerturbationError when one of its random points has an extreme
# propensity (verify seeds 23, 175, 531, 755, ...), so no seed range is free
# of failing operations until that is fixed in the package.
SUITES = ("gradients", "lemma")


def check_suite(results, kind):
    if [r.kind for r in results] != [kind] or not results[0].passed:
        raise CheckFailed(f"suite {kind} did not pass: {[r.lines for r in results]}")


class Verify:
    """The gradients and lemma suites over consecutive seeds, one suite per
    operation."""

    name = "verify"
    nominal_op_s = 0.35  # both suites for one seed

    def __init__(self, seed, seconds):
        self.seed = seed
        self.seeds = planned_ops(seconds, self.nominal_op_s)

    def setup(self):
        warm_up()

    def prepare_checks(self):
        pass

    def run(self, tracer=None, sampler=None):
        out = Outcome(sampler)
        for k in range(self.seeds):
            _set_rep(tracer, k)
            seed = self.seed * 1000 + k
            first = len(out.windows_ns)
            passed = 0
            for kind in SUITES:
                results = out.timed(
                    kind, lambda: bench.verify(kind, seed=seed), lambda r: check_suite(r, kind)
                )
                passed += results is not None
            if passed == len(SUITES):
                seed_s = sum(out.seconds[kind][-1] for kind in SUITES)
                out.add_rate(1.0 / seed_s, out.windows_ns[first][0], out.windows_ns[-1][1])
        return out

    def summary(self, out):
        return {
            "throughput_norm": (out.throughput_norm(), "1/s"),
            "throughput": (out.throughput(), "1/s"),
            "verify_s_p50": (_median([1.0 / r for r, _ in out.rates]), "s", f"n={len(out.rates)}"),
        }


WORKLOADS = {w.name: w for w in (HeteroSuite, Score, Verify)}
