"""The layers the benchmark traces, and the per-layer metrics built from spans.

Layers are the package's modules: nn, estimator, data, baselines, theory,
bench and cli. Each is timed from outside at its public functions; work
counts (rows, floating-point operations, epochs) are read off the arguments
and results of the wrapped calls.
"""

from __future__ import annotations

import hashlib

import numpy as np

from cdnn import baselines, bench, cli, data, estimator, nn, theory
from tracer import Target, covered_ns, self_times_ns

MINIBATCH_MAX_ROWS = 64  # CdnnConfig.batch_size
LARGE_BATCH_MIN_ROWS = 8192  # far past L2 at 64-wide float64 activations
SETUP_SPANS = ("data.generate", "data.split", "data.write_csv")


def params_sha256(params):
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _matmul_flop(net, rows, with_input_grads):
    """2*rows*in*out per layer; backward adds the input gradient of layers >= 1."""
    total = 0
    for i, spec in enumerate(net.layers):
        per = 2 * rows * spec.input_width * spec.output_width
        total += per
        if with_input_grads and i > 0:
            total += per
    return total


def _forward_work(span, args, kwargs, result):
    span.rows = len(result[0])
    span.flop = _matmul_flop(args[0], span.rows, False)


def _backward_work(span, args, kwargs, result):
    net, cache = args[0], args[1]
    span.rows = cache.batch_size
    span.flop = _matmul_flop(net, span.rows, True)


def _fit_network_work(span, args, kwargs, result):
    span.rows = len(args[2])
    span.info = {"epochs": len(result.train_mse), "best_epoch": result.best_epoch}


def _stage1_work(span, args, kwargs, result):
    span.info = params_sha256(result.network.params)


def _rows_result(span, args, kwargs, result):
    span.rows = int(np.size(result)) if isinstance(result, (float, np.ndarray)) else len(result)


def _rows_write_csv(span, args, kwargs, result):
    span.rows = len(args[0])


def targets():
    """Every wrapped function, in install order."""
    return [
        Target("nn.forward_batch", nn.Network, "forward_batch", _forward_work),
        Target("nn.backward", nn, "backward", _backward_work),
        Target("nn.step", nn, "step"),
        Target("nn.mse_loss", nn, "mse_loss"),
        Target("nn.fit_network", nn, "fit_network", _fit_network_work),
        Target("nn.gradient_check", nn, "gradient_check"),
        Target("estimator.fit", estimator, "fit"),
        Target("estimator.fit_stage1", estimator, "fit_stage1", _stage1_work),
        Target("estimator.fit_stage2_freezing", estimator, "fit_stage2_freezing"),
        Target("estimator.fit_stage2_explicit", estimator, "fit_stage2_explicit"),
        Target("estimator.compute_residuals", estimator, "compute_residuals"),
        Target("estimator.predict_ite", estimator, "predict_ite", _rows_result),
        Target("estimator.load_checkpoint", estimator, "load_checkpoint"),
        Target("data.generate", data, "generate", _rows_result),
        Target("data.split", data, "split"),
        Target("data.write_csv", data, "write_csv", _rows_write_csv),
        Target("data.load_csv", data, "load_csv", _rows_result),
        Target("baselines.ols_lr1", baselines, "ols_lr1"),
        Target("baselines.ols_lr2", baselines, "ols_lr2"),
        Target("baselines.dml_ate", baselines, "dml_ate"),
        Target("theory.residualized_h", theory, "residualized_h"),
        Target("bench.verify_gradients", bench, "verify_gradients"),
        Target("bench.verify_lemma", bench, "verify_lemma"),
        Target("cli.main", cli, "main"),
    ]


# (metric name, unit) in report order; every traced run reports all of them.
METRICS = [
    *[
        (f"nn.{fn}.{stat}", unit)
        for fn in ("forward_batch", "backward", "step")
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("us_p99", "us"))
    ],
    ("nn.forward_batch.rows_per_s", "1/s"),
    ("nn.mse_loss.self_s", "s"),
    ("nn.fit_network.self_s", "s"),
    ("nn.gflop", "GFLOP"),
    ("nn.gflops_per_s", "GFLOP/s"),
    ("nn.epochs", "count"),
    ("nn.epochs_useful_ratio", "ratio"),
    ("nn.gradient_check.calls", "count"),
    ("nn.gradient_check.self_s", "s"),
    ("estimator.fit.calls", "count"),
    *[
        (f"estimator.{fn}.{stat}", unit)
        for fn in ("fit_stage1", "fit_stage2_freezing", "fit_stage2_explicit", "compute_residuals")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ],
    ("estimator.stage1_unique_ratio", "ratio"),
    ("estimator.predict_ite.rows_per_s", "1/s"),
    ("estimator.load_checkpoint.s", "s"),
    ("data.generate.s", "s"),
    ("data.split.s", "s"),
    ("data.write_csv.s", "s"),
    ("data.load_csv.rows_per_s", "1/s"),
    ("cli.main.self_s", "s"),
    ("baselines.ols_lr1.s", "s"),
    ("baselines.ols_lr2.s", "s"),
    ("baselines.dml_ate.s", "s"),
    ("baselines.warnings", "count"),
    ("theory.residualized_h.calls", "count"),
    ("theory.residualized_h.self_s", "s"),
    ("bench.verify_gradients.s", "s"),
    ("bench.verify_lemma.s", "s"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
]


def _rate(numerator, seconds):
    return numerator / seconds if seconds > 0 else 0.0


def layer_metrics(spans, windows_ns, baseline_warnings, overhead_s):
    """Per-layer metrics from the spans of one traced setup and run.

    Span ids are list positions. Setup spans carry rep -1: the data.generate,
    data.split and data.write_csv metrics read them, since inputs are made
    in setup; every other metric reads only spans of the timed operations.
    windows_ns are the (start, end) intervals of those operations;
    trace.coverage is the share of them that named spans cover.
    """
    selfs = self_times_ns(spans)
    by_name = {}
    for s in spans:
        if s.rep >= 0 or s.name in SETUP_SPANS:
            by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ())) * 1e-9

    def total_s(name):
        return sum(s.end - s.start for s in by_name.get(name, ())) * 1e-9

    def rows(name):
        return sum(s.rows for s in by_name.get(name, ()))

    def in_training_loop(s):
        # a minibatch call made by fit_network; step carries no row count
        parent = spans[s.parent] if s.parent >= 0 else None
        return (
            parent is not None
            and parent.name == "nn.fit_network"
            and s.rows <= MINIBATCH_MAX_ROWS
        )

    out = {}
    for fn in ("forward_batch", "backward", "step"):
        name = f"nn.{fn}"
        mini = [s for s in by_name.get(name, ()) if in_training_loop(s)]
        us = np.array([(s.end - s.start) * 1e-3 for s in mini]) if mini else np.zeros(1)
        out[f"{name}.calls"] = len(mini)
        out[f"{name}.self_s"] = sum(selfs[s.id] for s in mini) * 1e-9
        out[f"{name}.us_p50"] = float(np.percentile(us, 50))
        out[f"{name}.us_p99"] = float(np.percentile(us, 99))

    large = [s for s in by_name.get("nn.forward_batch", ()) if s.rows >= LARGE_BATCH_MIN_ROWS]
    out["nn.forward_batch.rows_per_s"] = _rate(
        sum(s.rows for s in large), sum(s.end - s.start for s in large) * 1e-9
    )
    out["nn.mse_loss.self_s"] = self_s("nn.mse_loss")
    out["nn.fit_network.self_s"] = self_s("nn.fit_network")
    flop = sum(s.flop for s in by_name.get("nn.forward_batch", ()))
    flop += sum(s.flop for s in by_name.get("nn.backward", ()))
    out["nn.gflop"] = flop * 1e-9
    out["nn.gflops_per_s"] = _rate(
        flop * 1e-9, total_s("nn.forward_batch") + total_s("nn.backward")
    )
    logs = [s.info for s in by_name.get("nn.fit_network", ())]
    epochs = sum(log["epochs"] for log in logs)
    useful = sum(
        log["best_epoch"] + 1 if log["best_epoch"] >= 0 else log["epochs"] for log in logs
    )
    out["nn.epochs"] = epochs
    out["nn.epochs_useful_ratio"] = useful / epochs if epochs else 0.0
    out["nn.gradient_check.calls"] = calls("nn.gradient_check")
    out["nn.gradient_check.self_s"] = self_s("nn.gradient_check")

    out["estimator.fit.calls"] = calls("estimator.fit")
    for fn in ("fit_stage1", "fit_stage2_freezing", "fit_stage2_explicit", "compute_residuals"):
        out[f"estimator.{fn}.calls"] = calls(f"estimator.{fn}")
        out[f"estimator.{fn}.self_s"] = self_s(f"estimator.{fn}")
    hashes = [s.info for s in by_name.get("estimator.fit_stage1", ())]
    out["estimator.stage1_unique_ratio"] = len(set(hashes)) / len(hashes) if hashes else 0.0
    out["estimator.predict_ite.rows_per_s"] = _rate(
        rows("estimator.predict_ite"), total_s("estimator.predict_ite")
    )
    out["estimator.load_checkpoint.s"] = total_s("estimator.load_checkpoint")

    out["data.generate.s"] = total_s("data.generate")
    out["data.split.s"] = total_s("data.split")
    out["data.write_csv.s"] = total_s("data.write_csv")
    out["data.load_csv.rows_per_s"] = _rate(rows("data.load_csv"), total_s("data.load_csv"))
    out["cli.main.self_s"] = self_s("cli.main")

    for fn in ("ols_lr1", "ols_lr2", "dml_ate"):
        out[f"baselines.{fn}.s"] = total_s(f"baselines.{fn}")
    out["baselines.warnings"] = baseline_warnings

    out["theory.residualized_h.calls"] = calls("theory.residualized_h")
    out["theory.residualized_h.self_s"] = self_s("theory.residualized_h")
    for fn in ("verify_gradients", "verify_lemma"):
        out[f"bench.{fn}.s"] = total_s(f"bench.{fn}")

    out["trace.spans"] = len(spans)
    top = [(s.start, s.end) for s in spans if s.parent < 0 and s.rep >= 0]
    window_total = sum(hi - lo for lo, hi in windows_ns)
    covered = sum(covered_ns(top, lo, hi) for lo, hi in windows_ns)
    out["trace.coverage"] = covered / window_total if window_total else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
