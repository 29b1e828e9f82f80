"""Command line harness.

Subcommands: generate (DGP -> CSV), bench (run experiment + emit reports),
verify (numerical check suites), score (checkpoint + CSV -> per-row effect
CSV), and fit (train an estimator on a CSV and save a checkpoint). Exit
status: 0 success, 1 check or benchmark failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench
from .data import DGP_FAMILIES, generate, load_csv, named_dgp, write_csv
from .errors import CdnnError, ConfigError
from .estimator import VARIANTS, CdnnConfig, fit, load_checkpoint, predict_ite, save_checkpoint


def _build_parser():
    parser = argparse.ArgumentParser(prog="cdnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="draw a synthetic dataset and write it as CSV")
    p_gen.add_argument("--family", required=True, choices=DGP_FAMILIES)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--d", type=int, default=5)
    p_gen.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="run an experiment config and emit reports")
    p_bench.add_argument("--config", required=True, help="JSON experiment config")
    p_bench.add_argument(
        "--include-runtime",
        action="store_true",
        help="add per-fit wall time to the CSV (breaks bit-reproducibility)",
    )

    p_verify = sub.add_parser("verify", help="run a numerical verification suite")
    p_verify.add_argument("kind", choices=(*bench.SUITES, "all"))
    p_verify.add_argument("--seed", type=int, default=0)

    p_score = sub.add_parser("score", help="per-row effect predictions from a checkpoint")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--data", required=True)
    p_score.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="train on a CSV and save a model checkpoint")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--variant", choices=VARIANTS, default="freezing")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--epochs", type=int, default=300)
    p_fit.add_argument("--hidden", default="64,64,64", help="comma-separated hidden widths")
    p_fit.add_argument("--ensemble-size", type=int, default=3)
    p_fit.add_argument("--validation-fraction", type=float, default=0.3)
    return parser


def _cmd_generate(args):
    spec = named_dgp(args.family, d=args.d, seed=args.seed)
    data = generate(spec, args.n)
    write_csv(data, args.out)
    print(f"wrote {len(data)} rows (d={data.d}, ground truth included) to {args.out}")
    return 0


def _cmd_bench(args):
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    config = bench.config_from_dict(raw)
    report = bench.run(config)
    out_dir = Path(config.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    md_path = out_dir / "report.md"
    report.to_csv(csv_path, include_runtime=args.include_runtime)
    md_path.write_text(report.to_markdown(), encoding="utf-8")
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    print(f"wrote {csv_path} and {md_path}")
    all_failed = [
        name for name, a in report.aggregates().items() if a["n_ok"] == 0
    ]
    if all_failed:
        print(f"estimators with no successful replication: {', '.join(all_failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args):
    results = bench.verify(args.kind, seed=args.seed)
    ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] verify {result.kind}")
        for line in result.lines:
            print(f"  {line}")
        ok = ok and result.passed
    return 0 if ok else 1


def _cmd_score(args):
    est = load_checkpoint(args.model)
    data = load_csv(args.data)
    ites = predict_ite(est, data.x)
    # one %-format over the whole column and one write: the bytes of a
    # per-value f"{v:.17g}" join, in about two thirds of its time
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write("ite\n" + ("%.17g\n" * len(ites)) % tuple(ites.tolist()))
    print(f"wrote {len(data)} effect predictions to {args.out}")
    return 0


def _cmd_fit(args):
    data = load_csv(args.data)
    try:
        hidden = tuple(int(w) for w in args.hidden.split(","))
    except ValueError:
        raise ConfigError(f"bad --hidden value {args.hidden!r}") from None
    config = CdnnConfig(
        hidden_widths=hidden,
        epochs=args.epochs,
        ensemble_size=args.ensemble_size,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
    )
    est = fit(data, args.variant, config)
    save_checkpoint(est, args.out)
    print(f"trained {args.variant} ensemble ({config.ensemble_size} members) -> {args.out}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
        "score": _cmd_score,
        "fit": _cmd_fit,
    }
    try:
        return handlers[args.command](args)
    except (CdnnError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
