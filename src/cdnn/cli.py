"""Command line harness.

Subcommands: generate (DGP -> CSV), bench (run experiment + emit reports),
verify (numerical check suites), score (checkpoint + CSV -> per-row effect
CSV), and fit (train an estimator on a CSV and save a checkpoint). Exit
status: 0 success, 1 check or benchmark failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import bench
from .data import DGP_FAMILIES, _output_target, _replaced_whole, generate, load_csv, named_dgp
from .data import write_csv
from .errors import CdnnError, ConfigError
from .estimator import VARIANTS, CdnnConfig, fit, load_checkpoint, predict_ite, save_checkpoint


def _build_parser():
    parser = argparse.ArgumentParser(prog="cdnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="draw a synthetic dataset and write it as CSV")
    p_gen.add_argument("--family", required=True, choices=DGP_FAMILIES)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--d", type=int)
    p_gen.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="run an experiment config and emit reports")
    p_bench.add_argument("--config", required=True, help="JSON experiment config")

    p_verify = sub.add_parser("verify", help="run a numerical verification suite")
    p_verify.add_argument("kind", choices=(*bench.SUITES, "all"))
    p_verify.add_argument("--seed", type=int)

    p_score = sub.add_parser("score", help="per-row effect predictions from a checkpoint")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--data", required=True)
    p_score.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="train on a CSV and save a model checkpoint")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--variant", choices=VARIANTS, default="freezing")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--epochs", type=int)
    p_fit.add_argument("--hidden", help="comma-separated hidden widths")
    p_fit.add_argument("--ensemble-size", type=int)
    p_fit.add_argument("--validation-fraction", type=float)
    return parser


def _given(args, *names):
    """The flags among `names` that were given, by name. An absent flag is
    not passed, so the code it feeds applies its own default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _check_out(path):
    """ConfigError unless `path` can be written as a file: its directory
    exists and it is not itself a directory; PermissionError unless what
    _replaced_whole writes into is writable: the directory of the real path,
    or the path itself if it is written in place. Creates nothing, so a bad
    --out fails before any work."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"--out {path}: directory {out.parent} does not exist")
    real, _, in_place = _output_target(path)
    place, needs = (real, os.W_OK) if in_place else (os.path.dirname(real), os.W_OK | os.X_OK)
    if not os.access(place, needs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), place)


def _check_out_dir(path):
    """The OSError that making `path` with mkdir(parents=True) would raise,
    raised without creating anything, so a bad bench output fails before
    any work: `path`, or a directory on it, is not a directory, or the
    nearest existing directory on it is not writable."""
    out = Path(path)
    for ancestor in (out, *out.parents):
        if ancestor.is_dir():
            if not os.access(ancestor, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(ancestor))
            return
        if os.path.lexists(ancestor):
            code = errno.EEXIST if ancestor == out else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(ancestor))


def _cmd_generate(args):
    _check_out(args.out)
    spec = named_dgp(args.family, **_given(args, "d", "seed"))
    data = generate(spec, args.n)
    write_csv(data, args.out)
    print(f"wrote {len(data)} rows (d={data.d}, ground truth included) to {args.out}")
    return 0


def _cmd_bench(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError:
        raise ConfigError(f"config {args.config} is not UTF-8 text") from None
    config = bench.config_from_dict(raw)
    out_dir = Path(config.output or ".")
    _check_out_dir(out_dir)
    report = bench.run(config)
    out_dir.mkdir(parents=True, exist_ok=True)  # after the run: an error leaves no output
    csv_path = out_dir / "report.csv"
    md_path = out_dir / "report.md"
    report.to_csv(csv_path)
    with _replaced_whole(md_path, encoding="utf-8") as fh:
        fh.write(report.to_markdown())
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
    results = bench.verify(args.kind, **_given(args, "seed"))
    ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] verify {result.kind}")
        for line in result.lines:
            print(f"  {line}")
        ok = ok and result.passed
    return 0 if ok else 1


def _cmd_score(args):
    _check_out(args.out)
    est = load_checkpoint(args.model)
    data = load_csv(args.data)
    ites = predict_ite(est, data.x)
    # one %-format over the whole column and one write: the bytes of a
    # per-value f"{v:.17g}" join, in about two thirds of its time
    with _replaced_whole(args.out, newline="", encoding="utf-8") as fh:
        fh.write("ite\n" + ("%.17g\n" * len(ites)) % tuple(ites.tolist()))
    print(f"wrote {len(data)} effect predictions to {args.out}")
    return 0


def _cmd_fit(args):
    _check_out(args.out)
    data = load_csv(args.data)
    settings = _given(args, "seed", "epochs", "ensemble_size", "validation_fraction")
    if args.hidden is not None:
        try:
            settings["hidden_widths"] = tuple(int(w) for w in args.hidden.split(","))
        except ValueError:
            raise ConfigError(f"bad --hidden value {args.hidden!r}") from None
    config = CdnnConfig(**settings)
    est = fit(data, args.variant, config)
    save_checkpoint(est, args.out)
    print(f"trained {args.variant} ensemble ({config.ensemble_size} members) -> {args.out}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (CdnnError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
