"""cdnn benchmark: one workload per process, metrics as one JSON line.

    python3 benchmarks/run.py --workload hetero-suite --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all     # every workload, one process each
    python3 -m pytest benchmarks/tests -q        # the benchmark's own tests

Workloads: hetero-suite, score and verify (see workloads.py). --seconds sets
the amount of work, not a deadline. Each run prints every end-to-end metric
with its unit and ends with one JSON line {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are:

    throughput_norm  throughput of the workload's operations (estimator fits/s,
                     scored rows/s, verified seeds/s) at the nominal speed of
                     a reference kernel sampled inline (see reference.py)
    peak_rss_mb      peak resident memory of the process
    setup_s          median of five fresh-interpreter imports of cdnn (numpy
                     and scipy already loaded) plus the median of three
                     setups (input generation, CSV and checkpoint for score,
                     warm-up), each at the reference kernel's nominal speed
                     as sampled right next to it

With --trace 1 the same work runs again with every layer wrapped, and the
metrics are the per-layer ones of layers.py, including the tracing overhead
(traced run_s minus untraced run_s). A result file with the environment, fit
records and errors, and in traced runs the spans, go to benchmarks/out/. The
exit status is 1 when an operation fails or a correctness check does not
hold, and 2 when the package source is missing.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import envinfo

envinfo.cap_threads()  # before numpy loads BLAS
import reference  # noqa: E402  (loads numpy)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("hetero-suite", "score", "verify")
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
REFERENCE_ITERATIONS = 320  # per kernel sample next to an import or a setup

# end-to-end metrics gated by BENCHMARK.json: (name, unit)
END_TO_END = (("throughput_norm", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_all(args):
    """Each workload in its own process; prints every metric, fails if any does."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            status = 1
    return status


# Times the package import in a fresh interpreter, then samples the reference
# kernel there (twice: the first call pays for the first BLAS and expit calls).
# numpy and scipy.special load first, untimed: their cost is the same for every
# commit and varies more than the package's own import does.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import numpy, scipy.special
start = time.perf_counter()
import cdnn.cli
elapsed = time.perf_counter() - start
import reference
reference.kernel_rate()
print(elapsed, reference.kernel_rate(int(sys.argv[3])))
"""


def _nominal_s(seconds, rate):
    """seconds scaled to the reference kernel's nominal speed."""
    return seconds * rate / reference.NOMINAL_RATE


def _import_times():
    """(raw, nominal) seconds for a fresh interpreter to import the package,
    once per repeat; each is scaled by the kernel rate in that interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)]
        cmd.append(str(REFERENCE_ITERATIONS))
        probe = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        elapsed, rate = map(float, probe.stdout.split())
        times.append((elapsed, _nominal_s(elapsed, rate)))
    return times


def _setup_times(workload):
    """(raw, nominal) seconds of each setup; each is scaled by the mean of the
    kernel rates sampled just before and just after it."""
    times = []
    reference.kernel_rate()  # pays for the first BLAS and expit calls
    rate = reference.kernel_rate(REFERENCE_ITERATIONS)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        before, rate = rate, reference.kernel_rate(REFERENCE_ITERATIONS)
        times.append((elapsed, _nominal_s(elapsed, (before + rate) / 2)))
    return times


def _median_total(column, *series):
    """Sum over series of the median of each entry's column."""
    return sum(statistics.median(entry[column] for entry in entries) for entries in series)


def run_one(args):
    if not (SRC / "cdnn" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'cdnn'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cdnn

    if not Path(cdnn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported cdnn from {cdnn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import Tracer

    import_times = _import_times()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cls = workloads.WORKLOADS[args.workload]
        if cls is workloads.Score:
            workload = cls(args.seed, args.seconds, workdir)
        else:
            workload = cls(args.seed, args.seconds)

        setup_times = _setup_times(workload)
        with reference.Sampler() as sampler:
            workload.prepare_checks()
            outcome = workload.run(sampler=sampler)
        attempted, failed, errors = outcome.attempted, outcome.failed, list(outcome.errors)
        summary = {
            # at the reference kernel's nominal speed, like throughput_norm
            "setup_s": (_median_total(1, import_times, setup_times), "s"),
            "setup_raw_s": (_median_total(0, import_times, setup_times), "s"),
            "run_s": (outcome.run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **workload.summary(outcome),
        }

        per_layer = None
        if args.trace:
            tracer = Tracer()
            with tracer.installed(layers.targets()):
                workload.setup()
                traced = workload.run(tracer)
            attempted += traced.attempted
            failed += traced.failed
            errors += traced.errors
            per_layer = layers.layer_metrics(
                tracer.spans,
                traced.windows_ns,
                traced.baseline_warnings,
                traced.run_s - outcome.run_s,
            )
            tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary["failed_frac"] = (failed / attempted if attempted else 1.0, "1", f"{failed}/{attempted}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit, *note) in summary.items():
        print(f"  {name:<20} {_fmt(value):>14} {unit:<4} {' '.join(note)}".rstrip())
    for err in errors:
        print(f"  FAILED {err}")

    if per_layer is None:
        metrics = {name: summary[name][0] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    else:
        metrics = per_layer
        units = dict(layers.METRICS)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": envinfo.record(),
        "setup_times_s": setup_times,  # (raw, nominal) per setup
        "import_times_s": import_times,  # (raw, nominal) per fresh-interpreter import
        "summary": {k: v[0] for k, v in summary.items()},
        "errors": errors,
        "fits": outcome.records,
        "quality": outcome.quality,
        "baseline_warnings": outcome.baseline_warnings,
        "reference_samples": len(sampler.samples),
        "reference_rate_p50": sampler.median_rate(),
        "result": result,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
