"""A fixed reference kernel, sampled inline while a workload runs.

On a shared machine the speed of the same code drifts by a quarter within a
minute, and differently on each core, so a probe in another process does not
track it. The sampler therefore runs a few milliseconds of a fixed kernel
from a SIGALRM handler, in the workload's own thread, every interval of wall
time. Dividing a throughput by the kernel's rate over the same interval keeps
the effect of a code change (the kernel runs no package code) and cancels most
of the drift. The sampled time is subtracted from the operations it lands in.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.special import expit

ITERATIONS = 80
INTERVAL_S = 0.4
NOMINAL_RATE = 15_000.0  # kernel iterations/s on the reference machine


def kernel_rate(iterations=ITERATIONS):
    """Iterations per second of the mix of a minibatch step: a 64x64 matmul,
    a logistic, elementwise updates and a short Python loop."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    w = 0.1 * rng.standard_normal((64, 64))
    start = time.perf_counter()
    for _ in range(iterations):
        z = a @ w
        a = z * expit(z)
        a = a / (1.0 + np.abs(a).max())
        _ = [float(v) for v in a[0, :8]]
    return iterations / (time.perf_counter() - start)


class Sampler:
    """Context manager: samples kernel_rate() every INTERVAL_S of wall time."""

    def __init__(self, interval_s=INTERVAL_S, iterations=ITERATIONS):
        self.interval_s = interval_s
        self.iterations = iterations
        self.samples = []  # (start_ns, end_ns, rate)
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        rate = kernel_rate(self.iterations)
        self.samples.append((start, time.perf_counter_ns(), rate))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def median_rate(self):
        return statistics.median(rate for _, _, rate in self.samples) if self.samples else None

    def busy_ns(self, lo, hi):
        """Time within [lo, hi) spent sampling."""
        return sum(max(0, min(end, hi) - max(start, lo)) for start, end, _ in self.samples)

    def rate_between(self, lo, hi):
        """Mean kernel rate of the samples taken within [lo, hi); the nearest
        sample when none was; None before the first sample."""
        inside = [rate for start, _, rate in self.samples if lo <= start < hi]
        if inside:
            return statistics.fmean(inside)
        if not self.samples:
            return None
        mid = (lo + hi) // 2
        return min(self.samples, key=lambda s: abs(s[0] - mid))[2]
