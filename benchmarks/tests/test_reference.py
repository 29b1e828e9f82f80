import signal
import time

import reference


def test_sampler_samples_inline_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler(interval_s=0.05, iterations=5) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2
    assert all(end > start and rate > 0 for start, end, rate in sampler.samples)


def test_busy_time_and_rate_lookup():
    sampler = reference.Sampler()
    sampler.samples = [(10, 20, 100.0), (50, 60, 300.0), (90, 95, 200.0)]
    assert sampler.busy_ns(0, 100) == 25
    assert sampler.busy_ns(15, 55) == 5 + 5
    assert sampler.rate_between(0, 70) == 200.0  # mean of the two inside
    assert sampler.rate_between(60, 70) == 300.0  # nearest start when none inside
    assert sampler.median_rate() == 200.0
    assert reference.Sampler().rate_between(0, 1) is None
