import os
import sys

import pytest

from cdnn import _workers, estimator
from cdnn.theory import marginal_outcome


@pytest.fixture(autouse=True)
def empty_stage1_memo(monkeypatch):
    """Start every test with no stage-1 members held from an earlier fit."""
    monkeypatch.setattr(estimator, "_stage1_memo", (None, {}))


@pytest.fixture
def processes(monkeypatch):
    """Forces P for every _map through the real rule, whatever the machine:
    this process may run on `count` CPUs with one BLAS thread, so
    _processes, nesting rule included, gives one process per task below
    2 * count tasks and `count` from there on. Returns a
    setter of `count` (2 at first), which also empties the stage-1 memo so
    the next fit is cold, and its record `setter.counts`: the P of each
    outermost _map the calling process made since the last set."""
    counts = []
    real = _workers._processes

    def recording(tasks):
        procs = real(tasks)
        frame, maps = sys._getframe(1), []
        while frame is not None:
            maps.append(frame.f_code is _workers._map.__code__)
            frame = frame.f_back
        if maps[0] and maps.count(True) == 1:  # called by the outermost _map
            counts.append(procs)
        return procs

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        monkeypatch.setattr(estimator, "_stage1_memo", (None, {}))
        counts.clear()

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(_workers, "_processes", recording)
    use.counts = counts
    use(2)
    return use


@pytest.fixture
def assert_oracle_consistent():
    """A check of an oracle's propensity range, effect identity and mixture
    identity at every probe point."""

    def check(oracle, probes, tol=1e-12):
        for x in probes:
            assert 0.0 < oracle.e0(x) < 1.0, x
            assert abs((oracle.f(1, x) - oracle.f(0, x)) - oracle.theta0(x)) <= tol, x
            assert abs(marginal_outcome(oracle, x) - oracle.g0(x)) <= tol, x

    return check
