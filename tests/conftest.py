import pytest

from cdnn import estimator
from cdnn.theory import marginal_outcome


@pytest.fixture(autouse=True)
def empty_stage1_memo(monkeypatch):
    """Start every test with no stage-1 members held from an earlier fit."""
    monkeypatch.setattr(estimator, "_stage1_memo", (None, {}))


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
