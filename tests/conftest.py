import pytest

from cdnn import estimator


@pytest.fixture(autouse=True)
def empty_stage1_memo(monkeypatch):
    """Start every test with no stage-1 members held from an earlier fit."""
    monkeypatch.setattr(estimator, "_stage1_memo", (None, {}))
