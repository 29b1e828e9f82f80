import pytest

from cdnn import bench, cli, data, estimator, nn
from layers import targets
from tracer import Span, Tracer, covered_ns, self_times_ns


def _span(id, parent, start, end):
    return Span(id, parent, f"s{id}", 0, start, end)


def test_self_time_on_synthetic_tree():
    # 0 [0,100) has children 1 [10,30) and 2 [20,60) (overlapping: 50 covered)
    # and 3 [90,120) (sticks out: 10 covered); 1 has child 4 [12,18).
    spans = [
        _span(0, -1, 0, 100),
        _span(1, 0, 10, 30),
        _span(2, 0, 20, 60),
        _span(3, 0, 90, 120),
        _span(4, 1, 12, 18),
        _span(5, -1, 200, 210),
    ]
    assert self_times_ns(spans) == {0: 40, 1: 14, 2: 40, 3: 30, 4: 6, 5: 10}


def test_covered_clips_and_merges():
    assert covered_ns([(5, 10), (0, 3), (8, 20)], 2, 15) == 1 + 10
    assert covered_ns([], 0, 10) == 0


def _bindings():
    return {
        "Network.forward_batch": nn.Network.__dict__["forward_batch"],
        "nn.backward": nn.backward,
        "nn.gradient_check": nn.gradient_check,
        "bench.gradient_check": bench.gradient_check,
        "bench.residualized_h": bench.residualized_h,
        "bench.generate": bench.generate,
        "bench.ols_lr1": bench.ols_lr1,
        "cli.fit": cli.fit,
        "cli.load_checkpoint": cli.load_checkpoint,
        "cli.predict_ite": cli.predict_ite,
        "cli.load_csv": cli.load_csv,
        "estimator.fit": estimator.fit,
        "data.load_csv": data.load_csv,
    }


def test_wrappers_bind_every_lookup_name_and_restore():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed(targets()):
        during = _bindings()
        for key, original in before.items():
            assert during[key] is not original, key
            assert during[key].__wrapped__ is original, key
        assert bench.gradient_check is nn.gradient_check
        assert cli.load_csv is data.load_csv
    assert _bindings() == before
    for key, original in before.items():
        assert _bindings()[key] is original, key


def test_restore_after_error_and_double_install_refused():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets()):
            Tracer().install(targets())
    assert _bindings() == before


def test_spans_record_parent_and_rep():
    import numpy as np

    tracer = Tracer()
    rng = np.random.default_rng(0)
    net = nn.Network.build(3, (4,), rng=rng)
    batch = (rng.standard_normal((5, 3)), np.zeros(5), rng.standard_normal(5))
    with tracer.installed(targets()):
        tracer.rep = 7
        bench.gradient_check(net, batch)
    top = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in top] == ["nn.gradient_check"]
    children = {s.name for s in tracer.spans if s.parent == top[0].id}
    assert children == {"nn.forward_batch", "nn.mse_loss", "nn.backward"}
    assert all(s.rep == 7 and s.end >= s.start for s in tracer.spans)
