"""Self-time arithmetic and reconciliation on synthetic span trees."""

import threading

import pytest

import tracing


def _span(name, start, end, parent=-1, work=0.0):
    return [name, 1, start, end, parent, work]


def _tree():
    # phase.sweep [0, 10]
    #   analyzer [1, 9]
    #     cache.get [1, 2]
    #     chip_delay.batch [2, 7]
    #       chip_delay.cdf [3, 4]
    #     cache.put [7, 8.5]
    # phase.design_flow [10, 14]
    #   mitigation [10, 13]
    #     analyzer [11, 12]
    return [
        _span("phase.sweep", 0.0, 10.0),
        _span("analyzer", 1.0, 9.0, 0),
        _span("cache.get", 1.0, 2.0, 1),
        _span("chip_delay.batch", 2.0, 7.0, 1),
        _span("chip_delay.cdf", 3.0, 4.0, 3),
        _span("cache.put", 7.0, 8.5, 1),
        _span("phase.design_flow", 10.0, 14.0),
        _span("mitigation", 10.0, 13.0, 6),
        _span("analyzer", 11.0, 12.0, 7),
        _span("serve.resolve", 0.5, 3.0),      # detached: ignored
    ]


def test_self_time_is_duration_minus_direct_children():
    selfs = tracing.self_times(_tree())
    assert selfs == pytest.approx(
        [2.0, 0.5, 1.0, 4.0, 1.0, 1.5, 1.0, 2.0, 1.0, 2.5])


def test_layer_table_reconciles_with_the_wall():
    table = tracing.layer_table(_tree(), ("phase.sweep",
                                          "phase.design_flow"))
    layers = table["layers"]
    assert table["wall_s"] == pytest.approx(14.0)
    assert table["unattributed_s"] == pytest.approx(3.0)
    assert layers["analyzer"]["self_s"] == pytest.approx(1.5)
    assert layers["analyzer"]["calls"] == 2
    assert layers["chip_delay.batch"]["self_s"] == pytest.approx(4.0)
    assert "serve.resolve" not in layers
    total = sum(r["self_s"] for r in layers.values())
    assert total + table["unattributed_s"] == pytest.approx(14.0)
    assert table["residual_s"] == pytest.approx(0.0)


def test_merge_and_layer_metrics():
    one = tracing.layer_table(_tree(), ("phase.sweep", "phase.design_flow"))
    merged = tracing.merge_tables([one, one])
    metrics = tracing.layer_metrics(merged, n_processes=2)
    assert merged["wall_s"] == pytest.approx(28.0)
    assert metrics["analyzer.self_s"] == pytest.approx(3.0)
    assert metrics["cache.put_calls"] == 2
    assert metrics["tail.find_shift_s"] == 0
    assert metrics["kernels.gate_evals_per_s"] == 0.0


def test_recorder_nests_per_thread_and_wraps_callables():
    rec = tracing.Recorder()

    class Engine:
        def solve(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n

    Engine.solve = tracing._wrap(rec, "outer", Engine.solve, None)
    Engine.inner = tracing._wrap(rec, "inner", Engine.inner, None)

    def work():
        with rec.span("phase.x"):
            Engine().solve(2)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    spans = rec.spans
    assert len(spans) == 12
    for i, (name, tid, start, end, parent, _) in enumerate(spans):
        assert end >= start
        if name == "phase.x":
            assert parent == -1
        else:
            assert spans[parent][1] == tid
            assert spans[parent][0] == ("phase.x" if name == "outer"
                                        else "outer")
    table = tracing.layer_table(spans, ("phase.x",))
    assert table["layers"]["outer"]["calls"] == 4
    assert table["residual_s"] == pytest.approx(0.0, abs=1e-9)
