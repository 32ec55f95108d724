"""Observability: span tracing, metrics, manifests, worker propagation."""

import json
import os
import threading

import numpy as np
import pytest

from repro.devices.technology import get_technology
from repro.errors import ConfigurationError
from repro.experiments.__main__ import _run_remote, main
from repro.experiments.registry import get_analyzer
from repro.obs.api import (
    NOOP_OBS,
    Observability,
    activate_obs,
    build_obs,
    counter,
    current_obs,
    span,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    TRACE_SCHEMA,
    build_manifest,
    cache_file_state,
    strip_timing,
    validate_schema,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    NOOP_FLIGHT,
    FlightRecorder,
)
from repro.obs.metrics import (
    NOOP_METRICS,
    MetricsRegistry,
    WindowedCounter,
    WindowedHistogram,
)
from repro.obs.openmetrics import (
    check_openmetrics,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.runtime import Profiler, build_runtime
from repro.runtime.parallel import ParallelSampler

SMALL_ARCH = dict(width=4, paths_per_lane=3, chain_length=5)


# -- metrics registry ----------------------------------------------------------


def test_counter_gauge_histogram_basics():
    m = MetricsRegistry()
    m.counter("c").inc()
    m.counter("c").inc(4)
    m.gauge("g").set(0.5)
    h = m.histogram("h", buckets=(1, 10, 100))
    for v in (0.5, 1, 5, 50, 5000):
        h.observe(v)
    snap = m.as_dict()
    assert snap["counters"] == {"c": 5}
    assert snap["gauges"] == {"g": 0.5}
    rec = snap["histograms"]["h"]
    # bounds are inclusive upper edges plus one overflow bin
    assert rec["buckets"] == [1.0, 10.0, 100.0]
    assert rec["counts"] == [2, 1, 1, 1]
    assert rec["count"] == 5
    assert h.mean == pytest.approx(5056.5 / 5)
    assert len(m) == 3


def test_registry_memoises_instruments_by_name():
    m = MetricsRegistry()
    assert m.counter("x") is m.counter("x")
    assert m.gauge("x") is m.gauge("x")
    assert m.histogram("x") is m.histogram("x")


def test_metrics_merge_accumulates_and_handles_collisions():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("hits").inc(3)
    b.counter("hits").inc(4)          # name collision: counters add
    b.counter("only_b").inc(1)
    a.gauge("util").set(0.2)
    b.gauge("util").set(0.9)          # gauges: last write wins
    a.histogram("n", buckets=(1, 2)).observe(1)
    b.histogram("n", buckets=(1, 2)).observe(2)
    a.merge(b.as_dict())
    snap = a.as_dict()
    assert snap["counters"] == {"hits": 7, "only_b": 1}
    assert snap["gauges"]["util"] == 0.9
    assert snap["histograms"]["n"]["counts"] == [1, 1, 0]
    assert snap["histograms"]["n"]["count"] == 2


def test_metrics_merge_empty_snapshot_is_noop():
    m = MetricsRegistry()
    m.counter("c").inc()
    before = m.as_dict()
    m.merge({})
    m.merge(MetricsRegistry().as_dict())
    assert m.as_dict() == before


def test_metrics_merge_skips_mismatched_histogram_buckets():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", buckets=(1, 2)).observe(1)
    b.histogram("h", buckets=(5, 6)).observe(5)
    a.merge(b.as_dict())
    assert a.as_dict()["histograms"]["h"]["count"] == 1


def test_metrics_render_lists_instruments():
    m = MetricsRegistry()
    m.counter("cache.hits").inc(7)
    m.gauge("util").set(0.25)
    m.histogram("sizes").observe(3)
    text = m.render()
    assert "cache.hits" in text and "7" in text
    assert "util" in text and "0.25" in text
    assert "sizes" in text and "n=1" in text


def test_noop_metrics_shares_inert_instruments():
    assert not NOOP_METRICS.enabled
    inst = NOOP_METRICS.counter("anything")
    assert inst is NOOP_METRICS.gauge("else")
    inst.inc(5)
    inst.set(1.0)
    inst.observe(2.0)
    assert NOOP_METRICS.as_dict() == {"counters": {}, "gauges": {},
                                      "histograms": {}}


# -- tracer --------------------------------------------------------------------


def test_spans_nest_and_record_parent_ids():
    t = Tracer(trace_id="t1")
    with t.span("outer", node="45nm"):
        with t.span("inner", vdd=0.6):
            pass
    inner, outer = t.events()        # events close inner-first
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["args"]["parent_id"] == outer["args"]["span_id"]
    assert "parent_id" not in outer["args"]
    assert inner["args"]["vdd"] == 0.6
    assert outer["args"]["node"] == "45nm"
    for ev in (inner, outer):
        assert ev["ph"] == "X"
        assert ev["args"]["trace_id"] == "t1"
        assert ev["dur"] >= 0 and ev["ts"] > 0
        assert ev["pid"] == os.getpid()


def test_tracer_base_parent_adopts_remote_span():
    t = Tracer(trace_id="t1", parent="dead.1")
    with t.span("child"):
        pass
    assert t.events()[0]["args"]["parent_id"] == "dead.1"


def test_chrome_trace_structure_and_absorb():
    t = Tracer(trace_id="t1")
    with t.span("local"):
        pass
    t.absorb([{"name": "remote", "ph": "X", "ts": 1.0, "dur": 2.0,
               "pid": 99999, "tid": 1, "cat": "repro", "args": {}}])
    doc = t.chrome_trace()
    assert validate_schema(doc, TRACE_SCHEMA) == []
    names = [e["name"] for e in doc["traceEvents"]]
    assert "local" in names and "remote" in names
    # one process_name metadata record per pid seen
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {e["pid"] for e in meta} == {os.getpid(), 99999}
    assert doc["otherData"]["trace_id"] == "t1"
    json.dumps(doc)                  # must be serialisable as-is


def test_noop_tracer_records_nothing():
    assert not NOOP_TRACER.enabled
    with NOOP_TRACER.span("x", big=1):
        pass
    assert len(NOOP_TRACER) == 0
    # the disabled span context manager is a shared singleton
    assert NOOP_TRACER.span("a") is NOOP_TRACER.span("b")


# -- ambient api ---------------------------------------------------------------


def test_build_obs_disabled_returns_shared_noop():
    assert build_obs() is NOOP_OBS
    obs = build_obs(trace=True, metrics=True)
    assert obs.tracer.enabled and obs.metrics.enabled


def test_activation_scopes_the_accessors():
    obs = build_obs(metrics=True, trace=True)
    assert current_obs() is NOOP_OBS
    with activate_obs(obs):
        assert current_obs() is obs
        counter("k").inc(2)
        with span("s", tag=1):
            pass
    assert current_obs() is NOOP_OBS
    counter("k").inc(100)            # routed to the no-op registry
    assert obs.metrics.as_dict()["counters"]["k"] == 2
    assert [e["name"] for e in obs.tracer.events()] == ["s"]


def test_worker_context_round_trip():
    obs = build_obs(trace=True, metrics=True)
    with obs.tracer.span("dispatch"):
        ctx = obs.worker_context("stage")
    assert ctx["trace"] and ctx["metrics"] and ctx["stage"] == "stage"
    worker = Observability.for_worker(ctx)
    assert worker.tracer.trace_id == obs.tracer.trace_id
    with worker.tracer.span("remote"):
        pass
    worker.metrics.counter("c").inc(3)
    obs.merge_export(worker.export())
    names = [e["name"] for e in obs.tracer.events()]
    assert names == ["dispatch", "remote"]
    remote = obs.tracer.events()[1]
    assert remote["args"]["parent_id"] == ctx["parent"]
    assert obs.metrics.as_dict()["counters"]["c"] == 3


def test_worker_context_none_when_disabled():
    assert NOOP_OBS.worker_context("stage") is None
    assert Observability.for_worker(None) is NOOP_OBS
    NOOP_OBS.merge_export(None)      # must be a silent no-op
    NOOP_OBS.merge_export({"spans": [], "metrics": {}})


# -- profiler merge (cross-process hand-back) ---------------------------------


def test_profiler_merge_round_trips_worker_snapshots():
    parent = Profiler()
    parent.record("experiment.fig4", 1.0, 10)
    w1, w2 = Profiler(), Profiler()
    w1.record("experiment.fig4", 0.5, 5)    # stage-name collision
    w1.record("sampler.sample_chips", 2.0, 1000)
    w2.record("sampler.sample_chips", 3.0, 2000)
    parent.merge(w1.as_dict())
    parent.merge(w2.as_dict())
    parent.merge(Profiler().as_dict())      # empty snapshot: no-op
    parent.merge({})
    snap = parent.as_dict()
    assert snap["experiment.fig4"] == {"calls": 2, "wall_s": 1.5,
                                       "samples": 15}
    assert snap["sampler.sample_chips"] == {"calls": 2, "wall_s": 5.0,
                                            "samples": 3000}
    # the snapshot itself survives a JSON round trip (the pool pickles it,
    # but JSON-compatibility keeps it manifest-ready)
    rt = Profiler()
    rt.merge(json.loads(json.dumps(snap)))
    assert rt.as_dict() == snap


# -- manifests ----------------------------------------------------------------


def _tiny_manifest():
    profiler = Profiler()
    profiler.record("experiment.fig4", 0.25, 44)
    metrics = MetricsRegistry()
    metrics.counter("quantile_cache.hits").inc(40)
    metrics.counter("quantile_cache.misses").inc(4)
    metrics.gauge("sampler.worker_utilization").set(0.8)
    state = {"path": "/tmp/q.json", "entries": 4, "bytes": 100}
    return build_manifest(
        targets=["fig4"], fast=True, jobs=2, root_seed=0,
        profiler=profiler, metrics=metrics, cache_before=state,
        cache_after=dict(state, entries=8), elapsed_wall_s=1.5,
        trace_file="t.json")


def test_manifest_contents_and_schema():
    m = _tiny_manifest()
    assert validate_schema(m, MANIFEST_SCHEMA) == []
    assert m["run"]["root_seed"] == 0
    assert set(m["cards"]) == {"90nm", "45nm", "32nm", "22nm"}
    assert all(len(fp) == 16 for fp in m["cards"].values())
    assert m["cache"]["hits"] == 40 and m["cache"]["misses"] == 4
    assert m["stages"]["experiment.fig4"]["samples"] == 44
    json.dumps(m)


def test_strip_timing_removes_only_wall_clock_fields():
    m = _tiny_manifest()
    bare = strip_timing(m)
    assert "timing" not in bare
    assert "wall_s" not in bare["stages"]["experiment.fig4"]
    assert bare["stages"]["experiment.fig4"]["calls"] == 1
    assert "worker_utilization" not in bare["metrics"]["gauges"]
    assert "timing" in m            # original untouched


def test_validate_schema_reports_errors():
    errs = validate_schema({"traceEvents": "nope"}, TRACE_SCHEMA)
    assert any("expected array" in e for e in errs)
    errs = validate_schema({}, TRACE_SCHEMA)
    assert any("missing required key" in e for e in errs)
    errs = validate_schema(
        {"traceEvents": [{"name": "x", "ph": "X", "pid": True, "tid": 0}]},
        TRACE_SCHEMA)
    assert any("boolean" in e for e in errs)


def test_cache_file_state_missing_file_reads_empty(tmp_path):
    state = cache_file_state(str(tmp_path / "absent.json"))
    assert state["entries"] == 0 and state["bytes"] == 0


def test_cache_file_state_counts_live_entries_without_side_effects(tmp_path):
    from repro.resilience import FaultLedger, activate_ledger
    from repro.runtime import QuantileCache

    path = str(tmp_path / "quantiles.json")
    QuantileCache(path=path, enabled=True).put_many([("a", 1.0), ("b", 2.0)])
    with open(path, "ab") as fh:      # a garbled line, then a torn record
        fh.write(b'[["c", "0x1p+1", "bad"]]\n[["d", "0x')
    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger):
        state = cache_file_state(path)
        assert state == {"path": path, "entries": 2,
                         "bytes": os.path.getsize(path)}
        open(path, "w").write(json.dumps(     # another format version
            {"version": 2, "entries": {"a": ["0x1p+0", "0"]}}, indent=0))
        assert cache_file_state(path)["entries"] == 0
        open(path, "w").write("{not json")    # an unparseable header
        assert cache_file_state(path)["entries"] == 0
    assert os.path.exists(path) and not os.path.exists(path + ".quarantined")
    assert ledger.counts() == {}
    assert obs.metrics.counter("resilience.cache.quarantined").value == 0


# -- sampler propagation ------------------------------------------------------


def test_pool_workers_hand_spans_and_metrics_back():
    tech = get_technology("45nm")
    obs = build_obs(trace=True, metrics=True)
    with activate_obs(obs), ParallelSampler(2, shard_size=8) as sampler:
        out = sampler.system_delays(tech, 0.6, n_chips=16, root_seed=7,
                                    **SMALL_ARCH)
    assert out.shape == (16,)
    shard_spans = [e for e in obs.tracer.events()
                   if e["name"] == "sampler.system_delays.shard"]
    assert len(shard_spans) == 2
    # spans were recorded inside pool workers: different pids, same trace
    assert all(e["pid"] != os.getpid() for e in shard_spans)
    assert all(e["args"]["trace_id"] == obs.tracer.trace_id
               for e in shard_spans)
    assert {e["args"]["shard"] for e in shard_spans} == {0, 1}
    counters = obs.metrics.as_dict()["counters"]
    assert counters["sampler.shards"] == 2
    assert counters["sampler.samples"] == 16
    assert counters["montecarlo.chips"] == 16   # counted inside workers
    util = obs.metrics.as_dict()["gauges"]["sampler.worker_utilization"]
    assert 0.0 < util <= 1.0


def test_in_process_shards_span_on_parent_tracer():
    tech = get_technology("45nm")
    obs = build_obs(trace=True, metrics=True)
    with activate_obs(obs), ParallelSampler(1, shard_size=8) as sampler:
        sampler.system_delays(tech, 0.6, n_chips=16, root_seed=7,
                              **SMALL_ARCH)
    shard_spans = [e for e in obs.tracer.events()
                   if e["name"] == "sampler.system_delays.shard"]
    assert len(shard_spans) == 2
    assert all(e["pid"] == os.getpid() for e in shard_spans)


def test_sampling_identical_with_obs_on_and_off():
    tech = get_technology("45nm")
    with ParallelSampler(1, shard_size=8) as sampler:
        base = sampler.system_delays(tech, 0.6, n_chips=16, root_seed=7,
                                     **SMALL_ARCH)
        with activate_obs(build_obs(trace=True, metrics=True)):
            traced = sampler.system_delays(tech, 0.6, n_chips=16,
                                           root_seed=7, **SMALL_ARCH)
    np.testing.assert_array_equal(base, traced)


def test_solve_quantiles_matches_serial_and_is_jobs_invariant():
    from repro.core.chip_delay import ChipDelayEngine
    tech = get_technology("45nm")
    vdds = np.array([0.55, 0.6, 0.65, 0.7, 0.75])
    qs = np.full(5, 0.99)
    spares = np.zeros(5)
    engine = ChipDelayEngine(tech, **SMALL_ARCH)
    serial = engine.chip_quantile_batch(vdds, qs, spares)
    with ParallelSampler(1) as s1:
        one = s1.solve_quantiles(tech, vdds, qs, spares, chunk_size=2,
                                 **SMALL_ARCH)
    with ParallelSampler(2) as s2:
        two = s2.solve_quantiles(tech, vdds, qs, spares, chunk_size=2,
                                 **SMALL_ARCH)
    # chunk partition depends only on (order, chunk_size): jobs-invariant
    np.testing.assert_array_equal(one, two)
    # chunked solves agree with the unchunked batch to solver tolerance
    np.testing.assert_allclose(one, serial, rtol=1e-6)


def test_solve_quantiles_validates_inputs():
    tech = get_technology("45nm")
    with ParallelSampler(1) as sampler:
        with pytest.raises(ConfigurationError):
            sampler.solve_quantiles(tech, [0.6, 0.7], [0.99], [0.0])
        with pytest.raises(ConfigurationError):
            sampler.solve_quantiles(tech, [0.6], [0.99], [0.0],
                                    chunk_size=0)


# -- CLI / end-to-end ----------------------------------------------------------


def _run_fig4(tmp_path, tag, extra=()):
    trace = tmp_path / f"trace-{tag}.json"
    manifest = tmp_path / f"manifest-{tag}.json"
    get_analyzer.cache_clear()       # drop in-memory quantile memos
    rc = main(["fig4", "--fast", "--trace", str(trace),
               "--metrics", str(manifest), *extra])
    assert rc == 0
    return (json.loads(trace.read_text()),
            json.loads(manifest.read_text()))


def test_cli_trace_and_manifest_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace, manifest = _run_fig4(tmp_path, "serial", ["--profile"])
    out = capsys.readouterr().out
    assert "runtime profile" in out and "metrics" in out
    assert "quantile_cache.misses" in out       # counters in the report
    assert validate_schema(trace, TRACE_SCHEMA) == []
    assert validate_schema(manifest, MANIFEST_SCHEMA) == []
    names = {e["name"] for e in trace["traceEvents"]}
    assert {"cli.run", "experiment.fig4"} <= names
    assert manifest["run"] == {"targets": ["fig4"], "fast": True,
                               "jobs": 1, "root_seed": 0, "faults": None}
    assert manifest["cache"]["misses"] > 0
    assert manifest["cache"]["after"]["entries"] > 0
    assert manifest["metrics"]["counters"]["kernel_cache.misses"] > 0


def test_cli_jobs2_trace_includes_worker_spans(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace, manifest = _run_fig4(tmp_path, "par", ["--jobs", "2"])
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    pids = {e["pid"] for e in spans}
    assert os.getpid() in pids and len(pids) >= 2
    worker = [e for e in spans
              if e["name"] == "sampler.solve_quantiles.shard"]
    assert worker and all(e["pid"] != os.getpid() for e in worker)
    assert manifest["metrics"]["counters"]["sampler.shards"] > 0


def test_cli_manifests_deterministic_across_reruns(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _run_fig4(tmp_path, "prime")     # populate the on-disk cache
    _, m1 = _run_fig4(tmp_path, "a")
    _, m2 = _run_fig4(tmp_path, "b")
    # the trace path is a CLI argument, varied here to keep artifacts apart
    m1.pop("trace_file"), m2.pop("trace_file")
    assert strip_timing(m1) == strip_timing(m2)
    # warm re-runs hit the persistent cache for every sign-off quantile
    assert m1["cache"]["misses"] == 0 and m1["cache"]["hits"] > 0


def test_validate_obs_forbids_fault_events(tmp_path, monkeypatch, capsys):
    import importlib.util

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _, manifest = _run_fig4(tmp_path, "clean")
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "validate_obs.py")
    spec = importlib.util.spec_from_file_location("validate_obs", script)
    validate_obs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(validate_obs)
    clean = tmp_path / "manifest-clean.json"
    args = ["--manifest", str(clean),
            "--forbid-fault-events", "hung_worker_timeout"]
    assert validate_obs.main(args) == 0
    manifest["resilience"] = {
        "events": [{"event": "hung_worker_timeout"}],
        "counts": {"hung_worker_timeout": 1}}
    hung = tmp_path / "manifest-hung.json"
    hung.write_text(json.dumps(manifest))
    assert validate_obs.main(["--manifest", str(hung),
                              "--forbid-fault-events",
                              "hung_worker_timeout"]) == 1
    assert "expected no 'hung_worker_timeout'" in capsys.readouterr().err
    # The kernels' utilization gauge is wall-clock data.
    manifest["metrics"]["gauges"]["kernels.thread_utilization"] = 0.5
    assert "kernels.thread_utilization" not in \
        strip_timing(manifest)["metrics"]["gauges"]


def test_cli_without_obs_flags_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    get_analyzer.cache_clear()
    assert main(["fig4", "--fast"]) == 0
    capsys.readouterr()
    assert list(tmp_path.glob("*.json")) == []


def test_run_remote_skips_collection_when_parent_did_not_ask():
    get_analyzer.cache_clear()
    eid, rendered, elapsed, profile, obs_snap = _run_remote(
        ("fig4", True, {"profile": False, "trace": False,
                        "metrics": False}))
    assert eid == "fig4" and "fig4" in rendered
    assert profile == {} and obs_snap == {}


def test_run_remote_collects_when_parent_profiles():
    get_analyzer.cache_clear()
    eid, rendered, elapsed, profile, obs_snap = _run_remote(
        ("fig4", True, {"profile": True, "trace": False,
                        "metrics": False}))
    assert "experiment.fig4" in profile
    assert profile["experiment.fig4"]["calls"] == 1
    # --profile implies the metrics registry
    assert obs_snap["metrics"]["counters"]
    assert obs_snap["spans"] == []


def test_build_runtime_wires_obs_modes():
    rt = build_runtime()
    assert rt.obs is NOOP_OBS
    rt = build_runtime(profile=True)
    assert rt.obs.metrics.enabled and not rt.obs.tracer.enabled
    rt = build_runtime(trace=True)
    assert rt.obs.tracer.enabled and rt.obs.metrics.enabled
    rt.close()


def test_histogram_percentile_interpolates_within_buckets():
    h = MetricsRegistry().histogram("lat", buckets=(10, 20, 40))
    for v in (5, 5, 15, 15, 15, 15, 25, 25, 25, 35):
        h.observe(v)
    # rank 5 of 10 lands at the end of the 4-observation (10, 20] bucket
    assert h.percentile(0.5) == pytest.approx(17.5)
    assert h.percentile(0.0) == 0.0
    assert h.percentile(1.0) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        h.percentile(1.5)


def test_histogram_percentile_edge_cases():
    h = MetricsRegistry().histogram("empty", buckets=(1, 2))
    assert h.percentile(0.5) == 0.0          # no observations
    h.observe(100)                           # overflow bin only
    # The overflow bin interpolates toward the observed max instead of
    # clamping to the last finite bound (the old tail under-report).
    assert h.percentile(1.0) == pytest.approx(100.0)
    assert 2.0 < h.percentile(0.5) < 100.0
    assert h.overflow == 1
    snap = MetricsRegistry()
    snap.merge({"histograms": {
        "empty": {"buckets": [1.0, 2.0], "counts": [0, 0, 1],
                  "sum": 100.0, "count": 1, "max": 100.0}}})
    assert snap.histogram("empty", (1, 2)).percentile(1.0) == \
        pytest.approx(100.0)


# -- thread safety -------------------------------------------------------------


def test_instruments_thread_safe_under_hammer():
    """Concurrent inc/observe from many threads never lose updates."""
    m = MetricsRegistry()
    n_threads, n_iters = 8, 2000
    barrier = threading.Barrier(n_threads)

    def hammer(tid):
        barrier.wait()
        for i in range(n_iters):
            m.counter("hammer.c").inc()
            m.gauge("hammer.g").set(tid)
            m.histogram("hammer.h", buckets=(10, 100)).observe(i % 200)

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = m.as_dict()
    total = n_threads * n_iters
    assert snap["counters"]["hammer.c"] == total
    h = snap["histograms"]["hammer.h"]
    assert h["count"] == total
    assert sum(h["counts"]) == total
    assert snap["gauges"]["hammer.g"] in range(n_threads)


def test_windowed_hammer_is_thread_safe():
    win = WindowedHistogram("w", buckets=(10, 100), window_s=3600.0)
    wc = WindowedCounter("wc", window_s=3600.0)
    n_threads, n_iters = 8, 1000

    def hammer():
        for i in range(n_iters):
            win.observe(i % 200)
            wc.inc()

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert win.count == n_threads * n_iters
    assert wc.total() == n_threads * n_iters


# -- rolling windows -----------------------------------------------------------


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def test_windowed_histogram_forgets_old_traffic():
    clock = FakeClock()
    win = WindowedHistogram("lat", buckets=(10, 100), window_s=60.0,
                            sub_windows=6, clock=clock)
    # a burst of slow traffic now...
    for _ in range(100):
        win.observe(90.0)
    assert win.percentile(0.99) == pytest.approx(90.0, rel=0.2)
    assert win.count == 100
    # ...then fast traffic after the slow burst ages out of the window:
    # the rolling p99 collapses where a cumulative histogram would not.
    cumulative = MetricsRegistry().histogram("lat", buckets=(10, 100))
    for _ in range(100):
        cumulative.observe(90.0)
    clock.t = 120.0
    for _ in range(100):
        win.observe(5.0)
        cumulative.observe(5.0)
    assert win.count == 100                       # old burst expired
    assert win.percentile(0.99) <= 10.0
    assert cumulative.percentile(0.99) > 50.0     # cumulative still polluted
    snap = win.snapshot()
    assert snap["count"] == 100 and snap["window_s"] == 60.0
    assert win.rate() == pytest.approx(100 / 60.0)
    assert win.fraction_over(10.0) == 0.0


def test_windowed_histogram_partial_expiry_and_fraction_over():
    clock = FakeClock()
    win = WindowedHistogram("lat", buckets=(10, 100), window_s=60.0,
                            sub_windows=6, clock=clock)
    win.observe(5.0)
    clock.t = 30.0                                # 3 sub-windows later
    win.observe(500.0)
    assert win.count == 2
    assert win.fraction_over(100.0) == pytest.approx(0.5)
    clock.t = 65.0                                # first slot expired
    assert win.count == 1
    assert win.fraction_over(100.0) == pytest.approx(1.0)
    # overflow tail interpolates to the windowed max, not the last bound
    assert win.percentile(1.0) == pytest.approx(500.0)


def test_windowed_counter_rolls_and_rates():
    clock = FakeClock()
    wc = WindowedCounter("req", window_s=60.0, sub_windows=6, clock=clock)
    wc.inc(30)
    assert wc.total() == 30
    assert wc.rate() == pytest.approx(0.5)
    clock.t = 30.0
    wc.inc(12)
    assert wc.total() == 42
    clock.t = 70.0                                # first tally expired
    assert wc.total() == 12
    clock.t = 200.0                               # everything expired
    assert wc.total() == 0 and wc.rate() == 0.0


def test_windowed_validates_construction():
    with pytest.raises(ValueError):
        WindowedHistogram("w", window_s=0.0)
    with pytest.raises(ValueError):
        WindowedHistogram("w", sub_windows=0)
    with pytest.raises(ValueError):
        WindowedCounter("w", window_s=-1.0)


# -- OpenMetrics exposition ----------------------------------------------------


def test_openmetrics_render_parse_round_trip():
    m = MetricsRegistry()
    m.counter("serve.requests").inc(7)
    m.gauge("serve.qps").set(2.5)
    h = m.histogram("serve.latency_ms", buckets=(1, 10, 100))
    for v in (0.5, 5, 50, 5000):                 # one overflow observation
        h.observe(v)
    text = render_openmetrics(m.as_dict())
    assert check_openmetrics(text) == []
    fams = parse_openmetrics(text)
    assert fams["serve_requests"]["type"] == "counter"
    assert fams["serve_requests"]["samples"] == [
        ("serve_requests_total", {}, 7.0)]
    assert fams["serve_qps"]["samples"] == [("serve_qps", {}, 2.5)]
    lat = fams["serve_latency_ms"]
    assert lat["type"] == "histogram"
    buckets = {labels["le"]: v for name, labels, v in lat["samples"]
               if name.endswith("_bucket")}
    # cumulative buckets with the overflow observation in +Inf only
    assert buckets == {"1": 1.0, "10": 2.0, "100": 3.0, "+Inf": 4.0}
    count = [v for name, _, v in lat["samples"] if name.endswith("_count")]
    assert count == [4.0]


def test_openmetrics_parser_rejects_malformed():
    with pytest.raises(ValueError):
        parse_openmetrics("serve_qps 1.0\n")          # no family, no EOF
    with pytest.raises(ValueError):
        parse_openmetrics("# TYPE x gauge\nx 1\n")    # missing EOF
    with pytest.raises(ValueError):
        parse_openmetrics("# TYPE x gauge\nx 1\n# EOF\nx 2\n")
    assert check_openmetrics("garbage !!\n# EOF\n")   # problems reported
    # a non-cumulative bucket series is flagged
    bad = ("# TYPE h histogram\n"
           'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
           "h_sum 1\nh_count 3\n# EOF\n")
    assert any("cumulative" in p for p in check_openmetrics(bad))


# -- flight recorder -----------------------------------------------------------


def test_flight_recorder_ring_drops_and_schema():
    clock = FakeClock(5.0)
    fr = FlightRecorder(capacity=4, clock=clock)
    for i in range(10):
        fr.record("admit", path=f"/v1/x{i}")
    snap = fr.snapshot()
    assert validate_schema(snap, FLIGHT_SCHEMA) == []
    assert snap["capacity"] == 4
    assert snap["total"] == 10
    assert snap["dropped"] == 6
    assert len(snap["events"]) == 4
    seqs = [e["seq"] for e in snap["events"]]
    assert seqs == [6, 7, 8, 9]                  # oldest first, monotonic
    assert all(e["t_s"] == 5.0 for e in snap["events"])
    assert fr.total == 10 and fr.dropped == 6 and len(fr) == 4
    json.dumps(snap)


def test_flight_snapshot_deterministic_after_strip_timing():
    def run(offset):
        fr = FlightRecorder(capacity=8, clock=FakeClock(offset))
        fr.record("admit", path="/v1/query", method="POST")
        fr.record("flush", node="22nm", n=3)
        fr.record("solve", node="22nm", n=3, ok=True, wall_s=0.01 * offset)
        return fr.snapshot()

    a, b = run(1.0), run(99.0)
    assert a != b                                 # timing differs...
    assert strip_timing(a) == strip_timing(b)     # ...but the story matches


def test_noop_flight_records_nothing():
    assert not NOOP_FLIGHT.enabled
    NOOP_FLIGHT.record("admit", path="/x")
    snap = NOOP_FLIGHT.snapshot()
    assert snap["total"] == 0 and snap["events"] == []
    assert snap["capacity"] == 0
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_manifest_attaches_flight_snapshot():
    fr = FlightRecorder(capacity=4, clock=FakeClock())
    fr.record("admit", path="/v1/query")
    state = {"path": "/tmp/q.json", "entries": 0, "bytes": 0}
    m = build_manifest(
        targets=["serve"], fast=False, jobs=1, root_seed=0,
        profiler=Profiler(), metrics=MetricsRegistry(),
        cache_before=state, cache_after=state, elapsed_wall_s=0.1,
        flight=fr.snapshot())
    assert validate_schema(m, MANIFEST_SCHEMA) == []
    assert m["flight"]["events"][0]["kind"] == "admit"
    assert "t_s" not in strip_timing(m)["flight"]["events"][0]
    # manifests without a flight section stay valid (and omit the key)
    assert "flight" not in _tiny_manifest()


# -- distributed trace context -------------------------------------------------


def test_tracer_ctx_override_links_and_add_span():
    t = Tracer(trace_id="server-own")
    with t.span("serve.request", ctx=("client-trace", "c.1"), path="/x"):
        assert t.current_trace_id() == "client-trace"
        inner_parent = t.current_span()
        with t.span("serve.solve"):
            pass
    batch_id = t.new_span_id()
    t.add_span("serve.batch", ctx=("client-trace", "c.1"),
               span_id=batch_id, dur_s=0.5,
               links=[{"trace_id": "client-trace", "span_id": "c.1"}], n=3)
    solve, request, batch = t.events()
    assert request["args"]["trace_id"] == "client-trace"
    assert request["args"]["parent_id"] == "c.1"
    assert solve["args"]["trace_id"] == "client-trace"
    assert solve["args"]["parent_id"] == inner_parent
    assert batch["args"]["span_id"] == batch_id
    assert batch["args"]["links"] == [
        {"trace_id": "client-trace", "span_id": "c.1"}]
    assert batch["dur"] == pytest.approx(0.5e6)   # Chrome traces use µs
    # outside any span the tracer reverts to its own identity
    assert t.current_trace_id() == "server-own"


def test_tracer_isolates_span_stacks_across_threads():
    """Ancestry is per-thread: a solver-thread span never parents under
    a request span that happens to be open on the event loop."""
    t = Tracer(trace_id="t1")
    ready, release = threading.Event(), threading.Event()
    thread_parent = []

    def worker():
        with t.span("solver.side"):
            thread_parent.append(t.current_span())
            ready.set()
            release.wait(5)

    with t.span("loop.side"):
        loop_span = t.current_span()
        th = threading.Thread(target=worker)
        th.start()
        assert ready.wait(5)
        # the loop thread still sees its own span, not the worker's
        assert t.current_span() == loop_span
        release.set()
        th.join(5)
    solver = next(e for e in t.events() if e["name"] == "solver.side")
    assert "parent_id" not in solver["args"] or \
        solver["args"]["parent_id"] != loop_span


def test_worker_context_joins_adopted_trace():
    """Dispatched inside a remote-ctx span, workers join *that* trace."""
    obs = build_obs(trace=True, metrics=True)
    with obs.tracer.span("serve.solve", ctx=("client-trace", "c.9")):
        ctx = obs.worker_context("solver")
    assert ctx["trace_id"] == "client-trace"
    worker = Observability.for_worker(ctx)
    with worker.tracer.span("shard"):
        pass
    assert worker.tracer.events()[0]["args"]["trace_id"] == "client-trace"
