"""Timing spans recorded from outside the program.

The traced run wraps public entry points of the program's layers with
:func:`install`; each call becomes a span (name, thread, start, end, parent
span on the same thread, work count).  Spans are kept in memory and written
out when the process ends.  A span's *self* time is its duration minus the
durations of its direct children, which nest strictly inside it on the same
thread.  Coroutines interleave on one thread, so they are recorded as
detached intervals (parent ``-1``) that never enter a self-time tree.

Only this module and its caller know which functions are wrapped; the
program itself is unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import threading
import time

#: Span names -> ``(module, owner, attribute)`` of the wrapped callables.
#: ``owner`` is a class name, or ``None`` for a module-level function.
LAYERS = {
    "setup.engine_build": [("repro.core.analyzer", "VariationAnalyzer",
                            "__init__")],
    "analyzer": [("repro.core.analyzer", "VariationAnalyzer",
                  "chip_quantiles"),
                 ("repro.core.analyzer", "VariationAnalyzer",
                  "chip_quantile"),
                 ("repro.core.analyzer", "VariationAnalyzer",
                  "chip_tail_quantile")],
    "cache.get": [("repro.runtime.cache", "QuantileCache", "get_many")],
    "cache.put": [("repro.runtime.cache", "QuantileCache", "put_many")],
    "parallel.solve_quantiles": [("repro.runtime.parallel",
                                  "ParallelSampler", "solve_quantiles")],
    "parallel.weighted": [("repro.runtime.parallel", "ParallelSampler",
                           "weighted_system_delays")],
    "chip_delay.batch": [("repro.core.chip_delay", "ChipDelayEngine",
                          "chip_quantile_batch")],
    "chip_delay.scalar": [("repro.core.chip_delay", "ChipDelayEngine",
                           "chip_quantile")],
    "chip_delay.cdf": [("repro.core.chip_delay", "ChipDelayEngine",
                        "chip_cdf")],
    "mitigation": [("repro.sparing", None, "solve_spares"),
                   ("repro.mitigation", None, "solve_voltage_margin"),
                   ("repro.mitigation", None, "optimize_combination"),
                   ("repro.mitigation.frequency_margin", None,
                    "solve_frequency_margins")],
    "tail.find_shift": [("repro.core.tailsampling", "TailSampler",
                         "find_shift")],
    "tail.estimate": [("repro.core.tailsampling", "TailSampler",
                       "tail_quantile")],
    "kernels.system_batch": [("repro.core.kernels", "MonteCarloKernel",
                              "system_batch")],
    "serve.resolve": [("repro.serve.dispatcher", "MicroBatchDispatcher",
                       "resolve")],
}


def _gate_evals(self, rngs, vdd, n_lanes, paths_per_lane, chain_length,
                *args, **kwargs) -> float:
    """Work of one ``MonteCarloKernel.system_batch`` call, in gate delays."""
    return float(len(rngs) * n_lanes * paths_per_lane * chain_length)


def _points(self, vdd, *args, **kwargs) -> float:
    """Query points of one ``VariationAnalyzer.chip_quantiles`` call."""
    import numpy as np
    spares = args[0] if args else kwargs.get("spares", 0)
    return float(np.broadcast(np.asarray(vdd), np.asarray(spares)).size)


#: Optional work counters, keyed by wrapped attribute.
WORK = {"system_batch": _gate_evals, "chip_quantiles": _points}


class Recorder:
    """In-memory span store; one span stack per thread."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: list = []       # [name, thread, start, end, parent, work]
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, work: float = 0.0) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, threading.get_ident(), self.clock(),
                               None, parent, float(work)])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, work: float = 0.0):
        """Record the block as one nested span."""
        idx = self.begin(name, work)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished, detached span."""
        with self._lock:
            self.spans.append([name, threading.get_ident(), start, end, -1,
                               0.0])

    def dump(self, path) -> None:
        """Write every span; one still open ends now."""
        now = self.clock()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s if s[3] is not None else [*s[:3], now, *s[4:]]
                       for s in self.spans], fh)


def _wrap(recorder: Recorder, name: str, fn, work):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def detached(*args, **kwargs):
            start = recorder.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.add(name, start, recorder.clock())
        return detached

    @functools.wraps(fn)
    def nested(*args, **kwargs):
        idx = recorder.begin(name, work(*args, **kwargs) if work else 0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(idx)
    return nested


def install(recorder: Recorder, names=None) -> None:
    """Wrap the callables of ``LAYERS`` (or of the listed span names)."""
    for name, targets in LAYERS.items():
        if names is not None and name not in names:
            continue
        for module_name, owner_name, attr in targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module,
                                                              owner_name)
            setattr(owner, attr, _wrap(recorder, name, getattr(owner, attr),
                                       WORK.get(attr)))


# -- arithmetic over recorded spans -------------------------------------------


def self_times(spans) -> list:
    """Self time of every span: duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_, _, start, end, _, _) in enumerate(spans)]


def layer_table(spans, roots) -> dict:
    """Per-name ``{self_s, calls, work}`` plus reconciliation.

    ``roots`` names the spans that make up the traced wall (the task's
    phases, never nested in each other).  Their own self time is the
    wall no layer span covers, reported as ``unattributed_s``; spans
    outside every root (detached ones included) are left out.  By
    construction the layer self times plus ``unattributed_s`` equal the
    wall, up to rounding.
    """
    selfs = self_times(spans)
    root_idx = {i for i, s in enumerate(spans) if s[0] in roots}
    inside = set(root_idx)
    for i, span in enumerate(spans):
        if span[4] in inside:
            inside.add(i)
    layers: dict = {}
    wall = unattributed = 0.0
    for i, (name, _, start, end, parent, work) in enumerate(spans):
        if i in root_idx:
            wall += end - start
            unattributed += selfs[i]
            continue
        if i not in inside:
            continue
        rec = layers.setdefault(name, {"self_s": 0.0, "calls": 0,
                                       "work": 0.0})
        rec["self_s"] += selfs[i]
        rec["calls"] += 1
        rec["work"] += work
    attributed = sum(r["self_s"] for r in layers.values())
    return {"layers": layers, "wall_s": wall,
            "unattributed_s": unattributed,
            "residual_s": wall - attributed - unattributed}


def merge_tables(tables) -> dict:
    """Sum several :func:`layer_table` results (one per process)."""
    merged: dict = {"layers": {}, "wall_s": 0.0, "unattributed_s": 0.0,
                    "residual_s": 0.0}
    for table in tables:
        for key in ("wall_s", "unattributed_s", "residual_s"):
            merged[key] += table[key]
        for name, rec in table["layers"].items():
            acc = merged["layers"].setdefault(
                name, {"self_s": 0.0, "calls": 0, "work": 0.0})
            for key in acc:
                acc[key] += rec[key]
    return merged


#: Per-layer metrics read off a layer table: metric -> (span, field).
#: Times are totals over the run's traced processes, except the set-up
#: spans, which are per process.
SPAN_METRICS = {
    "setup.import_s": ("setup.import", "self_s"),
    "setup.engine_build_s": ("setup.engine_build", "self_s"),
    "analyzer.self_s": ("analyzer", "self_s"),
    "cache.get_s": ("cache.get", "self_s"),
    "cache.put_s": ("cache.put", "self_s"),
    "cache.put_calls": ("cache.put", "calls"),
    "parallel.solve_quantiles_self_s": ("parallel.solve_quantiles",
                                        "self_s"),
    "parallel.weighted_self_s": ("parallel.weighted", "self_s"),
    "chip_delay.batch_self_s": ("chip_delay.batch", "self_s"),
    "chip_delay.scalar_self_s": ("chip_delay.scalar", "self_s"),
    "chip_delay.cdf_s": ("chip_delay.cdf", "self_s"),
    "chip_delay.cdf_calls": ("chip_delay.cdf", "calls"),
    "mitigation.self_s": ("mitigation", "self_s"),
    "tail.find_shift_s": ("tail.find_shift", "self_s"),
    "tail.estimate_self_s": ("tail.estimate", "self_s"),
    "kernels.system_batch_s": ("kernels.system_batch", "self_s"),
}


def layer_metrics(table: dict, n_processes: int = 1) -> dict:
    """The :data:`SPAN_METRICS` of a (merged) layer table, 0 when unused."""
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        value = table["layers"].get(span, {}).get(field, 0)
        if span.startswith("setup."):
            value /= n_processes
        out[metric] = value
    kernel = table["layers"].get("kernels.system_batch")
    out["kernels.gate_evals_per_s"] = (kernel["work"] / kernel["self_s"]
                                       if kernel and kernel["self_s"]
                                       else 0.0)
    return out


def render_table(title: str, table: dict, extra: dict) -> str:
    """Aligned per-layer table for the benchmark's log."""
    wall = table["wall_s"] or float("nan")
    lines = [f"{title}: traced wall {wall:.3f} s", f"  {'layer':<26s}"
             f"{'self s':>10s}{'share %':>9s}{'calls':>9s}"]
    for name, rec in sorted(table["layers"].items(),
                            key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<26s}{rec['self_s']:10.3f}"
                     f"{100 * rec['self_s'] / wall:9.1f}{rec['calls']:9d}")
    lines.append(f"  {'(unattributed)':<26s}{table['unattributed_s']:10.3f}"
                 f"{100 * table['unattributed_s'] / wall:9.1f}")
    for key, value in extra.items():
        lines.append(f"  {key} = {value:.3f}")
    return "\n".join(lines)
