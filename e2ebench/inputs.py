"""Seeded inputs for the three workloads.

Each generator is a pure function of ``seed`` (and of the node list and
nominal supplies the program reports).  The seed moves every voltage, and
with it every cache key, but never the amount of work: point counts,
request counts and slice sizes are the same for every seed, because cache
writes cost in proportion to what was written before them.
"""

from __future__ import annotations

import json

import numpy as np

#: Paper-scale sweep: 0.45 V up to nominal, 2.5 mV apart, three spare
#: budgets and two sign-off quantiles per voltage.
SWEEP_LOW_V = 0.45
SWEEP_STEP_V = 0.0025
SWEEP_SPARES = (0, 2, 8)
SWEEP_QS = (0.99, 0.999)

#: Design flow: spares, margins and clock periods (Tables 1, 2, 4) at three
#: of the tables' voltages, Table 3's optimiser at the middle one, each
#: moved by a seeded offset of up to +-5 mV.
DESIGN_VOLTAGES = (0.50, 0.60, 0.70)
COMBINATION_VOLTAGES = (0.60,)
DESIGN_JITTER_V = 0.005

#: Sweep points re-solved by the scalar reference solver per run.
SWEEP_CHECK_POINTS = 6

#: Served stream (one server instance).  The fixed arrival rate keeps the
#: solver thread about 30 % busy on a loaded 2-core host (15 % on an idle
#: one); nearer half capacity the latency medians swung with every change
#: in host speed.
SERVE_RATE_PER_S = 35.0
SERVE_HOT = 500
SERVE_COLD_SINGLE = 400
SERVE_COLD_SLICE = 100
SERVE_SLICE_SIZES = tuple(range(8, 17))
SERVE_HOT_SET = 16
SERVE_CHECK_REQUESTS = 6
SERVE_LIBRARY_REQUESTS = 24

#: Tail sign-off: the ``tail`` experiment's reduced architecture.
TAIL_VDD = 0.55
TAIL_Q = 0.9999
TAIL_ARCH = {"width": 32, "paths_per_lane": 20, "chain_length": 30}
TAIL_SAMPLES = 4096
TAIL_PILOT = 512
TAIL_ROUNDS = 5
#: Times the repeat process re-asks its estimate of fresh analyzers, each
#: answered from the filled cache directory, spread over ~3 s so the
#: median does not hang on one moment of the host.
TAIL_WARM_ASKS = 15
TAIL_WARM_PAUSE_S = 0.2

_TAGS = {"signoff": 0x51, "serve": 0x52, "tail": 0x53}


def _rng(task: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[task], int(seed)])


def _voltage(v: float) -> float:
    """Round to the 1e-9 V grid the program keys its caches on."""
    return round(float(v), 9)


def sweep_voltages(nominal: float, phase: float) -> list:
    """``0.45 V + phase`` up to (not including) ``nominal``, 2.5 mV apart.

    ``phase`` lies strictly inside one step, so the count is the same
    for every phase.
    """
    count = int(round((nominal - SWEEP_LOW_V) / SWEEP_STEP_V))
    return [_voltage(SWEEP_LOW_V + phase + k * SWEEP_STEP_V)
            for k in range(count)]


def _combos() -> list:
    return [(float(s), q) for s in SWEEP_SPARES for q in SWEEP_QS]


def signoff_inputs(seed: int, nominal: dict) -> dict:
    """Sweep columns, design-flow voltages and the checked sample.

    Per node and ``(spares, q)`` one column of the 2.5 mV sweep from
    0.45 V to nominal, shifted by a seeded sub-step phase.
    """
    rng = _rng("signoff", seed)
    columns = []
    design = {}
    for node in sorted(nominal):
        phase = SWEEP_STEP_V * (0.05 + 0.9 * rng.random())
        vdds = sweep_voltages(nominal[node], phase)
        for spares, q in _combos():
            columns.append({"node": node, "vdd": vdds,
                            "spares": [spares] * len(vdds),
                            "q": [q] * len(vdds)})
        jitter = rng.uniform(-DESIGN_JITTER_V, DESIGN_JITTER_V,
                             len(DESIGN_VOLTAGES))
        design[node] = {
            "voltages": [_voltage(v + j)
                         for v, j in zip(DESIGN_VOLTAGES, jitter)],
            "combination": [_voltage(v + j) for v, j in
                            zip(DESIGN_VOLTAGES, jitter)
                            if v in COMBINATION_VOLTAGES],
        }
    sizes = [len(c["vdd"]) for c in columns]
    flat = rng.choice(sum(sizes), SWEEP_CHECK_POINTS, replace=False)
    offsets = np.cumsum([0] + sizes)
    sample = []
    for i in sorted(int(x) for x in flat):
        col = int(np.searchsorted(offsets, i, side="right") - 1)
        sample.append([col, i - int(offsets[col])])
    return {"seed": int(seed), "columns": columns, "design": design,
            "check_sample": sample}


def _request(kind: str, node: str, points) -> dict:
    """One request over ``points`` (``(vdd, spares, q)`` triples)."""
    if kind == "slice":
        path = "/v1/chip_quantile_batch"
        body = {"node": node, "vdd": [p[0] for p in points],
                "spares": [p[1] for p in points],
                "q": [p[2] for p in points]}
    else:
        path = "/v1/chip_quantile"
        (vdd, spares, q), = points
        body = {"node": node, "vdd": vdd, "spares": spares, "q": q}
    return {"kind": kind, "path": path, "body": body,
            "points": [[node, *p] for p in points]}


def serve_inputs(seed: int, nominal: dict) -> dict:
    """Warm-up hot sets plus one seeded open-loop request stream.

    Hot requests repeat a hot-set point (a memo hit once warmed up).  Cold
    singles and 8-16-point sweep slices (one ``(spares, q)``, 2.5 mV
    apart) use points that no other request of the stream uses, so each is
    solved exactly once.
    """
    rng = _rng("serve", seed)
    nodes = sorted(nominal)
    used = set()

    def draw(node, n):
        top = nominal[node] - 0.01 - n * SWEEP_STEP_V
        while True:
            spares, q = _combos()[int(rng.integers(len(_combos())))]
            v0 = SWEEP_LOW_V + (top - SWEEP_LOW_V) * rng.random()
            points = [(_voltage(v0 + k * SWEEP_STEP_V), spares, q)
                      for k in range(n)]
            keys = {(node, *p) for p in points}
            if len(keys) == n and not keys & used:
                used.update(keys)
                return points

    warmup = []
    hot = []
    for node in nodes:
        points = [(v, 0.0, 0.99) for v, _, _ in draw(node, SERVE_HOT_SET)]
        used.update((node, *p) for p in points)
        warmup.append(_request("slice", node, points))
        hot.extend((node, p) for p in points)

    requests = []
    for _ in range(SERVE_HOT):
        node, point = hot[int(rng.integers(len(hot)))]
        requests.append(_request("hot", node, [point]))
    slice_sizes = [SERVE_SLICE_SIZES[i % len(SERVE_SLICE_SIZES)]
                   for i in range(SERVE_COLD_SLICE)]
    for req_kind, sizes in (("single", [1] * SERVE_COLD_SINGLE),
                            ("slice", slice_sizes)):
        for n in sizes:
            node = nodes[int(rng.integers(len(nodes)))]
            requests.append(_request(req_kind, node, draw(node, n)))
    order = rng.permutation(len(requests))
    requests = [requests[i] for i in order]
    gaps = rng.exponential(1.0 / SERVE_RATE_PER_S, len(requests))
    due = np.cumsum(gaps) - gaps[0]
    for req, t in zip(requests, due):
        req["due_s"] = float(t)
    cold = [i for i, r in enumerate(requests) if r["kind"] != "hot"]
    check = sorted(int(i) for i in rng.choice(cold, SERVE_CHECK_REQUESTS,
                                              replace=False))
    library = sorted(int(i) for i in rng.choice(
        cold, SERVE_LIBRARY_REQUESTS, replace=False))
    return {"seed": int(seed), "rate_per_s": SERVE_RATE_PER_S,
            "warmup": warmup,
            "requests": requests, "check_requests": check,
            "library_requests": library}


def tail_inputs(seed: int, nodes) -> dict:
    """Node and root seed of one 99.99 % estimate."""
    rng = _rng("tail", seed)
    nodes = sorted(nodes)
    return {"seed": int(seed), "node": nodes[int(rng.integers(len(nodes)))],
            "root_seed": int(rng.integers(0, 2 ** 31 - 1)),
            "vdd": TAIL_VDD, "q": TAIL_Q, "arch": dict(TAIL_ARCH),
            "n_samples": TAIL_SAMPLES, "n_pilot": TAIL_PILOT,
            "max_rounds": TAIL_ROUNDS, "warm_asks": TAIL_WARM_ASKS,
            "warm_pause_s": TAIL_WARM_PAUSE_S}


def dump(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
