"""``signoff_sweep``: a cold process, then a warm one over its cache.

The first program process solves the paper-scale grid through
``VariationAnalyzer.chip_quantiles`` and then the design flow on the same
analyzers and cache; the second re-runs both over the filled cache
directory.  The analytic solver and the persistent cache do nearly all the
work; no HTTP or Monte-Carlo kernel code runs.  The sign-off (sweep plus
design flow) is the answer the user waits for: cold in the first process,
warm in the second.
"""

from __future__ import annotations

import json

import checks
import common
import inputs as gen
import tracing

#: Root spans of a traced sign-off process (together: its traced wall).
ROOTS = ("phase.setup", "phase.sweep", "phase.design_flow")

_TIMED = ("sweep", "design_flow")

#: Warm re-runs per untraced warm process (``warm_s`` is their median).
#: One takes ~0.1 s; 25 span a few seconds, so the median does not hang on
#: one moment of the host.
WARM_REPEATS = 25


def plan(seed: int, repro) -> dict:
    nominal = {n: repro.get_technology(n).nominal_vdd
               for n in repro.available_technologies()}
    return gen.signoff_inputs(seed, nominal)


def probe(plan: dict, work: common.WorkDir) -> float:
    return common.setup_probe("signoff", plan, work)


def run(plan: dict, work: common.WorkDir, trace: bool) -> dict:
    """One cold + warm pair -> measurements, outputs and (traced) spans."""
    in_path = work.fresh("signoff-in") / "inputs.json"
    gen.dump(plan, in_path)
    cache = work.fresh("signoff-cache")
    reports = {}
    spans = {}
    for phase in ("cold", "warm"):
        out = work.path / f"signoff-{phase}.json"
        args = ["signoff", "--phase", phase, "--inputs", in_path]
        if phase == "warm" and not trace:
            args += ["--repeat", WARM_REPEATS]
        if trace:
            spans[phase] = work.path / f"signoff-{phase}-spans.json"
            args += ["--spans", spans[phase]]
        reports[phase] = common.run_program(args, cache, out)
        if phase == "cold":
            cache_mb = (cache / "quantiles.json").stat().st_size / 2 ** 20
    cold, warm = reports["cold"], reports["warm"]
    points = sum(len(c["vdd"]) for c in plan["columns"])
    solutions = sum(len(d[k]) for d in cold["design"].values() for k in d)
    result = {
        "setups": [cold["setup_s"], warm["setup_s"]],
        "peak_rss_mb": max(cold["peak_rss_mb"], warm["peak_rss_mb"]),
        "cold_s": sum(cold["phases"][p] for p in _TIMED),
        "warm_s": common.median(
            [sum(warm["phases"][p] for p in _TIMED)] + warm["repeats"]),
        "cpu_s": sum(r["cpu"][p] for r in reports.values()
                     for p in _TIMED) / 2,
        "cost_s": sum(r["phases"][p] for r in reports.values()
                      for p in ("setup",) + _TIMED),
        "details": {"signoff.sweep_pts_per_s":
                    points / cold["phases"]["sweep"],
                    "signoff.design_flow_s": cold["phases"]["design_flow"]},
        "attempted": 2 * (points + solutions),
        "failed": 0,
        "cache_mb": cache_mb,
        "cold": cold, "warm": warm,
    }
    if trace:
        result["spans"] = {p: json.loads(path.read_text())
                           for p, path in spans.items()}
    return result


def check(plan: dict, result: dict, ref) -> tuple:
    """Every output check of one pair -> ``(failures, {})``."""
    cold, warm = result["cold"], result["warm"]
    fails = checks.bit_equal(
        "signoff warm vs cold", [cold["sweep"], cold["design"],
                                 cold["nominal"]],
        [warm["sweep"], warm["design"], warm["nominal"]])
    sweep = common.floats(cold["sweep"])
    fails += checks.finite_positive(
        "signoff sweep", [v for col in sweep for v in col])
    cols = plan["columns"]
    sample = []
    for c, i in plan["check_sample"]:
        node, v = cols[c]["node"], cols[c]["vdd"][i]
        sp, q = cols[c]["spares"][i], cols[c]["q"][i]
        sample.append((f"{node}@{v}V s{sp} q{q}", sweep[c][i],
                       ref(node, v, q, sp)))
    fails += checks.against_reference("signoff sweep sample", sample)
    from repro.devices.paper_anchors import FIG4_PERF_DROP
    nominal = {node: (ref.nominal(node), float.fromhex(h))
               for node, h in cold["nominal"].items()}
    q99 = {}
    for col, values in zip(cols, sweep):
        q99.setdefault(col["node"], []).extend(
            (v, x) for v, sp, q, x in zip(col["vdd"], col["spares"],
                                          col["q"], values)
            if sp == 0.0 and q == 0.99)
    fails += checks.fig4_anchors(q99, nominal, ref.fo4, FIG4_PERF_DROP,
                                 ref)
    for node, d in sorted(common.floats(cold["design"]).items()):
        fails += checks.design_flow(node, d, ref.target, ref, ref.power)
    return fails, {}


def layers(result: dict) -> tuple:
    """Per-layer metrics of a traced pair, and its span table."""
    table = tracing.merge_tables(
        [tracing.layer_table(s, ROOTS) for s in result["spans"].values()])
    counters: dict = {}
    secant = [0.0, 0]
    for phase in result["spans"]:
        snap = result[phase]["metrics"]
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        hist = snap["histograms"].get("solver.secant_rounds")
        if hist:
            secant[0] += hist["sum"]
            secant[1] += hist["count"]
    metrics = tracing.layer_metrics(table, n_processes=len(result["spans"]))
    metrics.update({
        "analyzer.memo_hits": counters.get("analyzer.memo_hits", 0),
        "cache.file_mb": result["cache_mb"],
        "chip_delay.kernel_builds": counters.get("kernel_cache.misses", 0),
        "solver.secant_rounds_mean": (secant[0] / secant[1]
                                      if secant[1] else 0.0),
        "solver.fallbacks": counters.get("solver.chandrupatla_fallback", 0),
    })
    return metrics, table
