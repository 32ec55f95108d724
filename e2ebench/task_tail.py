"""``tail_signoff``: one 99.99 % importance-sampled estimate, twice.

Two program processes, each with a fresh cache directory, call
``VariationAnalyzer.chip_tail_quantile`` with the same seeded node and root
seed; the Monte-Carlo kernels and the shift search do nearly all the work,
while the analytic solver, the quantile cache and the server do none.  The
second process must repeat the estimate bit for bit, and then re-asks it
on fresh analyzers, which the filled cache directory answers (the warm
answers).
"""

from __future__ import annotations

import json

import checks
import common
import inputs as gen
import tracing

ROOTS = ("phase.setup", "phase.estimate")

_OUTPUTS = ("value", "ess", "weight_max_ratio", "rounds", "shift",
            "proposal")


def plan(seed: int, repro) -> dict:
    return gen.tail_inputs(seed, repro.available_technologies())


def probe(plan: dict, work: common.WorkDir) -> float:
    return common.setup_probe("tail", plan, work)


def run(plan: dict, work: common.WorkDir, trace: bool) -> dict:
    in_path = work.fresh("tail-in") / "inputs.json"
    gen.dump(plan, in_path)
    reports = []
    spans = []
    for warm in (0, plan["warm_asks"]):
        out = work.path / f"tail-{len(reports)}.json"
        args = ["tail", "--warm", warm, "--inputs", in_path]
        if trace:
            spans.append(work.path / f"tail-{len(reports)}-spans.json")
            args += ["--spans", spans[-1]]
        reports.append(common.run_program(args, work.fresh("tail-cache"),
                                          out))
    warm = reports[1]["warm"]
    answers = len(reports) + len(warm)
    result = {
        "setups": [r["setup_s"] for r in reports],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "cold_s": common.median(r["phases"]["estimate"] for r in reports),
        "warm_s": common.median(w["wall_s"] for w in warm),
        "cpu_s": (sum(r["cpu"]["estimate"] for r in reports)
                  + reports[1]["cpu"]["warm"]) / answers,
        "cost_s": sum(r["phases"]["setup"] + r["phases"]["estimate"]
                      for r in reports),
        "details": {},
        "attempted": answers,
        "failed": 0,
        "reports": reports,
    }
    if trace:
        result["spans"] = [json.loads(p.read_text()) for p in spans]
    return result


def outputs(report: dict) -> dict:
    return {k: common.floats(report[k]) for k in _OUTPUTS}


def check(plan: dict, result: dict, ref) -> tuple:
    first, repeat = (outputs(r) for r in result["reports"])
    analytic = ref.tail(plan["node"], plan["vdd"], plan["q"], plan["arch"])
    fails = checks.tail(first, repeat, analytic, plan["n_samples"])
    for warm in result["reports"][1]["warm"]:
        fails += checks.bit_equal("tail warm answer", outputs(warm), repeat)
    return fails, {}


def layers(result: dict) -> tuple:
    table = tracing.merge_tables(
        [tracing.layer_table(s, ROOTS) for s in result["spans"]])
    metrics = tracing.layer_metrics(table, n_processes=len(result["spans"]))
    first = outputs(result["reports"][0])
    metrics["tail.shift_rounds"] = first["rounds"]
    metrics["tail.ess"] = first["ess"]
    return metrics, table
