"""End-to-end benchmark of the sign-off library, server and tail estimator.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload signoff_sweep --seed 1 --seconds 10 \\
        --trace 0

Each workload is one user task, run in fresh program processes with fresh
cache directories (see the ``task_*`` modules):

* ``signoff_sweep``: a paper-scale ``chip_quantiles`` grid plus the design
  flow in a cold process, then the same again in a warm process;
* ``serve_stream``: an open-loop request stream against
  ``python -m repro.experiments serve``;
* ``tail_signoff``: one 99.99 % importance-sampled estimate, in two
  processes, then re-asked from the filled cache.

Every workload reports the same end-to-end metrics.  An *answer* is what
the workload's user waits for — a whole sign-off, one HTTP request, one
tail estimate — and it is *cold* when the program computes it afresh and
*warm* when it was computed before:

* ``setup_s``: program launch until ready (analyzers built, or the server
  listening), median of every set-up in the run;
* ``peak_rss_mb``: peak RSS of the largest program process;
* ``cold_s`` / ``warm_s``: median wait for a cold / warm answer (served
  requests timed from their due time);
* ``cpu_s``: program CPU seconds per answer.

A unit of work (a process pair, a server instance, an estimate pair)
repeats until ``--seconds`` have passed (at least once); each metric is the
median over units.  ``--seed`` moves every input but never the amount of
work.  ``--trace 1`` runs one untraced and one traced unit of the same
inputs and reports per-layer metrics instead, with the traced run's
overhead and unattributed share.  Output values are checked in every run;
the last line of stdout is the JSON result.  Exit code 0 means a result was
printed, even when ``correct`` is false.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import common
import task_serve
import task_signoff
import task_tail
import tracing
from reference import Reference

WORKLOADS = {"signoff_sweep": task_signoff, "serve_stream": task_serve,
             "tail_signoff": task_tail}

#: End-to-end metrics -> unit.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "cold_s": "s",
              "warm_s": "s", "cpu_s": "s"}

#: Per-layer metrics (traced run) -> unit.  A layer the workload does not
#: use reads 0.  The ``signoff.*`` and ``serve.p99_ms`` details come from
#: the untraced unit of the traced run.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.engine_build_s": "s",
    "analyzer.self_s": "s",
    "analyzer.memo_hits": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.put_calls": "count",
    "cache.file_mb": "MB",
    "parallel.solve_quantiles_self_s": "s",
    "chip_delay.batch_self_s": "s",
    "chip_delay.scalar_self_s": "s",
    "chip_delay.cdf_s": "s",
    "chip_delay.cdf_calls": "count",
    "chip_delay.kernel_builds": "count",
    "solver.secant_rounds_mean": "rounds",
    "solver.fallbacks": "count",
    "mitigation.self_s": "s",
    "signoff.sweep_pts_per_s": "points/s",
    "signoff.design_flow_s": "s",
    "serve.http_ms": "ms",
    "serve.resolve_ms_p50": "ms",
    "serve.solve_ms_per_point": "ms",
    "serve.cache_put_ms": "ms/batch",
    "serve.solver_busy_share": "ratio",
    "serve.batch_points_mean": "points",
    "serve.memo_hit_share": "ratio",
    "serve.bits_differ_from_library": "count",
    "serve.p99_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "tail.find_shift_s": "s",
    "tail.estimate_self_s": "s",
    "parallel.weighted_self_s": "s",
    "kernels.system_batch_s": "s",
    "kernels.gate_evals_per_s": "evals/s",
    "tail.shift_rounds": "rounds",
    "tail.ess": "samples",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: Set-up-only program processes per unit, so ``setup_s`` is a median over
#: at least five set-ups.
SETUP_PROBES = {"signoff_sweep": 3, "serve_stream": 4, "tail_signoff": 3}


def end_to_end(units: list) -> dict:
    setups = [s for u in units for s in u["setups"] + u["probes"]]
    out = {"setup_s": common.median(setups)}
    for name in ("peak_rss_mb", "cold_s", "warm_s", "cpu_s"):
        out[name] = common.median(u[name] for u in units)
    return out


def per_layer(task, base: dict, traced: dict, extra: dict) -> tuple:
    """Per-layer metrics of a traced unit and its untraced twin."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    layer_values, table = task.layers(traced)
    values.update(layer_values)
    values.update(base["details"])
    values.update(extra)
    # Cost of a unit: wall time for the batch tasks, server CPU for the
    # open-loop stream (whose wall the schedule fixes).
    values["trace.overhead_pct"] = 100.0 * (traced["cost_s"]
                                            / base["cost_s"] - 1.0)
    values["trace.unattributed_pct"] = (100.0 * table["unattributed_s"]
                                        / table["wall_s"])
    return values, table


def _result(correct: bool, attempted: int, failed: int, values: dict,
            units: dict) -> dict:
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                        for k in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    task = WORKLOADS[args.workload]
    # A terminated run still stops its children and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        repro = common.import_program()
        plan = task.plan(args.seed, repro)
        with common.WorkDir(f"{args.workload}-s{args.seed}") as work:
            print(json.dumps({"host": common.host_block(work.path)}))
            began = time.monotonic()
            units = []
            while not units or (not args.trace
                                and time.monotonic() - began < args.seconds):
                unit = task.run(plan, work, trace=False)
                unit["probes"] = [] if args.trace else [
                    task.probe(plan, work)
                    for _ in range(SETUP_PROBES[args.workload])]
                units.append(unit)
            if args.trace:
                units.append(task.run(plan, work, trace=True))
        ref = Reference(repro)
        fails, extra = [], {}
        for unit in units:
            unit_fails, unit_extra = task.check(plan, unit, ref)
            fails += unit_fails
            extra.update(unit_extra)
        for line in fails:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        attempted = sum(u["attempted"] for u in units)
        failed = sum(u["failed"] for u in units)
        if args.trace:
            values, table = per_layer(task, units[0], units[1], extra)
            print(tracing.render_table(args.workload, table, {
                "trace.overhead_pct": values["trace.overhead_pct"],
                "trace.unattributed_pct": values["trace.unattributed_pct"],
                "reconciliation residual s": table["residual_s"]}))
            result = _result(not fails, attempted, failed, values, PER_LAYER)
        else:
            result = _result(not fails, attempted, failed,
                             end_to_end(units), END_TO_END)
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
