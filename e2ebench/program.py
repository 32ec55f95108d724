"""One program process of the benchmark: a user's task through the public API.

Run by the benchmark, never by hand::

    python e2ebench/program.py signoff --phase cold|warm|setup \
        [--repeat N] --inputs IN --out OUT [--spans FILE]
    python e2ebench/program.py tail [--phase setup] [--warm N] \
        --inputs IN --out OUT [--spans FILE]

The process sets up like the CLI does (``build_runtime()`` activated,
``jobs=1``, metrics registry off unless traced), reports when it is ready,
runs its phases and writes a JSON report with phase wall and CPU times,
every output value (floats as ``float.hex``) and its own peak RSS.
``--phase setup`` stops once ready (a set-up sample).  With
``--spans`` the layer wrappers of :mod:`tracing` are installed first and the
spans are written out at exit.
"""

import time

T0 = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402


def _hex(x) -> str:
    return float(x).hex()


class Phases:
    """Phase wall and CPU times, and root spans when traced."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.walls: dict = {}
        self.cpu: dict = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        span = (self.recorder.span(f"phase.{name}") if self.recorder
                else contextlib.nullcontext())
        start, cpu = time.monotonic(), time.process_time()
        with span:
            yield
        self.walls[name] = time.monotonic() - start
        self.cpu[name] = time.process_time() - cpu


def _setup(args, phases: Phases):
    """Import the program and activate the CLI's default runtime."""
    recorder = phases.recorder
    # The setup phase starts at interpreter launch (T0), before any import.
    setup_idx = recorder.begin("phase.setup") if recorder else None
    if recorder:
        recorder.spans[setup_idx][2] = T0
    with (recorder.span("setup.import") if recorder
          else contextlib.nullcontext()):
        import repro  # noqa: F401
        from repro.runtime import activate_runtime, build_runtime
    if recorder:
        # The dispatcher lives in the server; importing it here would only
        # add to the traced set-up.
        tracing.install(recorder, set(tracing.LAYERS) - {"serve.resolve"})
    runtime = build_runtime(jobs=1, metrics=bool(recorder))
    stack = contextlib.ExitStack()
    stack.enter_context(activate_runtime(runtime))
    stack.callback(runtime.close)
    return runtime, stack, setup_idx


def _finish_setup(phases: Phases, setup_idx) -> float:
    ready = time.monotonic()
    if phases.recorder:
        phases.recorder.end(setup_idx)
    phases.walls["setup"] = ready - T0
    return ready


def _signoff(args, inputs: dict, phases: Phases) -> dict:
    runtime, stack, setup_idx = _setup(args, phases)
    import numpy as np

    from repro import VariationAnalyzer, mitigation, sparing
    from repro.mitigation import frequency_margin

    def analyzers():
        return {node: VariationAnalyzer(node)
                for node in sorted(inputs["design"])}

    def sweep(an):
        return [an[c["node"]].chip_quantiles(
            np.asarray(c["vdd"]), np.asarray(c["spares"]),
            np.asarray(c["q"])) for c in inputs["columns"]]

    def design_flow(an):
        design = {}
        for node, plan in sorted(inputs["design"].items()):
            a = an[node]
            design[node] = {
                "spares": [sparing.solve_spares(a, v)
                           for v in plan["voltages"]],
                "margins": [mitigation.solve_voltage_margin(a, v)
                            for v in plan["voltages"]],
                "combinations": [mitigation.optimize_combination(a, v)
                                 for v in plan["combination"]],
                "frequency": frequency_margin.solve_frequency_margins(
                    a, plan["voltages"])}
        return design

    with stack:
        an = analyzers()
        ready = _finish_setup(phases, setup_idx)
        if args.phase == "setup":
            return {"ready_mono": ready}
        with phases.phase("sweep"):
            values = sweep(an)
        with phases.phase("design_flow"):
            design = design_flow(an)
        nominal = {node: _hex(a.chip_quantile(a.nominal_vdd))
                   for node, a in an.items()}
        # Further re-runs on fresh analyzers (empty memo, cache file read
        # again), so a warm figure is a median, not one 0.1 s sample.
        repeats = []
        for _ in range(args.repeat - 1):
            fresh = analyzers()
            start = time.monotonic()
            sweep(fresh)
            design_flow(fresh)
            repeats.append(time.monotonic() - start)
        metrics = runtime.obs.metrics.as_dict() if phases.recorder else None
    return {
        "ready_mono": ready,
        "repeats": repeats,
        "sweep": [[_hex(v) for v in col] for col in values],
        "design": {node: {
            "spares": [{"vdd": s.vdd, "spares": s.spares,
                        "feasible": s.feasible, "max_spares": s.max_spares,
                        "target_delay": _hex(s.target_delay),
                        "achieved_delay": _hex(s.achieved_delay)}
                       for s in d["spares"]],
            "margins": [{"vdd": m.vdd, "margin": _hex(m.margin),
                         "feasible": m.feasible,
                         "target_delay": _hex(m.target_delay),
                         "achieved_delay": _hex(m.achieved_delay)}
                        for m in d["margins"]],
            "combinations": [{"vdd": c.vdd, "spares": c.spares,
                              "margin": _hex(c.margin),
                              "feasible": c.feasible,
                              "power_overhead": _hex(c.power_overhead)}
                             for c in d["combinations"]],
            "frequency": [{"vdd": f.vdd, "t_clk": _hex(f.t_clk),
                           "t_va_clk": _hex(f.t_va_clk)}
                          for f in d["frequency"]]}
            for node, d in design.items()},
        "nominal": nominal,
        "metrics": metrics,
    }


def _tail_outputs(est) -> dict:
    return {"value": _hex(est.value), "ess": _hex(est.ess),
            "weight_max_ratio": _hex(est.weight_max_ratio),
            "rounds": est.shift_search_rounds,
            "shift": _hex(est.proposal.d2d_shifts[0]),
            "proposal": est.proposal.fingerprint()}


def _tail(args, inputs: dict, phases: Phases) -> dict:
    runtime, stack, setup_idx = _setup(args, phases)
    from repro import VariationAnalyzer

    def ask():
        return VariationAnalyzer(inputs["node"], **inputs["arch"]) \
            .chip_tail_quantile(
                inputs["vdd"], inputs["q"], n_samples=inputs["n_samples"],
                root_seed=inputs["root_seed"], n_pilot=inputs["n_pilot"],
                max_rounds=inputs["max_rounds"])

    with stack:
        VariationAnalyzer(inputs["node"], **inputs["arch"])
        ready = _finish_setup(phases, setup_idx)
        if args.phase == "setup":
            return {"ready_mono": ready}
        with phases.phase("estimate"):
            est = ask()
        # Re-asking on a fresh analyzer misses the in-process memo, so the
        # answer comes from the cache directory the estimate just filled.
        warm = []
        with phases.phase("warm"):
            for _ in range(args.warm):
                time.sleep(inputs["warm_pause_s"])
                start = time.monotonic()
                warm.append(_tail_outputs(ask()))
                warm[-1]["wall_s"] = time.monotonic() - start
        metrics = runtime.obs.metrics.as_dict() if phases.recorder else None
    return dict(_tail_outputs(est), ready_mono=ready, warm=warm,
                metrics=metrics)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("task", choices=("signoff", "tail"))
    parser.add_argument("--phase", default="cold")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--warm", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    phases = Phases(tracing.Recorder() if args.spans else None)
    task = _signoff if args.task == "signoff" else _tail
    report = task(args, inputs, phases)
    report["t0_mono"] = T0
    report["phases"] = phases.walls
    report["cpu"] = phases.cpu
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.spans:
        phases.recorder.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
