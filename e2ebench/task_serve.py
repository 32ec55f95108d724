"""``serve_stream``: one server instance under an open-loop stream.

A fresh ``python -m repro.experiments serve --port 0`` (default flags,
empty cache directory) gets one hot set per node as untimed warm-up, then
the seeded open-loop stream over at most ``nproc`` keep-alive connections,
then SIGTERM, after which it must drain clean.  This loads HTTP and the
protocol, the dispatcher's queue, memo and coalescing, and the small-batch
invariant solve with one cache write per batch; no Monte-Carlo kernel runs.
Each request is an answer: cold requests ask new points, hot ones repeat
a warmed-up point (a memo hit).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import checks
import common
import inputs as gen
import loadgen
import tracing

#: Seconds between opening the connections and the first due time.
_LEAD_S = 0.05


class Server:
    """The server process, its stdout lines and their arrival times."""

    def __init__(self, work: common.WorkDir, spans=None) -> None:
        cache = self.cache = work.fresh("serve-cache")
        if spans is None:
            cmd = [sys.executable, "-m", "repro.experiments"]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "serve_launcher.py"),
                   "--spans", str(spans)]
        cmd += ["serve", "--port", "0"]
        self.lines: list = []
        self._listening = threading.Event()
        self._stderr = open(cache.parent / "serve-stderr.txt", "wb")
        self.spawn = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=common.child_env(cache),
                                     cwd=common.ROOT, stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append((time.monotonic(), line.rstrip("\n")))
            if "listening on" in line:
                self._listening.set()
        self._listening.set()

    def wait_listening(self, timeout: float) -> tuple:
        """``(port, setup seconds)`` once the server said it listens."""
        if not self._listening.wait(timeout):
            raise common.BenchError("server did not start listening")
        for stamp, line in self.lines:
            if "listening on" in line:
                return int(line.rsplit(":", 1)[1]), stamp - self.spawn
        raise common.BenchError("server exited before listening:\n"
                                + self.stderr())

    def stderr(self) -> str:
        self._stderr.flush()
        with open(self._stderr.name, encoding="utf-8",
                  errors="replace") as fh:
            return fh.read()[-4000:]

    def stop(self) -> tuple:
        """SIGTERM, wait for the drain -> ``(exit code, drained clean)``."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            code = self.proc.wait(timeout=common.CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            common.terminate(self.proc)
            code = self.proc.returncode
        finally:
            self._reader.join(timeout=10)
            self._stderr.close()
        clean = any("drained clean=True" in line for _, line in self.lines)
        return code, clean


def plan(seed: int, repro) -> dict:
    nominal = {n: repro.get_technology(n).nominal_vdd
               for n in repro.available_technologies()}
    return gen.serve_inputs(seed, nominal)


def probe(plan: dict, work: common.WorkDir) -> float:
    """Start a server, wait until it listens, stop it -> set-up seconds."""
    server = Server(work)
    try:
        _, setup_s = server.wait_listening(60.0)
    finally:
        code, clean = server.stop()
    if code != 0:
        raise common.BenchError(f"probe server exited {code}:\n"
                                + server.stderr())
    return setup_s


async def _drive(port: int, plan: dict, pid: int, trace: bool) -> dict:
    n_conns = max(1, len(os.sched_getaffinity(0)))
    conns = [loadgen.Connection("127.0.0.1", port) for _ in range(n_conns)]
    try:
        warmup = [await conns[0].request("POST", r["path"], r["body"])
                  for r in plan["warmup"]]
        for conn in conns:
            await conn.request("GET", "/healthz")
        before = (await conns[0].request("GET", "/v1/metrics"))[1] \
            if trace else None
        loop = asyncio.get_running_loop()
        start = loop.time() + _LEAD_S
        cpu0 = common.cpu_seconds(pid)
        responses = await loadgen.run_schedule(conns, plan["requests"],
                                               start)
        end = loop.time()
        cpu1 = common.cpu_seconds(pid)
        after = (await conns[0].request("GET", "/v1/metrics"))[1] \
            if trace else None
    finally:
        for conn in conns:
            await conn.close()
    return {"warmup": warmup, "responses": responses, "start": start,
            "end": end, "cpu_s": cpu1 - cpu0, "metrics": (before, after)}


def run(plan: dict, work: common.WorkDir, trace: bool) -> dict:
    spans_path = work.path / "serve-spans.json" if trace else None
    server = Server(work, spans_path)
    try:
        port, setup_s = server.wait_listening(60.0)
        drive = asyncio.run(_drive(port, plan, server.proc.pid, trace))
        peak_rss = common.peak_rss_mb_of(server.proc.pid)
    finally:
        code, clean = server.stop()
    if code != 0 or not clean:
        raise common.BenchError(f"server exited {code}, drained clean="
                                f"{clean}:\n{server.stderr()}")
    responses = drive["responses"]
    kinds = [q["kind"] for q in plan["requests"]]
    n = len(responses)
    cold = [r.latency_ms for r, k in zip(responses, kinds) if k != "hot"]
    hot = [r.latency_ms for r, k in zip(responses, kinds) if k == "hot"]
    result = {
        "setups": [setup_s],
        "peak_rss_mb": peak_rss,
        "cold_s": 1e-3 * common.nearest_rank(cold, 0.5),
        "warm_s": 1e-3 * common.nearest_rank(hot, 0.5),
        "cpu_s": drive["cpu_s"] / n,
        "cost_s": drive["cpu_s"],
        "details": {"serve.p99_ms": common.nearest_rank(
            [r.latency_ms for r in responses], 0.99, min_beyond=10)},
        "late_p99_ms": common.nearest_rank(
            [r.late_ms for r in responses], 0.99, min_beyond=10),
        "attempted": n,
        "failed": sum(not r.ok for r in responses),
        "cache_mb": (server.cache / "quantiles.json").stat().st_size / 2 ** 20,
        "drive": drive,
    }
    if trace:
        result["spans"] = json.loads(spans_path.read_text())
    return result


def _answers(plan: dict, drive: dict):
    """``(point, hex value)`` of every 2xx answer, warm-up included."""
    pairs = list(zip(plan["warmup"], drive["warmup"]))
    pairs += [(req, (resp.status, resp.payload))
              for req, resp in zip(plan["requests"], drive["responses"])]
    for req, (status, payload) in pairs:
        if 200 <= status < 300:
            for point, value in zip(req["points"], payload["values_hex"]):
                yield tuple(point), value


def check(plan: dict, result: dict, ref) -> tuple:
    """Output checks -> ``(failures, {bits_differ_from_library})``.

    Served bits differ from a plain library call (the solver's roots
    depend on the batch a point is solved in, a known defect), so that is
    counted, never checked.
    """
    answers = list(_answers(plan, result["drive"]))
    fails = checks.served_repeats("serve", answers)
    fails += checks.finite_positive(
        "serve", [float.fromhex(v) for _, v in answers])
    responses = result["drive"]["responses"]
    pairs = []
    for i in plan["check_requests"]:
        resp = responses[i]
        if not resp.ok:
            continue
        for (node, v, sp, q), value in zip(plan["requests"][i]["points"],
                                           resp.payload["values_hex"]):
            pairs.append((f"served {node}@{v}V s{sp} q{q}",
                          float.fromhex(value), ref(node, v, q, sp)))
    fails += checks.against_reference("serve sample", pairs)
    differ = 0
    for i in plan["library_requests"]:
        resp = responses[i]
        if not resp.ok:
            continue
        points = plan["requests"][i]["points"]
        node = points[0][0]
        import numpy as np
        lib = np.atleast_1d(ref.analyzer(node).chip_quantiles(
            np.array([p[1] for p in points]),
            np.array([p[2] for p in points]),
            np.array([p[3] for p in points])))
        differ += sum(float(x).hex() != h
                      for x, h in zip(lib, resp.payload["values_hex"]))
    return fails, {"serve.bits_differ_from_library": differ}


def layers(result: dict) -> tuple:
    """Server-side layer metrics over the timed window.

    The window's reconciliation is on the solver thread, the resource a
    cold request waits for: its layer self times plus its idle time (the
    unattributed part) make up the window.
    """
    drive = result["drive"]
    w0, w1 = drive["start"], drive["end"]
    every = result["spans"]
    spans = [s for s in every if s[2] >= w0 and s[3] <= w1]
    resolve = [1e3 * (s[3] - s[2]) for s in spans if s[0] == "serve.resolve"]
    solves = [s for s in spans if s[0] == "analyzer"]
    solver_thread = solves[0][1] if solves else None
    keep = [i for i, s in enumerate(every) if s[1] == solver_thread
            and s[2] >= w0 and s[3] <= w1]
    # The kept spans re-indexed under one root covering the window; their
    # top-level spans (parent -1) hang off that root.
    new_index = {old: k + 1 for k, old in enumerate(keep)}
    window = [["phase.window", solver_thread, w0, w1, -1, 0.0]]
    window += [[*every[i][:4], new_index.get(every[i][4], 0), every[i][5]]
               for i in keep]
    table = tracing.layer_table(window, ("phase.window",))
    metrics = tracing.layer_metrics(table)
    # Set-up happens before the window: the launcher's import, and the
    # per-node analyzers the warm-up requests create.
    for metric, name in (("setup.import_s", "setup.import"),
                         ("setup.engine_build_s", "setup.engine_build")):
        metrics[metric] = sum(s[3] - s[2] for s in every if s[0] == name)
    busy = sum(s[3] - s[2] for s in solves)
    points = sum(s[5] for s in solves)
    puts = [1e3 * (s[3] - s[2]) for s in window if s[0] == "cache.put"]
    before, after = drive["metrics"]

    def delta(kind, name, field=None):
        a = after[kind].get(name, {} if field else 0)
        b = before[kind].get(name, {} if field else 0)
        return (a.get(field, 0) - b.get(field, 0)) if field else a - b

    latencies = [r.latency_ms for r in drive["responses"] if r.ok]
    batches = delta("histograms", "serve.batch_size", "count")
    rounds = delta("histograms", "solver.secant_rounds", "count")
    metrics.update({
        "analyzer.memo_hits": delta("counters", "analyzer.memo_hits"),
        "cache.file_mb": result["cache_mb"],
        "chip_delay.kernel_builds": delta("counters", "kernel_cache.misses"),
        "solver.secant_rounds_mean": (
            delta("histograms", "solver.secant_rounds", "sum") / rounds
            if rounds else 0.0),
        "solver.fallbacks": delta("counters", "solver.chandrupatla_fallback"),
        "serve.http_ms": common.mean(latencies) - common.mean(resolve),
        "serve.resolve_ms_p50": common.nearest_rank(resolve, 0.5),
        "serve.solve_ms_per_point": 1e3 * busy / points if points else 0.0,
        "serve.cache_put_ms": common.mean(puts) if puts else 0.0,
        "serve.solver_busy_share": busy / (w1 - w0),
        "serve.batch_points_mean": (
            delta("histograms", "serve.batch_size", "sum") / batches
            if batches else 0.0),
        "serve.memo_hit_share": (
            delta("counters", "serve.memo_hits")
            / max(1, delta("counters", "serve.points"))),
        "loadgen.late_p99_ms": result["late_p99_ms"],
    })
    return metrics, table
