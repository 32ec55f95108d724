"""Sharded, process-parallel Monte-Carlo sampling and quantile solving.

The paper's statistics are embarrassingly parallel — chips are iid draws —
so both sampling engines shard perfectly.  :class:`ParallelSampler` splits
a request for ``n`` chips into fixed-size shards, derives one independent
random stream per shard with :meth:`numpy.random.SeedSequence.spawn`, and
fans the shards out over a :class:`concurrent.futures.ProcessPoolExecutor`.
Deterministic sign-off solves shard just as well:
:meth:`ParallelSampler.solve_quantiles` fans fixed-size chunks of
``(vdd, q, spares)`` query points out to the same pool, each worker running
:meth:`~repro.core.chip_delay.ChipDelayEngine.chip_quantile_batch` on its
chunk.

**Reproducibility contract**: the shard plan and every shard's stream
depend only on ``(root_seed, shard_size, n)`` — never on the worker count —
so for a given root seed the concatenated output is *bit-identical* whether
it was computed with ``jobs=1`` (fully in-process) or ``jobs=32``.  The
sharded stream intentionally differs from the legacy single-``Generator``
serial stream: it is a new, self-consistent stream keyed by the root seed.
Quantile chunks likewise depend only on the query order and the chunk
size, never on ``jobs``.

**Observability**: when an :class:`~repro.obs.api.Observability` context is
active, every shard dispatched to the pool carries the parent's
``(trace_id, span id)``; the worker runs its own tracer/metrics, wraps the
shard in a span, and serialises both back with the result (the same
hand-back pattern as :meth:`Profiler.as_dict`).  The parent absorbs the
span batches — Perfetto shows one track per worker pid — folds the metric
snapshots in, and derives a ``sampler.worker_utilization`` gauge from the
shard busy times.  With observability off, tasks carry no context and
workers skip collection entirely.

**Shared-memory transport**: pool results above ``shm_min_bytes`` skip the
pickle round trip.  The parent preallocates one
:class:`multiprocessing.shared_memory.SharedMemory` segment per dispatch,
sized for the whole run, and every shard task carries its slice spec
(segment name, byte offset, length, dtype); workers write their result
arrays straight into the segment and return a tiny marker instead of the
array.  The parent assembles the output from a single view of the segment
and unlinks it in a ``finally`` — crash/hang recovery is unaffected
because re-dispatched shards simply rewrite their slice, and the serial
fallback strips the spec and hands arrays back directly (any shard that
never reported through the segment is patched from its pickled result).
Transported bytes are counted on the ``sampler.shm_bytes`` metric.

**Fault tolerance**: pool dispatch runs under a
:class:`~repro.resilience.policy.RetryPolicy`.  Shards that raise are
retried with exponential backoff (deterministic jitter); a progress
deadline detects hung workers, whose pool is terminated and re-spawned
with the unfinished shards *reassigned* to the fresh workers; a crashed
worker (``BrokenProcessPool``) triggers the same respawn path; and when
respawns are exhausted the dispatcher degrades to in-process serial
execution of the remaining shards.  Because every shard is a pure
function of its task dict (the stream is ``SeedSequence``-derived), a
recovered run is **bit-identical** to a fault-free one regardless of
which worker — or which process — ultimately executes each shard.  Retry
exhaustion raises :class:`~repro.errors.ShardExecutionError` naming the
failed shards.  Every recovery emits ``resilience.*`` counters and fault
ledger events (:func:`repro.resilience.ledger.current_ledger`).

Workers memoise their :class:`~repro.core.chip_delay.ChipDelayEngine`
instances per (card, architecture, quadrature) so the Gauss-Hermite
tabulations are paid once per process, not once per shard.

**Sizing**: ``jobs=None`` means one worker per CPU the process may run
on (its affinity mask, :func:`~repro.core.kernels.usable_cpus`).  Each
worker runs its Monte-Carlo kernel blocks on ``max(1, cpus // jobs)``
threads (:func:`~repro.core.kernels.share_cpus`, the pool initializer),
so process shards and kernel threads never oversubscribe the CPUs.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.chip_delay import ChipDelayEngine
from repro.core.kernels import MonteCarloKernel, share_cpus, usable_cpus
from repro.core.montecarlo import MonteCarloEngine
from repro.errors import ConfigurationError, ShardExecutionError
from repro.obs.api import Observability, activate_obs, current_obs
from repro.resilience.faultlab import active_plan, fire_shard_faults
from repro.resilience.ledger import current_ledger
from repro.resilience.policy import RetryPolicy
from repro.runtime.context import current_runtime

__all__ = ["ParallelSampler", "plan_shards", "shard_seeds",
           "release_worker_workspaces",
           "DEFAULT_SHARD_SIZE", "DEFAULT_QUANTILE_CHUNK",
           "DEFAULT_SHM_MIN_BYTES"]

#: Default chips per shard; part of the reproducibility key.
DEFAULT_SHARD_SIZE = 256

#: Result payloads at least this large ride the shared-memory transport
#: instead of pickle; smaller ones aren't worth a segment's syscalls.
DEFAULT_SHM_MIN_BYTES = 1 << 16

#: Default query points per quantile-solve chunk.  Small enough that a
#: fig4-style per-node sweep (~12 points) still fans out across workers;
#: part of the solve partition (changing it regroups spline clusters and
#: can move results at the solver's ~1e-12 tolerance floor — changing
#: ``jobs`` never does).
DEFAULT_QUANTILE_CHUNK = 8

#: Shard-size histogram bucket bounds (samples per shard).
_SHARD_BUCKETS = (16, 32, 64, 128, 256, 512, 1024, 4096)


def plan_shards(n: int, shard_size: int = DEFAULT_SHARD_SIZE) -> list:
    """Split ``n`` samples into deterministic shard sizes.

    The plan depends only on ``(n, shard_size)`` — the worker count never
    changes what is computed, only where.
    """
    if n < 1:
        raise ConfigurationError(f"sample count must be >= 1, got {n}")
    if shard_size < 1:
        raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
    full, rest = divmod(int(n), int(shard_size))
    return [int(shard_size)] * full + ([rest] if rest else [])


def shard_seeds(root_seed, n_shards: int) -> list:
    """One independent :class:`~numpy.random.SeedSequence` per shard."""
    return np.random.SeedSequence(root_seed).spawn(n_shards)


# -- shared-memory transport --------------------------------------------------


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Attaching registers the segment with the (shared)
    :mod:`multiprocessing.resource_tracker` on Pythons without the
    ``track=`` parameter (< 3.13); the tracker would then unlink the
    parent-owned segment behind the parent's back, and concurrent
    workers registering/unregistering the same name race in the tracker
    process.  Suppress the registration instead (workers execute one
    shard at a time, so the swap is safe).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _shm_write(spec: dict, arr: np.ndarray) -> dict:
    """Write one shard's result into its segment slice; return the marker.

    The numpy view over the segment buffer must be dropped before
    ``close()`` (an exported buffer makes the mmap close raise
    ``BufferError``).
    """
    shm = _attach_shm(spec["name"])
    try:
        view = np.ndarray((spec["n"],), dtype=np.dtype(spec["dtype"]),
                          buffer=shm.buf, offset=spec["offset"])
        view[:] = arr
        del view
    finally:
        shm.close()
    return {"__shm__": int(spec["n"])}


def _is_shm_marker(item) -> bool:
    return isinstance(item, dict) and "__shm__" in item


# -- worker side --------------------------------------------------------------

_WORKER_ENGINES: dict = {}
_WORKER_KERNELS: dict = {}


def _mc_kernel(tech, precision: str,
               block_elems: int | None = None) -> MonteCarloKernel:
    """Per-process Monte-Carlo kernel memo (workspaces amortise across shards)."""
    key = (tech, precision, block_elems)
    kernel = _WORKER_KERNELS.get(key)
    if kernel is None:
        kernel = MonteCarloKernel(tech, precision=precision,
                                  block_elems=block_elems)
        _WORKER_KERNELS[key] = kernel
    return kernel


def release_worker_workspaces() -> int:
    """Drop every memoised kernel's workspaces in this process.

    The kernels stay memoised; only the grow-only evaluation buffers —
    one arena per kernel thread that ran a block, plus the caller's —
    are released, and they regrow on the next shard.  Long-lived
    servers call this when the request queue drains idle, and the
    sampler's serial fallback calls it after each in-process shard, so
    one oversized request does not pin its peak workspace footprint
    forever.  Returns the number of bytes
    freed and zeroes the ``kernels.workspace_bytes`` gauge.
    """
    freed = 0
    for kernel in _WORKER_KERNELS.values():
        freed += kernel.workspace_nbytes
        kernel.release_workspaces()
    if freed:
        current_obs().metrics.gauge("kernels.workspace_bytes").set(0.0)
    return freed


def _chip_engine(tech, width: int, paths_per_lane: int,
                 chain_length: int, quads=None) -> ChipDelayEngine:
    """Per-process engine memo (quadrature tabulations are expensive)."""
    key = (tech, width, paths_per_lane, chain_length, quads)
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        kwargs = {}
        if quads is not None:
            kwargs = dict(quad_within=quads[0], quad_corr_vth=quads[1],
                          quad_corr_mult=quads[2])
        engine = ChipDelayEngine(tech, width=width,
                                 paths_per_lane=paths_per_lane,
                                 chain_length=chain_length, **kwargs)
        _WORKER_ENGINES[key] = engine
    return engine


def _task_attrs(task: dict) -> dict:
    """JSON-safe span attributes describing one shard task."""
    attrs = {"node": task["tech"].name, "shard": task.get("shard", 0),
             "n": task["n"]}
    if "vdd" in task:
        attrs["vdd"] = task["vdd"]
    return attrs


def _run_shard(core, task: dict):
    """Run one shard, honouring the task's serialised obs context.

    With no context attached (observability off, or the shard runs
    in-process where the parent's context is already live) this is a
    plain call.  Otherwise the worker rebuilds a child
    :class:`Observability`, spans the shard, and hands spans + metrics +
    busy time back alongside the result.
    """
    faults = task.get("faults")
    if faults:
        fire_shard_faults(faults, task.get("shard"))
    ctx = task.get("obs")
    shm_spec = task.get("shm")
    if not ctx:
        out = core(task)
        return _shm_write(shm_spec, out) if shm_spec else out
    obs = Observability.for_worker(ctx)
    name = (ctx.get("stage") or "sampler") + ".shard"
    start = time.perf_counter()
    with activate_obs(obs), obs.tracer.span(name, **_task_attrs(task)):
        out = core(task)
        if shm_spec:
            out = _shm_write(shm_spec, out)
    return {"result": out, "obs": obs.export(),
            "busy_s": time.perf_counter() - start}


def _system_delays_core(task: dict) -> np.ndarray:
    """One shard of per-gate Monte-Carlo chip delays."""
    rng = np.random.default_rng(task["seed"])
    kernel = _mc_kernel(task["tech"], task.get("precision", "float64"),
                        task.get("block_elems"))
    engine = MonteCarloEngine(task["tech"], rng=rng, kernel=kernel)
    return engine.system_delays(
        task["vdd"], width=task["width"],
        paths_per_lane=task["paths_per_lane"],
        chain_length=task["chain_length"], n_chips=task["n"],
        spares=task["spares"], batch_size=task["batch_size"])


def _weighted_delays_core(task: dict) -> np.ndarray:
    """One shard of importance-sampled chip delays plus log-weights.

    The transport layout is one flat float64 array per shard —
    ``[delays; logw]``, each half ``task["chips"]`` long — so weights
    ride the existing shared-memory segment next to the delays and the
    whole recovery ladder (retry, respawn, serial fallback) applies
    unchanged.  The driver unpacks the halves by the shard plan.
    """
    from repro.core.tailsampling import ShiftProposal
    rng = np.random.default_rng(task["seed"])
    kernel = _mc_kernel(task["tech"], task.get("precision", "float64"),
                        task.get("block_elems"))
    engine = MonteCarloEngine(task["tech"], rng=rng, kernel=kernel)
    chips = int(task["chips"])
    delays, logw = engine.weighted_system_delays(
        task["vdd"], width=task["width"],
        paths_per_lane=task["paths_per_lane"],
        chain_length=task["chain_length"], n_chips=chips,
        proposal=ShiftProposal.from_dict(task["proposal"]),
        spares=task["spares"], batch_size=task["batch_size"])
    out = np.empty(2 * chips, dtype=np.float64)
    out[:chips] = delays
    out[chips:] = logw
    return out


def _sample_chips_core(task: dict) -> np.ndarray:
    """One shard of analytic chip-delay samples."""
    rng = np.random.default_rng(task["seed"])
    engine = _chip_engine(task["tech"], task["width"],
                          task["paths_per_lane"], task["chain_length"])
    return engine.sample_chips(task["vdd"], task["n"], rng,
                               spares=task["spares"])


def _quantile_chunk_core(task: dict) -> np.ndarray:
    """One chunk of deterministic ``(vdd, q, spares)`` quantile solves."""
    engine = _chip_engine(task["tech"], task["width"],
                          task["paths_per_lane"], task["chain_length"],
                          quads=task.get("quads"))
    return np.atleast_1d(engine.chip_quantile_batch(
        np.asarray(task["vdds"], dtype=float),
        np.asarray(task["qs"], dtype=float),
        np.asarray(task["spares"], dtype=float),
        cluster=task.get("cluster", True)))


def _system_delays_shard(task: dict):
    """Pool entry point for :func:`_system_delays_core` (runs in a worker)."""
    return _run_shard(_system_delays_core, task)


def _weighted_delays_shard(task: dict):
    """Pool entry point for :func:`_weighted_delays_core` (runs in a worker)."""
    return _run_shard(_weighted_delays_core, task)


def _sample_chips_shard(task: dict):
    """Pool entry point for :func:`_sample_chips_core` (runs in a worker)."""
    return _run_shard(_sample_chips_core, task)


def _quantile_chunk_shard(task: dict):
    """Pool entry point for :func:`_quantile_chunk_core` (runs in a worker)."""
    return _run_shard(_quantile_chunk_core, task)


# -- driver side ---------------------------------------------------------------


class ParallelSampler:
    """Shards iid chip sampling and batched solves across a process pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means one per CPU this process may
        run on, ``1`` runs every shard in-process (no pool) while
        keeping the sharded stream.
    shard_size:
        Chips per shard.  Part of the reproducibility key: changing it
        changes the random stream, changing ``jobs`` never does.
    profiler:
        Optional explicit :class:`~repro.runtime.profile.Profiler`; when
        absent, stages are recorded on the active runtime's profiler.
    retry:
        The :class:`~repro.resilience.policy.RetryPolicy` governing shard
        retries, the hung-worker deadline and pool respawns; defaults to
        the standard policy (generous timeout, 2 retries).
    shm_min_bytes:
        Minimum total result payload (bytes) for a pool dispatch to ride
        the shared-memory transport instead of pickle; ``0`` forces
        shared memory for every dispatch (tests), a huge value disables
        it.  Pure transport — results are bit-identical either way.
    """

    def __init__(self, jobs: int | None = None, *,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 profiler=None, retry: RetryPolicy | None = None,
                 shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES) -> None:
        if jobs is None:
            jobs = usable_cpus()
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {shard_size}")
        if shm_min_bytes < 0:
            raise ConfigurationError(
                f"shm_min_bytes must be >= 0, got {shm_min_bytes}")
        self.jobs = int(jobs)
        self.shard_size = int(shard_size)
        self.profiler = profiler
        self.retry = RetryPolicy() if retry is None else retry
        self.shm_min_bytes = int(shm_min_bytes)
        self._executor: ProcessPoolExecutor | None = None

    # -- pool lifecycle ------------------------------------------------------

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=share_cpus,
                initargs=(self.jobs,))
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _kill_pool(self) -> None:
        """Terminate the pool hard — hung or crashed workers included.

        ``shutdown`` alone cannot reclaim a worker stuck in an infinite
        loop, so the watchdog terminates the worker processes directly
        before discarding the executor.
        """
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def __enter__(self) -> "ParallelSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ----------------------------------------------------------

    def _record(self, name: str, wall_s: float, samples: int) -> None:
        profiler = self.profiler
        if profiler is None:
            runtime = current_runtime()
            profiler = runtime.profiler if runtime is not None else None
        if profiler is not None:
            profiler.record(name, wall_s, samples)

    def _run(self, fn, tasks: list, stage: str, n_samples: int,
             result_dtype=np.float64) -> np.ndarray:
        obs = current_obs()
        start = time.perf_counter()
        busy_s = 0.0
        if self.jobs == 1 or len(tasks) == 1:
            # In-process: the parent's obs context is already live, so
            # shards span directly onto it (no hand-back round trip).
            parts = []
            for task in tasks:
                with obs.tracer.span(stage + ".shard", **_task_attrs(task)):
                    parts.append(fn(task))
        else:
            parts, busy_s = self._run_pool(fn, tasks, stage, obs,
                                           result_dtype)
        out = np.concatenate(parts) if len(parts) > 1 else parts[0]
        elapsed = time.perf_counter() - start
        self._record(stage, elapsed, n_samples)
        metrics = obs.metrics
        metrics.counter("sampler.shards").inc(len(tasks))
        metrics.counter("sampler.samples").inc(n_samples)
        if metrics.enabled:
            hist = metrics.histogram("sampler.shard_samples",
                                     buckets=_SHARD_BUCKETS)
            for task in tasks:
                hist.observe(task["n"])
            if busy_s > 0.0 and elapsed > 0.0:
                metrics.gauge("sampler.worker_utilization").set(
                    min(1.0, busy_s / (self.jobs * elapsed)))
        return out

    # -- fault-tolerant pool dispatch ----------------------------------------

    def _shard_id(self, tasks: list, i: int):
        return tasks[i].get("shard", i)

    def _submit_round(self, fn, tasks: list, pending, ctx, plan) -> dict:
        """Submit every pending shard to the pool; returns future -> index.

        Tasks are copied per attempt so observability context and fault
        payloads never leak across retries; the fault plan is consumed at
        dispatch time (deterministic order), which is what keeps injected
        faults one-shot across retries and pool respawns.
        """
        pool = self._pool()
        futures: dict = {}
        for i in sorted(pending):
            task = dict(tasks[i])
            if ctx:
                task["obs"] = ctx
            if plan is not None:
                faults = plan.shard_faults(self._shard_id(tasks, i))
                if faults:
                    task["faults"] = faults
            futures[pool.submit(fn, task)] = i
        return futures

    def _respawn(self, reason: str, stage: str, tasks: list, pending,
                 respawns: int, obs, ledger) -> int:
        """Kill the (crashed/hung) pool and stand up a fresh one."""
        respawns += 1
        reassigned = sorted(self._shard_id(tasks, i) for i in pending)
        with obs.tracer.span("resilience.pool_respawn", stage=stage,
                             reason=reason, reassigned=len(pending)):
            self._kill_pool()
        obs.metrics.counter("resilience.pool_respawns").inc()
        obs.metrics.counter("resilience.reassignments").inc(len(pending))
        ledger.record("pool_respawn", stage=stage, reason=reason,
                      respawn=respawns, reassigned=reassigned)
        time.sleep(min(self.retry.backoff_cap_s,
                       self.retry.backoff_base_s * respawns))
        return respawns

    def _serial_fallback(self, fn, tasks: list, stage: str, pending,
                         results: list, obs, ledger) -> None:
        """Last resort: run the remaining shards in-process, serially.

        The shards are pure functions of their task dicts, so this
        preserves bit-identical results even when the pool is
        unrecoverable; fault payloads never attach here (a crash
        injection must not take down the driver).
        """
        shards = [self._shard_id(tasks, i) for i in sorted(pending)]
        obs.metrics.counter("resilience.serial_fallbacks").inc()
        ledger.record("serial_fallback", stage=stage, shards=shards)
        with obs.tracer.span("resilience.serial_fallback", stage=stage,
                             shards=len(shards)):
            for i in sorted(pending):
                task = {k: v for k, v in tasks[i].items()
                        if k not in ("obs", "faults", "shm")}
                with obs.tracer.span(stage + ".shard", **_task_attrs(task)):
                    results[i] = fn(task)
                # The fallback runs in the driver process, whose memoised
                # kernels would otherwise pin shard-sized workspaces for
                # the rest of the run — release after every shard.
                release_worker_workspaces()
        pending.clear()

    def _open_shm(self, tasks: list, result_dtype, metrics):
        """Create one result segment for the dispatch, if worth it.

        Attaches each shard's slice spec to its task dict (workers write
        straight into the segment; the serial fallback strips the spec).
        Returns the segment or ``None`` (payload under the threshold, or
        shared memory unavailable on this platform).
        """
        dtype = np.dtype(result_dtype)
        total = sum(task["n"] for task in tasks)
        nbytes = total * dtype.itemsize
        # Zero-byte payloads must ride the pickle path: SharedMemory
        # rejects size=0, so shm_min_bytes=0 plus an empty dispatch would
        # otherwise raise ValueError before the first shard runs.
        if nbytes == 0 or nbytes < self.shm_min_bytes:
            return None
        try:
            segment = shared_memory.SharedMemory(create=True, size=nbytes)
        except Exception:
            return None
        offset = 0
        for task in tasks:
            task["shm"] = {"name": segment.name, "offset": offset,
                           "n": int(task["n"]), "dtype": dtype.str}
            offset += int(task["n"]) * dtype.itemsize
        metrics.counter("sampler.shm_bytes").inc(nbytes)
        return segment

    def _assemble_shm(self, segment, tasks: list, results: list,
                      result_dtype) -> np.ndarray:
        """Gather shard results from the segment into one output array.

        One bulk copy of the whole segment, then any shard that did not
        report through the transport (serial fallback, in-process retry)
        is patched from its directly-returned array.
        """
        dtype = np.dtype(result_dtype)
        total = sum(task["n"] for task in tasks)
        out = np.empty(total, dtype=dtype)
        view = np.ndarray((total,), dtype=dtype, buffer=segment.buf)
        out[:] = view
        del view
        pos = 0
        for task, item in zip(tasks, results):
            if not _is_shm_marker(item):
                out[pos:pos + int(task["n"])] = item
            pos += int(task["n"])
        return out

    def _run_pool(self, fn, tasks: list, stage: str, obs,
                  result_dtype=np.float64) -> tuple:
        """Dispatch shards across the pool, with shared-memory results.

        Payloads above ``shm_min_bytes`` go through one preallocated
        :class:`~multiprocessing.shared_memory.SharedMemory` segment
        (workers write slices keyed by shard, the parent assembles);
        the segment is unlinked on every exit path — success, shard
        failure, crash/hang recovery — so chaos runs never leak ``/dev/shm``
        entries.  Returns ``(parts, busy_s)`` with parts in shard order.
        """
        segment = self._open_shm(tasks, result_dtype, obs.metrics)
        if segment is None:
            return self._dispatch(fn, tasks, stage, obs)
        try:
            results, busy_s = self._dispatch(fn, tasks, stage, obs)
            out = self._assemble_shm(segment, tasks, results, result_dtype)
            return [out], busy_s
        finally:
            segment.close()
            segment.unlink()

    def _dispatch(self, fn, tasks: list, stage: str, obs) -> tuple:
        """Run every shard through the pool with the full recovery ladder.

        Retry-with-backoff for shard exceptions; a progress deadline
        (``retry.shard_timeout_s``) as hung-worker watchdog; pool
        termination + respawn with reassignment for crashes and hangs;
        in-process serial execution once respawns are exhausted.  Returns
        ``(parts, busy_s)`` with parts in shard order (parts are shm
        markers for shards that reported through the transport).
        """
        policy = self.retry
        plan = active_plan()
        ledger = current_ledger()
        metrics = obs.metrics
        ctx = obs.worker_context(stage) if obs.enabled else None
        n = len(tasks)
        results: list = [None] * n
        busy_s = 0.0
        attempts = [0] * n
        exhausted: dict = {}             # index -> last error repr
        pending = set(range(n))
        respawns = 0
        while pending:
            if respawns > policy.max_pool_respawns:
                self._serial_fallback(fn, tasks, stage, pending, results,
                                      obs, ledger)
                break
            try:
                futures = self._submit_round(fn, tasks, pending, ctx, plan)
            except BrokenProcessPool:
                respawns = self._respawn("broken_on_submit", stage, tasks,
                                         pending, respawns, obs, ledger)
                continue
            hung = False
            broken = False
            retry_idx: list = []
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done,
                                      timeout=policy.shard_timeout_s)
                if not done:
                    hung = True
                    break
                for fut in done:
                    i = futures[fut]
                    exc = fut.exception()
                    if exc is None:
                        item = fut.result()
                        if isinstance(item, dict) and "obs" in item:
                            obs.merge_export(item["obs"])
                            busy_s += item["busy_s"]
                            item = item["result"]
                        results[i] = item
                        pending.discard(i)
                    elif isinstance(exc, BrokenProcessPool):
                        broken = True
                    else:
                        attempts[i] += 1
                        shard = self._shard_id(tasks, i)
                        if attempts[i] > policy.max_retries:
                            pending.discard(i)
                            exhausted[i] = repr(exc)
                            metrics.counter(
                                "resilience.retries_exhausted").inc()
                            ledger.record("shard_retries_exhausted",
                                          stage=stage, shard=shard,
                                          attempts=attempts[i],
                                          error=repr(exc))
                        else:
                            retry_idx.append(i)
                            metrics.counter("resilience.retries").inc()
                            ledger.record("shard_retry", stage=stage,
                                          shard=shard, attempt=attempts[i],
                                          error=repr(exc))
            if hung:
                stuck = sorted(self._shard_id(tasks, futures[f])
                               for f in not_done)
                metrics.counter("resilience.shard_timeouts").inc(len(stuck))
                ledger.record("hung_worker_timeout", stage=stage,
                              timeout_s=policy.shard_timeout_s,
                              shards=stuck)
                respawns = self._respawn("hung_worker", stage, tasks,
                                         pending, respawns, obs, ledger)
                continue
            if broken:
                ledger.record("worker_crash_detected", stage=stage,
                              pending=[self._shard_id(tasks, i)
                                       for i in sorted(pending)])
                respawns = self._respawn("worker_crash", stage, tasks,
                                         pending, respawns, obs, ledger)
                continue
            if retry_idx:
                time.sleep(max(
                    policy.backoff_s(self._shard_id(tasks, i), attempts[i])
                    for i in retry_idx))
        if exhausted:
            shards = [self._shard_id(tasks, i) for i in sorted(exhausted)]
            causes = [exhausted[i] for i in sorted(exhausted)]
            ledger.record("shards_failed", stage=stage, shards=shards)
            raise ShardExecutionError(
                f"{len(shards)} shard(s) of stage {stage!r} failed after "
                f"{policy.max_retries} retries: shards {shards} "
                f"(last errors: {causes})",
                shards=shards, causes=causes)
        return results, busy_s

    def _tasks(self, n: int, root_seed, common: dict) -> list:
        counts = plan_shards(n, self.shard_size)
        seeds = shard_seeds(root_seed, len(counts))
        return [dict(common, n=count, seed=seed, shard=i)
                for i, (count, seed) in enumerate(zip(counts, seeds))]

    # -- public sampling API -------------------------------------------------

    def system_delays(self, tech, vdd, *, width: int, paths_per_lane: int,
                      chain_length: int, n_chips: int, spares: int = 0,
                      batch_size: int = 64, root_seed=0,
                      precision: str = "float64",
                      block_elems: int | None = None) -> np.ndarray:
        """Sharded :meth:`MonteCarloEngine.system_delays` (seconds).

        Bit-identical for a given ``(root_seed, shard_size)`` regardless
        of ``jobs`` (and of ``batch_size`` — the engine spawns per-chip
        streams — and of the kernels' block plan and thread count).
        ``precision`` selects the kernels' dtype policy and
        ``block_elems`` their per-block element budget.
        """
        tasks = self._tasks(n_chips, root_seed, dict(
            tech=tech, vdd=float(vdd), width=int(width),
            paths_per_lane=int(paths_per_lane),
            chain_length=int(chain_length), spares=int(spares),
            batch_size=int(batch_size), precision=str(precision),
            block_elems=None if block_elems is None else int(block_elems)))
        return self._run(_system_delays_shard, tasks,
                         "sampler.system_delays", n_chips,
                         result_dtype=np.dtype(precision))

    def weighted_system_delays(self, tech, vdd, *, width: int,
                               paths_per_lane: int, chain_length: int,
                               n_chips: int, proposal, spares: int = 0,
                               batch_size: int = 64, root_seed=0,
                               precision: str = "float64",
                               block_elems: int | None = None) -> tuple:
        """Sharded :meth:`MonteCarloEngine.weighted_system_delays`.

        Returns ``(delays, logw)``, both float64 and ``n_chips`` long.
        Same reproducibility contract as :meth:`system_delays` — the
        shard plan and per-shard streams depend only on ``(root_seed,
        shard_size, n_chips)``, so a tail estimate is bit-identical at
        ``jobs=1`` and ``jobs=32`` and survives the recovery ladder.
        Each shard transports one flat ``[delays; logw]`` float64 array
        (2x the shard's chip count), so the likelihood-ratio weights
        ride the shared-memory segment next to the delays.
        """
        proposal.validate_for(tech.variation)
        counts = plan_shards(n_chips, self.shard_size)
        seeds = shard_seeds(root_seed, len(counts))
        common = dict(tech=tech, vdd=float(vdd), width=int(width),
                      paths_per_lane=int(paths_per_lane),
                      chain_length=int(chain_length), spares=int(spares),
                      batch_size=int(batch_size), precision=str(precision),
                      block_elems=None if block_elems is None
                      else int(block_elems),
                      proposal=proposal.as_dict())
        tasks = [dict(common, n=2 * count, chips=int(count), seed=seed,
                      shard=i)
                 for i, (count, seed) in enumerate(zip(counts, seeds))]
        flat = self._run(_weighted_delays_shard, tasks,
                         "sampler.weighted_delays", n_chips,
                         result_dtype=np.float64)
        delays = np.empty(n_chips, dtype=np.float64)
        logw = np.empty(n_chips, dtype=np.float64)
        pos = fpos = 0
        for count in counts:
            delays[pos:pos + count] = flat[fpos:fpos + count]
            logw[pos:pos + count] = flat[fpos + count:fpos + 2 * count]
            pos += count
            fpos += 2 * count
        return delays, logw

    def sample_chips(self, tech, vdd, *, n_samples: int, width: int = 128,
                     paths_per_lane: int = 100, chain_length: int = 50,
                     spares: int = 0, root_seed=0) -> np.ndarray:
        """Sharded :meth:`ChipDelayEngine.sample_chips` (seconds).

        Bit-identical for a given ``(root_seed, shard_size)`` regardless
        of ``jobs``.
        """
        tasks = self._tasks(n_samples, root_seed, dict(
            tech=tech, vdd=float(vdd), width=int(width),
            paths_per_lane=int(paths_per_lane),
            chain_length=int(chain_length), spares=int(spares)))
        return self._run(_sample_chips_shard, tasks,
                         "sampler.sample_chips", n_samples)

    # -- public solving API --------------------------------------------------

    def solve_quantiles(self, tech, vdds, qs, spares, *, width: int = 128,
                        paths_per_lane: int = 100, chain_length: int = 50,
                        quads=None,
                        chunk_size: int = DEFAULT_QUANTILE_CHUNK,
                        cluster: bool = True) -> np.ndarray:
        """Deterministic chip-delay quantiles, chunk-sharded over the pool.

        ``vdds``/``qs``/``spares`` are equal-length 1-D point arrays;
        every ``chunk_size`` consecutive points become one worker task
        running :meth:`ChipDelayEngine.chip_quantile_batch` (workers
        memoise engines, so the Gauss-Hermite tabulations amortise across
        chunks).  The partition depends only on the query order and
        ``chunk_size``, never on ``jobs``, so results are reproducible
        for a fixed chunking.  ``quads`` optionally pins the three
        quadrature orders ``(within, corr_vth, corr_mult)``.
        ``cluster=False`` forwards the engine's batch-composition-invariant
        per-point solve, making results independent of the chunking too.
        """
        vdds = np.asarray(vdds, dtype=float).ravel()
        qs = np.asarray(qs, dtype=float).ravel()
        spares = np.asarray(spares, dtype=float).ravel()
        if not (vdds.size == qs.size == spares.size):
            raise ConfigurationError(
                "solve_quantiles needs equal-length vdd/q/spares arrays")
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        common = dict(tech=tech, width=int(width),
                      paths_per_lane=int(paths_per_lane),
                      chain_length=int(chain_length),
                      quads=tuple(int(q) for q in quads) if quads else None,
                      cluster=bool(cluster))
        tasks = []
        for i, start in enumerate(range(0, vdds.size, int(chunk_size))):
            sl = slice(start, start + int(chunk_size))
            tasks.append(dict(common, vdds=vdds[sl].tolist(),
                              qs=qs[sl].tolist(),
                              spares=spares[sl].tolist(),
                              n=int(vdds[sl].size), shard=i))
        return self._run(_quantile_chunk_shard, tasks,
                         "sampler.solve_quantiles", int(vdds.size))
