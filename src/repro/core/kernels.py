"""Fused zero-allocation Monte-Carlo evaluation kernels.

The brute-force engine in :mod:`repro.core.montecarlo` is exact but
memory-bandwidth bound: one batch of ``sum_over_gates(fo4_delay(vdd,
dvth, mult))`` through the naive :meth:`~repro.devices.technology.
TechnologyNode.fo4_delay` chain materialises ~10 full-size float64
temporaries (threshold combine, overdrives, two softplus expansions,
powers, drive, delay), every one a fresh ``mmap`` that the allocator
must page-in and the GC must tear down again.  :class:`MonteCarloKernel`
replaces that storm with

* **preallocated workspace arenas** — a handful of flat buffers per
  evaluation thread (:class:`WorkspaceArena`), grown once and reused
  for every batch, with the whole evaluation expressed as in-place
  ufunc calls (``out=`` everywhere, including the
  ``rng.standard_normal(out=ws)`` draw fills via
  :meth:`~repro.devices.variation.VariationModel.fill_gates`);
* an explicit **dtype policy** (``precision="float64" | "float32"``):
  float32 halves the bandwidth of the bound inner loop for validation
  sweeps.  Both precisions evaluate the *same* normal variates (draws
  are always float64 and cast through a staging buffer), so the float32
  distribution differs from float64 only by rounding — not by sampling
  noise — and quantile-level comparisons stay meaningful at small
  sample counts;
* **per-chip random streams**: every chip (or lane sample) draws from
  its own :class:`numpy.random.SeedSequence` child, which makes results
  invariant to ``batch_size`` — batching becomes a pure memory knob —
  and lets the fused path evaluate in internal blocks without changing
  a single bit of the output;
* **balanced, cache-sized blocks on one thread pool**: every fused
  batch is split by :func:`plan_blocks` into contiguous row blocks of
  near-equal size, each within a :data:`DEFAULT_BLOCK_ELEMS` element
  budget (so a block's buffers stay in a core's L2 cache), numbering a
  multiple of the thread count when there are rows enough.  The blocks
  run on one process-wide :class:`BlockPool` with one workspace arena
  *per thread*, each writing a disjoint ``out=`` slice.  Numpy ufuncs
  and ``Generator`` fills release the GIL, so draws and the fused
  delay chain of independent chips overlap.  The output is bit-identical to a serial
  loop whatever the plan or thread count, because a chip's draws come
  only from its own stream and every reduction runs along one row,
  never across a block boundary.

The float64 fused path is **bit-identical** to the reference path
(``fused=False``), which preserves the naive allocate-per-temporary
evaluation through :meth:`TechnologyNode.fo4_delay` for parity tests
and benchmarking (``benchmarks/bench_montecarlo.py``).  Bit-identity
holds because every fused in-place ufunc replays the exact operation
sequence of the reference chain — only the destinations change.

Thread count: a process runs :func:`kernel_threads` threads, one per
CPU in its affinity mask (:func:`usable_cpus`, not the host CPU count).
The :class:`~repro.runtime.parallel.ParallelSampler` process pool sizes
each of its ``jobs`` workers to ``max(1, cpus // jobs)`` threads
(:func:`share_cpus`), so the two layers never oversubscribe the CPUs.
One thread, or a one-block batch, runs on the calling thread.  The pool
starts on the first batch that has work for it, never at import, and a
forked child forgets the parent's pool (whose threads do not exist in
the child) and starts its own.

Observability: kernels emit ``kernels.batches`` / ``kernels.blocks`` /
``kernels.gate_evals`` counters, ``kernels.workspace_bytes`` (every
arena *including float32 staging buffers*) and ``kernels.threads``
gauges, and a ``kernels.thread_utilization`` gauge for batches that
ran on the pool, on the active metrics registry (no-ops when
observability is off).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.api import counter as _obs_counter
from repro.obs.api import current_obs
from repro.obs.api import gauge as _obs_gauge

__all__ = ["MonteCarloKernel", "WorkspaceArena", "BlockPool", "PRECISIONS",
           "DEFAULT_BLOCK_ELEMS", "plan_blocks", "usable_cpus",
           "kernel_threads", "share_cpus"]

#: Supported dtype-policy names.
PRECISIONS = ("float64", "float32")

#: Default per-block element budget for the fused path.  A block's ~4
#: float64 evaluation buffers then take ~2 MB, which stays in a core's
#: 2 MiB L2 cache; per-chip streams make the split invisible in the
#: output bits.  Fig-4-scale chips (128 x 100 x 50 = 640k elements)
#: exceed it, so they run one chip per block.  The reference path never
#: blocks (it reproduces the pre-kernel whole-batch evaluation).
DEFAULT_BLOCK_ELEMS = 65_536


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, at least 1.

    Under ``taskset`` or a container CPU set this is smaller than
    ``os.cpu_count()``, which counts the host's CPUs.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:      # no affinity masks on this platform
        return os.cpu_count() or 1


def kernel_threads(processes: int = 1) -> int:
    """Kernel threads for one of ``processes`` processes sharing the CPUs."""
    return max(1, usable_cpus() // max(1, int(processes)))


def plan_blocks(rows: int, row_elems: int, block_elems: int,
                threads: int) -> list:
    """Balanced ``(start, stop)`` block spans over ``rows`` rows.

    The spans are contiguous and cover every row in order; their sizes
    differ by at most one row; no block holds more than ``block_elems``
    elements unless a single row does; and the block count is the
    smallest multiple of ``threads`` that meets the budget — or
    ``rows``, when there are fewer rows than that — so every thread gets
    an equal share.  The plan only decides where rows are evaluated,
    never what they evaluate to.
    """
    if int(block_elems) < 1:
        raise ConfigurationError(
            f"block_elems must be >= 1, got {block_elems}")
    if int(threads) < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    rows = int(rows)
    if rows < 1:
        return []
    per_block = max(1, int(block_elems) // max(1, int(row_elems)))
    count = -(-rows // per_block)
    count = min(rows, -(-count // int(threads)) * int(threads))
    size, extra = divmod(rows, count)
    spans = []
    start = 0
    for i in range(count):
        stop = start + size + (i < extra)
        spans.append((start, stop))
        start = stop
    return spans


class BlockPool:
    """Threads that evaluate the independent blocks of kernel batches.

    One instance serves the whole process (see :func:`share_cpus`).
    ``threads=None`` sizes it by :func:`kernel_threads` when a batch
    first asks.  The executor starts on the first batch with more than
    one block and more than one thread; until then, and for every batch
    it would not split, blocks run on the calling thread.
    """

    def __init__(self, threads: int | None = None) -> None:
        if threads is not None and int(threads) < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")
        self._threads = None if threads is None else int(threads)
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    @property
    def threads(self) -> int:
        """Pool width (fixed once read)."""
        if self._threads is None:
            self._threads = kernel_threads()
        return self._threads

    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.threads,
                    thread_name_prefix="repro-kernel")
            return self._executor

    def close(self) -> None:
        """Stop the threads (a later batch starts them again)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def run(self, kernel, fn, spans) -> None:
        """``fn(arena, start, stop)`` for every span; returns when all ran.

        Each block evaluates against its thread's own
        :meth:`MonteCarloKernel.arena` and writes a disjoint slice, so
        blocks share no mutable state.  Every block finishes before the
        first block error, if any, is raised.
        """
        if self.threads == 1 or len(spans) <= 1:
            arena = kernel.arena()
            for start, stop in spans:
                fn(arena, start, stop)
            return
        metrics = current_obs().metrics
        timed = metrics.enabled
        busy = [0.0] * len(spans)
        t0 = time.perf_counter()

        def block(idx):
            b0 = time.perf_counter() if timed else 0.0
            fn(kernel.arena(), *spans[idx])
            if timed:
                busy[idx] = time.perf_counter() - b0

        pool = self._pool()
        futures = [pool.submit(block, idx) for idx in range(len(spans))]
        wait(futures)
        for fut in futures:
            fut.result()
        if timed:
            elapsed = time.perf_counter() - t0
            if elapsed > 0.0:
                metrics.gauge("kernels.thread_utilization").set(
                    min(1.0, sum(busy) / (self.threads * elapsed)))


_POOL = BlockPool()


def share_cpus(processes: int) -> None:
    """Size this process's kernel threads as one of ``processes``.

    The initializer of the ``ParallelSampler`` process pool: ``jobs``
    workers each run ``max(1, cpus // jobs)`` threads, so process shards
    and kernel threads together never oversubscribe the usable CPUs.
    """
    global _POOL
    old, _POOL = _POOL, BlockPool(kernel_threads(processes))
    old.close()


def _forget_pool_in_child() -> None:
    """Start a forked child with an unstarted pool of the same size.

    The parent's pool threads do not exist in the child, so blocks
    submitted to the inherited executor would never run.
    """
    global _POOL
    _POOL = BlockPool(_POOL._threads)


os.register_at_fork(after_in_child=_forget_pool_in_child)


def _softplus_into(x, out):
    """In-place ``ln(1 + exp(x))``, bit-identical to ``mosfet._softplus``.

    Replays the reference operation sequence —
    ``abs → negate → exp → log1p`` then ``+ maximum(x, 0)`` — writing
    into ``out`` and consuming ``x`` (the ``maximum`` lands in ``x``
    instead of a fresh temporary).
    """
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.maximum(x, 0.0, out=x)
    np.add(out, x, out=out)


class WorkspaceArena:
    """Named grow-only buffer pool for one evaluation context.

    A kernel owns one arena per thread that evaluates blocks through it
    (the caller's alone when a batch runs on the calling thread).  Buffers
    are flat, keyed by name, and only ever grow; :meth:`ws` returns a
    correctly-shaped view.  ``nbytes`` counts *every* buffer, including
    the float64 ``staging`` buffer the float32 dtype policy draws
    through — staging is real resident memory and is accounted like any
    other workspace.
    """

    __slots__ = ("_dtype", "_buffers")

    def __init__(self, dtype) -> None:
        self._dtype = np.dtype(dtype)
        self._buffers: dict = {}

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by this arena's buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def breakdown(self) -> dict:
        """``{buffer name: bytes}`` for accounting tests and gauges."""
        return {name: int(buf.nbytes)
                for name, buf in self._buffers.items()}

    def release(self) -> None:
        """Drop every buffer (they regrow on the next batch)."""
        self._buffers.clear()

    def ws(self, name: str, shape, dtype=None):
        """A reusable buffer view of ``shape`` (grow-only, per name)."""
        dtype = self._dtype if dtype is None else np.dtype(dtype)
        need = 1
        for dim in shape:
            need *= int(dim)
        buf = self._buffers.get(name)
        if buf is None or buf.size < need or buf.dtype != dtype:
            buf = np.empty(need, dtype=dtype)
            self._buffers[name] = buf
        return buf[:need].reshape(shape)


class MonteCarloKernel:
    """Fused evaluation layer for the per-gate Monte-Carlo hot path.

    Parameters
    ----------
    tech:
        Technology card (delay model + variation model).
    precision:
        ``"float64"`` (default; bit-identical to the reference path) or
        ``"float32"`` (~2x bandwidth on the evaluation loop; same
        normal variates, see module docstring).
    fused:
        ``False`` selects the reference path: identical draws, but the
        naive allocate-per-temporary evaluation through
        :meth:`TechnologyNode.fo4_delay` — kept for parity tests and
        as the benchmark baseline.
    block_elems:
        Per-block element budget for the fused path's internal blocking
        (see :data:`DEFAULT_BLOCK_ELEMS` and :func:`plan_blocks`);
        ``None`` selects the default.

    A kernel parallelises *inside* a batch call — the process's
    :class:`BlockPool` threads each evaluate blocks against their own
    :class:`WorkspaceArena` — but concurrent *batch* calls on one kernel
    are unsupported; share one per process (pool workers memoise
    kernels per card / precision / budget), not across concurrent
    callers.
    """

    def __init__(self, tech, precision: str = "float64", fused: bool = True,
                 block_elems: int | None = DEFAULT_BLOCK_ELEMS) -> None:
        if precision not in PRECISIONS:
            raise ConfigurationError(
                f"precision must be one of {PRECISIONS}, got {precision!r}")
        if block_elems is None:
            block_elems = DEFAULT_BLOCK_ELEMS
        if block_elems < 1:
            raise ConfigurationError(
                f"block_elems must be >= 1, got {block_elems}")
        self.tech = tech
        self.precision = str(precision)
        self.fused = bool(fused)
        self.block_elems = int(block_elems)
        self._dtype = np.dtype(precision)
        self._arenas: dict = {}
        self._arena_lock = threading.Lock()

    # -- workspaces ----------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The evaluation dtype selected by the precision policy."""
        return self._dtype

    def arena(self) -> WorkspaceArena:
        """The calling thread's workspace arena (created on first use).

        Every :class:`BlockPool` thread calls this for its blocks, giving
        each thread private evaluation buffers with zero locking on the
        hot path.
        """
        key = threading.get_ident()
        arena = self._arenas.get(key)
        if arena is None:
            with self._arena_lock:
                arena = self._arenas.setdefault(
                    key, WorkspaceArena(self._dtype))
        return arena

    @property
    def workspace_nbytes(self) -> int:
        """Total bytes held by every arena (all threads, staging
        included)."""
        with self._arena_lock:
            arenas = list(self._arenas.values())
        return sum(arena.nbytes for arena in arenas)

    def workspace_breakdown(self) -> dict:
        """``{buffer name: total bytes}`` aggregated across arenas.

        The float32 policy's float64 ``staging`` buffer appears as its
        own entry, so the accounting asserted by the tests covers it
        explicitly; ``sum(values)`` equals :attr:`workspace_nbytes`.
        """
        with self._arena_lock:
            arenas = list(self._arenas.values())
        total: dict = {}
        for arena in arenas:
            for name, nbytes in arena.breakdown().items():
                total[name] = total.get(name, 0) + nbytes
        return total

    def release_workspaces(self) -> None:
        """Drop every workspace buffer of every thread's arena (they
        regrow on the next batch)."""
        with self._arena_lock:
            arenas = list(self._arenas.values())
            self._arenas.clear()
        for arena in arenas:
            arena.release()

    def _alloc(self, arena: WorkspaceArena, name: str, shape, dtype=None):
        """Workspace view (fused) or a fresh allocation (reference)."""
        dtype = self._dtype if dtype is None else np.dtype(dtype)
        if self.fused:
            return arena.ws(name, shape, dtype)
        return np.empty(shape, dtype=dtype)

    # -- drawing -------------------------------------------------------------

    def _cast(self, arr):
        """Correlated draws (always float64) in the evaluation dtype."""
        if self._dtype == np.float64:
            return arr
        return arr.astype(self._dtype)

    def _staging_for(self, arena: WorkspaceArena, shape):
        """float64 staging row for float32 fills (``None`` for float64)."""
        if self._dtype == np.float64:
            return None
        if self.fused:
            return arena.ws("staging", shape, np.float64)
        return np.empty(shape, dtype=np.float64)

    def _draw_correlated(self, rng, lane_shape):
        """One chip's die- and lane-level draws (die first, then lane)."""
        var = self.tech.variation
        die_dvth = rng.normal(0.0, var.sigma_vth_d2d) if var.sigma_vth_d2d else 0.0
        die_mult = rng.normal(0.0, var.sigma_mult_corr) if var.sigma_mult_corr else 0.0
        if lane_shape is None:
            lane_dvth = (rng.normal(0.0, var.sigma_vth_lane)
                         if var.sigma_vth_lane else 0.0)
            lane_mult = (rng.normal(0.0, var.sigma_mult_lane)
                         if var.sigma_mult_lane else 0.0)
        else:
            lane_dvth = (rng.normal(0.0, var.sigma_vth_lane, lane_shape)
                         if var.sigma_vth_lane else np.zeros(lane_shape))
            lane_mult = (rng.normal(0.0, var.sigma_mult_lane, lane_shape)
                         if var.sigma_mult_lane else np.zeros(lane_shape))
        return die_dvth, die_mult, lane_dvth, lane_mult

    # -- fused evaluation core -----------------------------------------------

    def _fused_path_sums(self, arena: WorkspaceArena, vdd: float,
                         dvth, mult, out) -> None:
        """``sum_over_gates(fo4_delay(vdd, dvth, mult))`` along the last axis.

        Consumes ``dvth`` and ``mult`` (both become scratch); writes the
        per-path delay sums into ``out`` (shape ``dvth.shape[:-1]``).
        Bit-identical to
        ``tech.fo4_delay(vdd, dvth, mult).sum(axis=-1)`` in float64: the
        in-place ufunc sequence replays the reference chain operation
        for operation, and the ``np.sum(..., out=...)`` keeps numpy's
        pairwise reduction order.
        """
        mos = self.tech.mosfet
        dt = self._dtype.type
        two_n_vt = 2.0 * mos.n_slope * mos.thermal_voltage
        balanced = mos.vth_split == 0.0 and mos.strength_p == 1.0

        a = dvth
        np.add(a, dt(mos.vth0 - mos.dibl * vdd), out=a)     # Vth_eff
        np.subtract(dt(vdd), a, out=a)                      # Vdd - Vth_eff
        sp = arena.ws("sp", a.shape, self._dtype)
        if not balanced:
            xp = arena.ws("xp", a.shape, self._dtype)
            np.subtract(a, dt(mos.vth_split), out=xp)
            np.divide(xp, dt(two_n_vt), out=xp)             # weak overdrive
        np.divide(a, dt(two_n_vt), out=a)                   # strong overdrive
        _softplus_into(a, sp)                               # consumes a
        np.power(sp, dt(mos.alpha), out=sp)                 # d_n
        if not balanced:
            _softplus_into(xp, a)                           # consumes xp
            np.power(a, dt(mos.alpha), out=a)
            np.multiply(a, dt(mos.strength_p), out=a)       # d_p
            np.add(sp, a, out=xp)                           # d_n + d_p
            np.multiply(sp, dt(2.0), out=sp)
            np.multiply(sp, a, out=sp)
            np.divide(sp, xp, out=sp)                       # harmonic drive
        np.divide(dt(self.tech.fo4_scale * vdd), sp, out=sp)
        np.add(mult, dt(1.0), out=mult)
        np.multiply(sp, mult, out=sp)                       # gate delays
        np.sum(sp, axis=-1, out=out)

    def _reference_path_sums(self, vdd: float, dvth, mult):
        """The pre-kernel evaluation: naive chain, fresh temporaries."""
        dtype = None if self._dtype == np.float64 else self._dtype
        return self.tech.fo4_delay(vdd, dvth, mult, dtype=dtype).sum(axis=-1)

    # -- internal blocking ---------------------------------------------------

    def _run_blocks(self, fn, rows: int, row_elems: int) -> int:
        """``fn(arena, start, stop)`` over one batch's blocks; returns
        the block count.

        The fused path runs the :func:`plan_blocks` plan on the
        process's :class:`BlockPool`; the reference path evaluates the
        whole batch as one block on the calling thread.
        """
        pool = _POOL
        if self.fused:
            spans = plan_blocks(rows, row_elems, self.block_elems,
                                pool.threads)
        else:
            spans = [(0, int(rows))]
        pool.run(self, fn, spans)
        return len(spans)

    # -- batch entry points --------------------------------------------------

    def system_batch(self, rngs, vdd: float, n_lanes: int,
                     paths_per_lane: int, chain_length: int, spares: int,
                     out, proposal=None, logw_out=None,
                     d2d_out=None) -> None:
        """Chip delays for ``len(rngs)`` chips, one generator per chip.

        Writes seconds into ``out`` (shape ``(len(rngs),)``).  Per-chip
        draw order: die pair, lane vectors, gate threshold fill, gate
        multiplier fill — so the output depends only on each chip's
        :class:`~numpy.random.SeedSequence` child, never on batch or
        block boundaries (or on which thread evaluates the block).

        ``proposal`` (a :class:`~repro.core.tailsampling.ShiftProposal`)
        switches the batch to importance sampling: the d2d / lane
        threshold draws are mean-shifted *after* they leave each chip's
        stream (a mixture proposal additionally consumes one uniform per
        chip, drawn first, for component selection), and the per-chip
        log-likelihood-ratio weights land in ``logw_out`` (float64,
        same shape as ``out``).  A single-component proposal changes no
        stream consumption at all, so ``shift=0`` reproduces the plain
        batch bit-for-bit with all-zero weights.  ``d2d_out``
        optionally receives the (shifted) die-level threshold draws in
        volts — the adaptive shift search reads them.
        """
        vdd = float(vdd)
        total = len(rngs)
        row_elems = n_lanes * paths_per_lane * chain_length
        if proposal is not None and logw_out is None:
            raise ConfigurationError(
                "system_batch with a proposal needs logw_out")

        def block(arena, start, stop):
            self._system_block(
                arena, rngs[start:stop], vdd, n_lanes, paths_per_lane,
                chain_length, spares, out[start:stop], proposal=proposal,
                logw=None if logw_out is None else logw_out[start:stop],
                d2d=None if d2d_out is None else d2d_out[start:stop])

        blocks = self._run_blocks(block, total, row_elems)
        self._record(total, total * row_elems, blocks)

    def _system_block(self, arena, rngs, vdd, n_lanes, paths_per_lane,
                      chain_length, spares, out, proposal=None, logw=None,
                      d2d=None) -> None:
        """One internal block of :meth:`system_batch` (thread-confined)."""
        var = self.tech.variation
        nb = len(rngs)
        shape = (nb, n_lanes, paths_per_lane, chain_length)
        a = self._alloc(arena, "dvth", shape)
        m = self._alloc(arena, "mult", shape)
        staging = self._staging_for(arena, shape[1:])
        die_dvth = np.empty(nb)
        die_mult = np.empty(nb)
        lane_dvth = np.empty((nb, n_lanes))
        lane_mult = np.empty((nb, n_lanes))
        for i, rng in enumerate(rngs):
            component = (proposal.pick_component(rng)
                         if proposal is not None else 0)
            (die_dvth[i], die_mult[i],
             lane_dvth[i], lane_mult[i]) = self._draw_correlated(
                rng, (n_lanes,))
            if proposal is not None:
                die_dvth[i], logw[i] = proposal.shift_chip(
                    component, die_dvth[i], lane_dvth[i],
                    var.sigma_vth_d2d, var.sigma_vth_lane)
            var.fill_gates(rng, a[i], m[i], staging=staging)
        if d2d is not None:
            d2d[:] = die_dvth
        if self.fused:
            np.add(a, self._cast(die_dvth)[:, None, None, None], out=a)
            np.add(a, self._cast(lane_dvth)[:, :, None, None], out=a)
            sums = arena.ws("paths", shape[:3], self._dtype)
            self._fused_path_sums(arena, vdd, a, m, sums)
            lanes = arena.ws("lanes", shape[:2], self._dtype)
            np.max(sums, axis=-1, out=lanes)
            np.multiply(lanes, 1.0 + self._cast(lane_mult), out=lanes)
        else:
            a = (a + self._cast(die_dvth)[:, None, None, None]
                 + self._cast(lane_dvth)[:, :, None, None])
            sums = self._reference_path_sums(vdd, a, m)
            lanes = sums.max(axis=2) * (1.0 + self._cast(lane_mult))
        if spares == 0:
            chip = lanes.max(axis=1)
        else:
            kth = n_lanes - 1 - spares
            chip = np.partition(lanes, kth, axis=1)[:, kth]
        out[:] = chip * (1.0 + die_mult)

    def lane_batch(self, rngs, vdd: float, paths_per_lane: int,
                   chain_length: int, out) -> None:
        """Single-lane delays for ``len(rngs)`` samples (seconds).

        Same per-sample stream contract as :meth:`system_batch`, with a
        scalar lane-level draw per sample (a standalone lane sits in one
        spatial-correlation region).
        """
        vdd = float(vdd)
        total = len(rngs)
        row_elems = paths_per_lane * chain_length

        def block(arena, start, stop):
            self._lane_block(arena, rngs[start:stop], vdd, paths_per_lane,
                             chain_length, out[start:stop])

        blocks = self._run_blocks(block, total, row_elems)
        self._record(total, total * row_elems, blocks)

    def _lane_block(self, arena, rngs, vdd, paths_per_lane, chain_length,
                    out) -> None:
        """One internal block of :meth:`lane_batch` (thread-confined)."""
        var = self.tech.variation
        nb = len(rngs)
        shape = (nb, paths_per_lane, chain_length)
        a = self._alloc(arena, "dvth", shape)
        m = self._alloc(arena, "mult", shape)
        staging = self._staging_for(arena, shape[1:])
        die_dvth = np.empty(nb)
        die_mult = np.empty(nb)
        lane_dvth = np.empty(nb)
        lane_mult = np.empty(nb)
        for i, rng in enumerate(rngs):
            (die_dvth[i], die_mult[i],
             lane_dvth[i], lane_mult[i]) = self._draw_correlated(rng, None)
            var.fill_gates(rng, a[i], m[i], staging=staging)
        corr = die_dvth + lane_dvth
        if self.fused:
            np.add(a, self._cast(corr)[:, None, None], out=a)
            sums = arena.ws("paths", shape[:2], self._dtype)
            self._fused_path_sums(arena, vdd, a, m, sums)
        else:
            a = a + self._cast(corr)[:, None, None]
            sums = self._reference_path_sums(vdd, a, m)
        lane = sums.max(axis=1) * (1.0 + self._cast(lane_mult))
        out[:] = lane * (1.0 + die_mult)

    def chain_batch(self, rng, vdd: float, n_samples: int, chain_length: int,
                    include_die: bool = True):
        """Delays of ``n_samples`` co-located FO4 chains (seconds).

        Keeps the legacy single-stream draw order (all gate thresholds,
        all gate multipliers, then die and lane draws from the *same*
        generator), so chain results for a given seed are unchanged by
        the kernel rewrite.  Draws are single-stream and therefore
        serial; the fused *evaluation* still blocks over rows (the
        per-row delay sums are independent), so the thread pool
        parallelises it too without moving a bit.
        """
        var = self.tech.variation
        vdd = float(vdd)
        shape = (n_samples, chain_length)
        arena = self.arena()
        a = self._alloc(arena, "dvth", shape)
        m = self._alloc(arena, "mult", shape)
        var.fill_gates(rng, a, m, staging=self._staging_for(arena, shape))
        if include_die:
            die = var.sample_dies(rng, n_samples)
            lane = var.sample_lanes(rng, n_samples)
            corr = die.dvth + lane.dvth
            corr_mult = (1.0 + die.mult) * (1.0 + lane.mult)
        if self.fused:
            if include_die:
                np.add(a, self._cast(corr)[:, None], out=a)
            out = np.empty(n_samples, dtype=self._dtype)

            def block(blk_arena, start, stop):
                self._fused_path_sums(blk_arena, vdd, a[start:stop],
                                      m[start:stop], out[start:stop])

            blocks = self._run_blocks(block, n_samples, chain_length)
            if include_die:
                np.multiply(out, self._cast(corr_mult), out=out)
        else:
            blocks = 1
            if include_die:
                a = a + self._cast(corr)[:, None]
            out = self._reference_path_sums(vdd, a, m)
            if include_die:
                out = out * self._cast(corr_mult)
        self._record(n_samples, n_samples * chain_length, blocks)
        return out

    # -- observability -------------------------------------------------------

    def _record(self, rows: int, gate_evals: int, blocks: int) -> None:
        """One batch's counters, recorded on the *calling* thread.

        Aggregated per batch (not per block) so pool threads never race
        on the registry; the workspace gauge reflects every arena.
        """
        _obs_counter("kernels.batches").inc()
        _obs_counter("kernels.blocks").inc(int(blocks))
        _obs_counter("kernels.gate_evals").inc(int(gate_evals))
        _obs_gauge("kernels.workspace_bytes").set(self.workspace_nbytes)
        _obs_gauge("kernels.threads").set(float(_POOL.threads))
