"""Kernel threads: block planner, lazy start, fork safety, CPU sizing."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import (
    DEFAULT_BLOCK_ELEMS,
    BlockPool,
    MonteCarloKernel,
    kernel_threads,
    plan_blocks,
    usable_cpus,
)
from repro.core.montecarlo import MonteCarloEngine
from repro.devices.technology import get_technology
from repro.resilience import FaultLedger, RetryPolicy, activate_ledger
from repro.runtime import ParallelSampler

SYS_KW = dict(width=6, paths_per_lane=4, chain_length=7, spares=1)
ARCH = dict(width=6, paths_per_lane=4, chain_length=7)

#: Splits every test batch into several blocks.
TINY_BLOCKS = 97


# -- block planner -------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(rows=st.integers(0, 600), row_elems=st.integers(1, 200_000),
       budget=st.integers(1, 1_000_000), threads=st.integers(1, 32))
def test_plan_blocks_properties(rows, row_elems, budget, threads):
    spans = plan_blocks(rows, row_elems, budget, threads)
    if rows == 0:
        assert spans == []
        return
    # Contiguous, in order, covering every row, no empty block.
    assert spans[0][0] == 0 and spans[-1][1] == rows
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    sizes = [stop - start for start, stop in spans]
    assert min(sizes) >= 1
    # Balanced to within one row.
    assert max(sizes) - min(sizes) <= 1
    # Within the element budget unless a single row exceeds it.
    assert max(sizes) * row_elems <= budget or max(sizes) == 1
    # A multiple of the thread count whenever there are rows enough.
    fewest = -(-rows // max(1, budget // row_elems))
    wanted = -(-fewest // threads) * threads
    if wanted <= rows:
        assert len(spans) == wanted and len(spans) % threads == 0
    else:
        assert len(spans) == rows


def test_plan_blocks_at_workload_scales():
    # The tail sign-off batch: 64 chips of 32 x 20 x 30 on 2 threads.
    spans = plan_blocks(64, 32 * 20 * 30, DEFAULT_BLOCK_ELEMS, 2)
    sizes = [stop - start for start, stop in spans]
    assert len(spans) == 22 and set(sizes) == {2, 3}
    # Fig-4-scale chips (640k elements) run one chip per block under
    # either budget.
    for budget in (DEFAULT_BLOCK_ELEMS, 1_000_000):
        assert plan_blocks(16, 128 * 100 * 50, budget, 2) == [
            (i, i + 1) for i in range(16)]


# -- the pool ------------------------------------------------------------------


def test_pool_starts_only_for_a_batch_it_would_split():
    pool = BlockPool(2)
    kernel = MonteCarloKernel(get_technology("90nm"))
    seen = []

    def record(arena, start, stop):
        seen.append((start, stop))

    try:
        pool.run(kernel, record, [(0, 5)])
        assert pool._executor is None and seen == [(0, 5)]
        pool.run(kernel, record, [(0, 2), (2, 4), (4, 5)])
        assert pool._executor is not None
        assert sorted(seen[1:]) == [(0, 2), (2, 4), (4, 5)]
    finally:
        pool.close()
    assert BlockPool(1).threads == 1


def test_import_and_build_runtime_start_no_thread():
    code = ("import threading\n"
            "from repro.runtime import build_runtime\n"
            "runtime = build_runtime()\n"
            "print(threading.active_count())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "1"


def test_block_error_raised_after_every_block_ran():
    pool = BlockPool(3)
    kernel = MonteCarloKernel(get_technology("90nm"))
    ran = []

    def block(arena, start, stop):
        ran.append(start)
        if start == 1:
            raise RuntimeError("block 1 failed")

    try:
        with pytest.raises(RuntimeError, match="block 1 failed"):
            pool.run(kernel, block, [(i, i + 1) for i in range(6)])
    finally:
        pool.close()
    assert sorted(ran) == list(range(6))


def test_more_threads_than_cores_under_fast_switching(tech22, kernel_pool):
    """8 threads, a 1 us switch interval: same bits, one arena a thread."""
    kw = dict(n_chips=64, batch_size=64, **SYS_KW)
    kernel_pool(1)
    ref = MonteCarloEngine(tech22, seed=4).system_delays(0.6, **kw)
    kernel_pool(8)
    kernel = MonteCarloKernel(tech22, block_elems=TINY_BLOCKS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs = [MonteCarloEngine(tech22, seed=4, kernel=kernel
                                 ).system_delays(0.6, **kw)
                for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for out in outs:
        np.testing.assert_array_equal(out, ref)
    assert 1 < len(kernel._arenas) <= 8


# -- fork safety ---------------------------------------------------------------


def _child_batch(conn, seed: int) -> None:
    """Runs in a forked child: a multi-block batch on the child's pool."""
    started = kernels._POOL._executor is not None
    tech = get_technology("22nm")
    out = MonteCarloEngine(tech, seed=seed, block_elems=TINY_BLOCKS
                           ).system_delays(0.6, n_chips=20, batch_size=20,
                                           **SYS_KW)
    conn.send((started, kernels._POOL.threads, out))
    conn.close()


def test_forked_child_starts_its_own_pool(tech22, kernel_pool):
    kernel_pool(2)
    ref = MonteCarloEngine(tech22, seed=6, block_elems=TINY_BLOCKS
                           ).system_delays(0.6, n_chips=20, batch_size=20,
                                           **SYS_KW)
    assert kernels._POOL._executor is not None     # parent pool is up
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_batch, args=(send, 6))
    child.start()
    try:
        assert receive.poll(60), "forked child hung on the parent's pool"
        started, threads, out = receive.recv()
    finally:
        child.terminate()
        child.join(10)
    assert not child.is_alive()
    assert not started and threads == 2
    np.testing.assert_array_equal(out, ref)


def test_forked_sampler_after_threaded_batch_finishes_cleanly(
        tech22, kernel_pool, fake_cpus):
    """An in-process pool batch, then a forked 2-worker dispatch."""
    fake_cpus(4)
    kernel_pool()
    kw = dict(n_chips=64, root_seed=5, batch_size=32,
              block_elems=TINY_BLOCKS, **ARCH)
    MonteCarloEngine(tech22, seed=1, block_elems=TINY_BLOCKS).system_delays(
        0.6, n_chips=20, batch_size=20, **SYS_KW)
    assert kernels._POOL._executor is not None
    with ParallelSampler(1, shard_size=16) as serial:
        baseline = serial.system_delays(tech22, 0.6, **kw)
    ledger = FaultLedger()
    with activate_ledger(ledger), ParallelSampler(
            2, shard_size=16,
            retry=RetryPolicy(shard_timeout_s=5)) as pooled:
        out = pooled.system_delays(tech22, 0.6, **kw)
    assert ledger.counts() == {}
    np.testing.assert_array_equal(out, baseline)


# -- sizing by usable CPUs -----------------------------------------------------


def _worker_threads() -> int:
    return kernels._POOL.threads


def test_sizing_follows_the_affinity_mask(fake_cpus):
    fake_cpus(1)
    assert usable_cpus() == 1 and kernel_threads() == 1
    assert BlockPool().threads == 1
    assert ParallelSampler().jobs == 1
    fake_cpus(6)
    assert usable_cpus() == 6 and BlockPool().threads == 6
    assert ParallelSampler().jobs == 6
    assert [kernel_threads(jobs) for jobs in (1, 2, 4, 8)] == [6, 3, 1, 1]
    for jobs, expected in ((2, 3), (3, 2)):
        with ParallelSampler(jobs) as sampler:
            assert sampler._pool().submit(_worker_threads).result(
                timeout=60) == expected
