"""Kernel thread pool: parity matrix, process composition, workspaces.

Every fused Monte-Carlo batch runs as balanced blocks on the process's
kernel thread pool (:class:`repro.core.kernels.BlockPool`).  These tests
pin the pool's width through the ``kernel_pool`` fixture and require the
same bits at every width, block budget and process count.  The block
planner, fork safety and CPU-affinity sizing are covered in
``tests/test_kernel_threads.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import BlockPool, MonteCarloKernel, plan_blocks
from repro.core.montecarlo import MonteCarloEngine
from repro.devices.technology import available_technologies, get_technology
from repro.errors import ConfigurationError
from repro.obs.api import activate_obs, build_obs
from repro.resilience import (
    FaultLedger,
    RetryPolicy,
    activate_ledger,
    install_faults,
    parse_faults,
)
from repro.runtime import ParallelSampler, build_runtime, \
    release_worker_workspaces
from repro.runtime.context import activate_runtime

SMALL_ARCH = dict(width=4, paths_per_lane=3, chain_length=5)
SYS_KW = dict(width=6, paths_per_lane=4, chain_length=7, spares=1)

#: Small enough that every parity batch splits into several internal
#: blocks, so the pool actually fans out.
TINY_BLOCKS = 97


def test_threaded_thread_count_validated():
    with pytest.raises(ConfigurationError):
        BlockPool(threads=0)
    with pytest.raises(ConfigurationError):
        plan_blocks(10, 5, 100, threads=0)


# -- parity matrix: bit-identical at every thread count -----------------------


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("node", available_technologies())
def test_threaded_system_parity_matrix(node, precision, kernel_pool):
    """4 nodes x both precisions: 3 threads == 1 thread, bit for bit."""
    tech = get_technology(node)
    kw = dict(n_chips=24, batch_size=24, **SYS_KW)
    kernel_pool(1)
    ref = MonteCarloEngine(tech, seed=3,
                           precision=precision).system_delays(0.6, **kw)
    kernel_pool(3)
    thr = MonteCarloEngine(tech, seed=3, precision=precision,
                           block_elems=TINY_BLOCKS
                           ).system_delays(0.6, **kw)
    np.testing.assert_array_equal(thr, ref)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_threaded_lane_and_chain_parity(tech90, precision, kernel_pool):
    kernel_pool(1)
    ref = MonteCarloEngine(tech90, seed=5, precision=precision)
    ref_lanes = ref.lane_delays(0.55, paths_per_lane=4, chain_length=6,
                                n_samples=40, batch_size=40)
    ref_chains = ref.chain_delays(0.5, 12, 50)
    kernel_pool(3)
    thr = MonteCarloEngine(tech90, seed=5, precision=precision,
                           block_elems=29)
    np.testing.assert_array_equal(
        thr.lane_delays(0.55, paths_per_lane=4, chain_length=6,
                        n_samples=40, batch_size=40), ref_lanes)
    np.testing.assert_array_equal(thr.chain_delays(0.5, 12, 50),
                                  ref_chains)


def test_threaded_thread_count_invariance(tech22, kernel_pool):
    """1, 2 and 8 threads all produce the identical bits."""
    kw = dict(n_chips=20, batch_size=20, **SYS_KW)
    outs = []
    for n in (1, 2, 8):
        kernel_pool(n)
        outs.append(MonteCarloEngine(tech22, seed=9,
                                     block_elems=TINY_BLOCKS
                                     ).system_delays(0.6, **kw))
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[0], outs[2])


def test_threaded_matches_reference_path(tech90, kernel_pool):
    """Fused on 3 threads == unfused naive reference (the PR-5 gate)."""
    kw = dict(n_chips=16, batch_size=16, **SYS_KW)
    kernel_pool(3)
    thr = MonteCarloEngine(tech90, seed=7,
                           block_elems=TINY_BLOCKS).system_delays(0.6, **kw)
    ref = MonteCarloEngine(tech90, seed=7, fused=False).system_delays(
        0.6, **kw)
    np.testing.assert_array_equal(thr, ref)


# -- composition with process sharding ----------------------------------------


def test_threaded_composes_with_jobs_bit_identical(tech90, kernel_pool,
                                                   fake_cpus):
    """Threads inside 2 workers == a 1-thread in-process run."""
    kw = dict(n_chips=96, spares=0, root_seed=11, batch_size=32,
              block_elems=TINY_BLOCKS, **SMALL_ARCH)
    kernel_pool(1)
    with ParallelSampler(1, shard_size=16) as serial:
        baseline = serial.system_delays(tech90, 0.6, **kw)
    fake_cpus(4)           # each of the 2 workers runs 2 threads
    kernel_pool(4)
    with ParallelSampler(2, shard_size=16) as pooled:
        threaded = pooled.system_delays(tech90, 0.6, **kw)
    np.testing.assert_array_equal(threaded, baseline)


def test_threaded_under_worker_crash_bit_identical(tech90, kernel_pool,
                                                   fake_cpus):
    """Chaos recovery (respawn -> serial fallback) keeps thread parity."""
    kw = dict(n_chips=64, spares=0, root_seed=11, batch_size=32,
              block_elems=TINY_BLOCKS, **SMALL_ARCH)
    kernel_pool(1)
    with ParallelSampler(1, shard_size=16) as serial:
        baseline = serial.system_delays(tech90, 0.6, **kw)
    fake_cpus(4)
    kernel_pool(3)
    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger), \
            install_faults(parse_faults("worker_crash:0:inf")):
        sampler = ParallelSampler(
            2, shard_size=16, retry=RetryPolicy(max_pool_respawns=1))
        try:
            out = sampler.system_delays(tech90, 0.6, **kw)
        finally:
            sampler.close()
    assert ledger.counts()["serial_fallback"] == 1
    np.testing.assert_array_equal(out, baseline)


# -- runtime / CLI plumbing ---------------------------------------------------


def test_build_runtime_validates_backend_and_block_elems():
    """Only the block budget is a runtime setting; backends are gone."""
    with pytest.raises(TypeError):
        build_runtime(backend="threaded")
    with pytest.raises(ConfigurationError):
        build_runtime(block_elems=0)
    runtime = build_runtime(block_elems=1234)
    try:
        assert runtime.block_elems == 1234
        assert not hasattr(runtime, "backend")
    finally:
        runtime.close()


def test_analyzer_monte_carlo_picks_up_runtime_backend():
    """The analyzer's MC engine takes the active runtime's block budget."""
    from repro.core.analyzer import VariationAnalyzer

    analyzer = VariationAnalyzer("90nm", width=4, paths_per_lane=3,
                                 chain_length=5)
    runtime = build_runtime(block_elems=4321)
    try:
        with activate_runtime(runtime):
            engine = analyzer.monte_carlo(seed=1)
        assert engine.kernel.block_elems == 4321
        default = analyzer.monte_carlo(seed=1)
        assert default.kernel.block_elems == kernels.DEFAULT_BLOCK_ELEMS
    finally:
        runtime.close()


def test_cli_rejects_bad_block_elems(capsys):
    from repro.experiments.__main__ import main as cli_main
    assert cli_main(["fig9", "--block-elems", "0"]) == 2
    assert "block_elems" in capsys.readouterr().err


def test_cli_runs_experiment_on_threaded_backend(tmp_path, capsys):
    """Every CLI run uses the kernel threads; ``--backend`` is gone."""
    from repro.experiments.__main__ import main as cli_main
    manifest = tmp_path / "manifest.json"
    assert cli_main(["fig1", "--fast", "--block-elems", "50000",
                     "--metrics", str(manifest)]) == 0
    payload = json.loads(manifest.read_text())
    assert payload["manifest_version"] == 2
    assert "backends" not in payload
    assert payload["environment"]["kernel_threads"] == \
        kernels.kernel_threads()
    with pytest.raises(SystemExit) as exc:
        cli_main(["fig1", "--fast", "--backend", "threaded"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


# -- workspace accounting (staging included) ----------------------------------


def test_workspace_breakdown_counts_float32_staging(tech90, kernel_pool):
    kernel_pool(1)
    kernel = MonteCarloKernel(tech90, precision="float32")
    engine = MonteCarloEngine(tech90, kernel=kernel, seed=0)
    engine.system_delays(0.6, n_chips=8, batch_size=8, **SMALL_ARCH)
    breakdown = kernel.workspace_breakdown()
    # One float64 staging row per gate slab: (lanes, paths, chain) doubles.
    lanes = SMALL_ARCH["width"]
    elems = lanes * SMALL_ARCH["paths_per_lane"] * SMALL_ARCH["chain_length"]
    assert breakdown["staging"] == elems * 8
    assert kernel.workspace_nbytes == sum(breakdown.values())


def test_float64_kernel_has_no_staging(tech90):
    kernel = MonteCarloKernel(tech90)
    engine = MonteCarloEngine(tech90, kernel=kernel, seed=0)
    engine.system_delays(0.6, n_chips=8, batch_size=8, **SMALL_ARCH)
    breakdown = kernel.workspace_breakdown()
    assert "staging" not in breakdown
    assert kernel.workspace_nbytes == sum(breakdown.values())


def test_threaded_arenas_release_across_threads(tech22, kernel_pool):
    kernel_pool(2)
    kernel = MonteCarloKernel(tech22, block_elems=TINY_BLOCKS)
    engine = MonteCarloEngine(tech22, kernel=kernel, seed=0)
    engine.system_delays(0.6, n_chips=20, batch_size=20, **SYS_KW)
    assert kernel.workspace_nbytes > 0
    kernel.release_workspaces()
    assert kernel.workspace_nbytes == 0


def test_release_worker_workspaces_frees_driver_kernels(tech90):
    release_worker_workspaces()   # start clean (module-global memo)
    with ParallelSampler(1, shard_size=16) as sampler:
        sampler.system_delays(tech90, 0.6, n_chips=32, spares=0,
                              root_seed=3, **SMALL_ARCH)
    assert release_worker_workspaces() > 0
    assert release_worker_workspaces() == 0


def test_serial_fallback_releases_workspaces(tech90):
    """The fallback path must not pin shard workspaces in the driver."""
    release_worker_workspaces()
    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger), \
            install_faults(parse_faults("worker_crash:0:inf")):
        sampler = ParallelSampler(
            2, shard_size=16, retry=RetryPolicy(max_pool_respawns=1))
        try:
            sampler.system_delays(tech90, 0.6, n_chips=48, spares=0,
                                  root_seed=3, batch_size=16, **SMALL_ARCH)
        finally:
            sampler.close()
    assert ledger.counts()["serial_fallback"] == 1
    # Every fallback shard released after itself: nothing left to free.
    assert release_worker_workspaces() == 0


# -- metrics ------------------------------------------------------------------


def test_threaded_backend_metrics_emitted(tech22, kernel_pool):
    kernel_pool(2)
    obs = build_obs(metrics=True)
    with activate_obs(obs):
        MonteCarloEngine(tech22, seed=0, block_elems=TINY_BLOCKS
                         ).system_delays(0.6, n_chips=20, batch_size=20,
                                         **SYS_KW)
    assert obs.metrics.counter("kernels.blocks").value > 1
    assert obs.metrics.gauge("kernels.threads").value == 2.0
    util = obs.metrics.gauge("kernels.thread_utilization").value
    assert 0.0 < util <= 1.0


def test_kernel_accepts_none_block_elems(tech90):
    assert MonteCarloKernel(tech90, block_elems=None).block_elems == \
        kernels.DEFAULT_BLOCK_ELEMS
    with pytest.raises(TypeError):
        MonteCarloKernel(tech90, backend="threaded")
