"""Execution runtime: parallel sharded sampling, persistent quantile
cache, and lightweight profiling.

The statistics layer (:mod:`repro.core`) stays pure and serial; this
package supplies the *how fast* — see :class:`ParallelSampler` for
reproducible process-parallel sampling, :class:`QuantileCache` for the
on-disk memo of deterministic sign-off quantiles, and
:class:`ReproRuntime` / :func:`activate_runtime` for threading a worker
pool and profiler through the experiment registry
(``python -m repro.experiments --jobs N --profile``).
"""

from __future__ import annotations

from repro.runtime.cache import (
    ENV_CACHE_DIR,
    ENV_CACHE_DISABLE,
    QuantileCache,
    technology_fingerprint,
)
from repro.runtime.context import (
    ReproRuntime,
    activate_runtime,
    current_runtime,
    profiled_stage,
)
from repro.runtime.parallel import (
    DEFAULT_SHARD_SIZE,
    DEFAULT_SHM_MIN_BYTES,
    ParallelSampler,
    plan_shards,
    release_worker_workspaces,
    shard_seeds,
)
from repro.runtime.profile import Profiler, StageStats

__all__ = [
    "ParallelSampler",
    "QuantileCache",
    "ReproRuntime",
    "Profiler",
    "StageStats",
    "activate_runtime",
    "current_runtime",
    "profiled_stage",
    "build_runtime",
    "plan_shards",
    "release_worker_workspaces",
    "shard_seeds",
    "technology_fingerprint",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_SHM_MIN_BYTES",
    "ENV_CACHE_DIR",
    "ENV_CACHE_DISABLE",
]


def build_runtime(jobs: int = 1, profile: bool = False,
                  trace: bool = False, metrics: bool = False,
                  retry=None, faults=None,
                  precision: str = "float64",
                  block_elems: int | None = None) -> ReproRuntime:
    """A ready-to-activate runtime with a sampler sized to ``jobs``.

    ``trace`` turns on span collection (``--trace FILE``); ``metrics``
    turns on the counter/gauge/histogram registry (``--metrics FILE``).
    ``--profile`` implies the metrics registry so the cache and solver
    counters can be rendered alongside the stage table.  ``retry`` is an
    optional :class:`~repro.resilience.policy.RetryPolicy` for the
    sampler's fault-tolerant dispatcher, and ``faults`` an optional
    :class:`~repro.resilience.faultlab.FaultPlan` installed while the
    runtime is active (``--inject-faults``).  ``precision`` sets the
    run's Monte-Carlo dtype policy (``--mc-precision``) and
    ``block_elems`` the kernels' per-block element budget
    (``--block-elems``; must be >= 1).

    Building a runtime starts no thread or process: the sampler's
    process pool starts on its first multi-shard dispatch and the
    kernels' thread pool on the first batch with more than one block
    (see :mod:`repro.core.kernels` for how both are sized).
    """
    from repro.errors import ConfigurationError
    from repro.obs.api import build_obs

    jobs = int(jobs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if block_elems is not None:
        block_elems = int(block_elems)
        if block_elems < 1:
            raise ConfigurationError(
                f"block_elems must be >= 1, got {block_elems}")
    runtime = ReproRuntime(
        jobs=jobs, profile=bool(profile),
        obs=build_obs(trace=bool(trace),
                      metrics=bool(metrics or profile or trace)),
        faults=faults, precision=str(precision),
        block_elems=block_elems)
    runtime.sampler = ParallelSampler(jobs,
                                      profiler=runtime.profiler,
                                      retry=retry)
    return runtime
