"""Resilience layer: graceful degradation for the execution runtime.

The paper's datapath tolerates slow or faulty lanes with spare lanes
(Table 1); this package gives the *runtime* the same property for its own
components.  Three pieces:

* :class:`RetryPolicy` — bounded shard retries, hung-worker deadlines and
  deterministic-jitter backoff consumed by
  :class:`~repro.runtime.parallel.ParallelSampler`, whose recovery ladder
  is retry -> pool respawn/reassignment -> in-process serial fallback.
  Because shards are pure functions of ``SeedSequence``-derived streams,
  every recovered run is bit-identical to the fault-free one.
* :class:`FaultLedger` — the ordered record of every fault and recovery
  event, embedded in run manifests and rendered under ``--profile``.
* :mod:`~repro.resilience.faultlab` — seeded, spec-driven injectors
  (worker crash/hang, shard exception, cache corruption, solver NaN)
  activated via ``REPRO_FAULTS`` / ``--inject-faults SPEC``, so chaos
  scenarios replay deterministically in tests and CI.

The crash-safe cache lives in :mod:`repro.runtime.cache` (checksummed
records, fsynced appends under advisory locks, torn tails ignored then
truncated, quarantine-not-crash reads) and
the solver guardrails in :meth:`ChipDelayEngine.chip_quantile_batch`
(structured :class:`~repro.errors.SolverNumericalError`, scalar-bracketing
then Monte-Carlo fallbacks); both report through the ledger and the
``resilience.*`` metrics.
"""

from __future__ import annotations

from repro.resilience.faultlab import (
    ENV_FAULTS,
    ENV_HANG_SECONDS,
    ENV_SLOW_SECONDS,
    FAULT_KINDS,
    NETWORK_FAULTS,
    WORKER_FAULTS,
    FaultPlan,
    active_plan,
    fire_shard_faults,
    install_faults,
    parse_faults,
    slow_seconds,
)
from repro.resilience.ledger import FaultLedger, activate_ledger, current_ledger
from repro.resilience.policy import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_SHARD_TIMEOUT_S,
    RetryPolicy,
)

__all__ = [
    "RetryPolicy",
    "FaultLedger",
    "FaultPlan",
    "parse_faults",
    "active_plan",
    "install_faults",
    "fire_shard_faults",
    "current_ledger",
    "activate_ledger",
    "FAULT_KINDS",
    "WORKER_FAULTS",
    "NETWORK_FAULTS",
    "ENV_FAULTS",
    "ENV_HANG_SECONDS",
    "ENV_SLOW_SECONDS",
    "slow_seconds",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_SHARD_TIMEOUT_S",
]
