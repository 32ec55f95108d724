"""The active runtime: worker pool + profiler threaded through the stack.

The experiment registry and :class:`~repro.core.analyzer.VariationAnalyzer`
sit several layers apart, and forcing every runner signature to carry a
``runtime=`` argument would churn the whole experiments package.  Instead a
:class:`ReproRuntime` is *activated* for the duration of a run
(:func:`activate_runtime`), and the layers below consult
:func:`current_runtime` — the analyzer routes ensemble sampling through the
active :class:`~repro.runtime.parallel.ParallelSampler` and records its hot
stages on the active profiler via :func:`profiled_stage`.

A :class:`contextvars.ContextVar` keeps activations re-entrant and safe
under nested/concurrent use (each pool worker simply has no active runtime
unless it activates its own).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.obs.api import NOOP_OBS, Observability, activate_obs
from repro.resilience.faultlab import install_faults
from repro.resilience.ledger import FaultLedger, activate_ledger
from repro.runtime.profile import Profiler

__all__ = ["ReproRuntime", "current_runtime", "activate_runtime",
           "profiled_stage"]

_ACTIVE: ContextVar = ContextVar("repro_runtime", default=None)


@dataclass
class ReproRuntime:
    """One run's execution context.

    Parameters
    ----------
    jobs:
        Worker-process budget (1 = fully in-process).
    profile:
        Whether the CLI should render the profiler at the end.
    sampler:
        A :class:`~repro.runtime.parallel.ParallelSampler` (or ``None`` for
        a serial runtime); typed loosely to keep this module import-light.
    profiler:
        Stage counters shared by every layer of the run.
    obs:
        The run's :class:`~repro.obs.api.Observability` (tracer +
        metrics); defaults to the shared no-op context, so
        instrumentation below stays free unless the CLI asked for
        ``--trace`` / ``--metrics`` / ``--profile``.
    ledger:
        The run's :class:`~repro.resilience.ledger.FaultLedger` — every
        fault and recovery event lands here and is embedded in the run
        manifest.
    faults:
        Optional :class:`~repro.resilience.faultlab.FaultPlan` installed
        for the duration of the run (``--inject-faults``).
    precision:
        Monte-Carlo dtype policy for the run (``"float64"`` default,
        ``"float32"`` for bandwidth-bound validation sweeps); consumed
        by :meth:`~repro.core.analyzer.VariationAnalyzer.monte_carlo`
        and the sampler's MC shards — see :mod:`repro.core.kernels`.
    block_elems:
        Per-block element budget for the kernels' internal blocking
        (``None`` = kernel default, see
        :data:`~repro.core.kernels.DEFAULT_BLOCK_ELEMS`).  Plumbed
        exactly like ``precision``: the analyzer and the sampler's MC
        shards pick it up from the active runtime.  The kernels' thread
        count is no runtime setting; it follows the CPUs the process
        may use (:func:`~repro.core.kernels.kernel_threads`).
    """

    jobs: int = 1
    profile: bool = False
    sampler: object = None
    profiler: Profiler = field(default_factory=Profiler)
    obs: Observability = field(default_factory=lambda: NOOP_OBS)
    ledger: FaultLedger = field(default_factory=FaultLedger)
    faults: object = None
    precision: str = "float64"
    block_elems: int | None = None

    def close(self) -> None:
        if self.sampler is not None:
            self.sampler.close()


def current_runtime() -> ReproRuntime | None:
    """The runtime activated for the current context, if any."""
    return _ACTIVE.get()


@contextmanager
def activate_runtime(runtime: ReproRuntime):
    """Make ``runtime`` the :func:`current_runtime` inside the block.

    The runtime's observability context, fault ledger and (optional)
    fault plan are activated alongside it, so
    :func:`repro.obs.api.counter` / :func:`~repro.obs.api.span` sites
    resolve to the run's instruments and every recovery event lands on
    the run's ledger.
    """
    token = _ACTIVE.set(runtime)
    try:
        with activate_obs(runtime.obs or NOOP_OBS), \
                activate_ledger(runtime.ledger), \
                install_faults(runtime.faults):
            yield runtime
    finally:
        _ACTIVE.reset(token)


@contextmanager
def profiled_stage(name: str, samples: int = 0):
    """Record the block on the active runtime's profiler (no-op otherwise).

    When the runtime carries a live tracer the block also becomes a span
    of the same name, so ``--profile`` aggregates and ``--trace``
    timelines stay consistent.
    """
    runtime = _ACTIVE.get()
    if runtime is None:
        yield
        return
    obs = runtime.obs or NOOP_OBS
    with runtime.profiler.stage(name, samples), \
            obs.tracer.span(name, samples=samples):
        yield
