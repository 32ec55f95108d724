"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the common failure categories below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TechnologyError(ReproError):
    """An unknown technology node was requested, or a technology card is
    internally inconsistent (e.g. a non-positive sigma)."""


class VoltageRangeError(ReproError, ValueError):
    """A supply voltage is outside the range a model is valid for."""


class CalibrationError(ReproError):
    """The calibration fitter failed to converge or was given anchors it
    cannot represent."""


class ConvergenceError(ReproError):
    """An iterative solver (spare count, voltage margin) failed to find a
    feasible answer within its search bounds."""


class NetlistError(ReproError):
    """A structural netlist is malformed (dangling net, combinational
    cycle, duplicate cell name, ...)."""


class RoutingError(ReproError):
    """An XRAM crossbar configuration is infeasible (more faulty lanes
    than spares, non-permutation routing request, ...)."""


class ConfigurationError(ReproError, ValueError):
    """An API was called with inconsistent parameters (e.g. more spares
    dropped than lanes instantiated)."""


class ShardExecutionError(ReproError):
    """One or more parallel shards failed even after the runtime's retry
    budget was exhausted.  Carries the failed shard ids and the last
    error observed per shard, so callers can report exactly which part
    of a sweep could not be recovered."""

    def __init__(self, message: str, *, shards=(), causes=()) -> None:
        super().__init__(message)
        self.shards = tuple(shards)
        self.causes = tuple(causes)


class SolverNumericalError(ReproError):
    """The quantile solver produced a non-finite result that neither the
    robust bracketing path nor the Monte-Carlo last resort could
    recover.  Carries the offending ``(vdd, q, spares)`` coordinates."""

    def __init__(self, message: str, *, points=()) -> None:
        super().__init__(message)
        self.points = tuple(points)


class InjectedFaultError(ReproError):
    """An artificial failure raised by the deterministic fault-injection
    lab (:mod:`repro.resilience.faultlab`); only ever seen under
    ``REPRO_FAULTS`` / ``--inject-faults``."""


class FaultSpecError(ConfigurationError):
    """A fault-injection spec string could not be parsed (unknown fault
    kind, malformed target or count)."""
