"""Run manifests: bit-reproducibility provenance for experiment artifacts.

A manifest is one JSON document describing everything that determined an
experiment run's numbers — root seed, technology-card fingerprints,
package and numpy versions, worker count and kernel threads,
persistent-cache state before and after, per-stage profiler counters and
the full metrics snapshot — written by ``python -m repro.experiments ...
--metrics FILE``.

Identical re-runs (same command, same starting cache state) produce
identical manifests *modulo timing fields*: every wall-clock quantity
lives under a key matched by :data:`TIMING_KEYS` so
:func:`strip_timing` can reduce a manifest to its deterministic core
(used by the tests and ``scripts/validate_obs.py``).

The module also carries lightweight JSON schemas for the manifest and the
Chrome trace-event file plus :func:`validate_schema`, a dependency-free
subset validator (``type`` / ``required`` / ``properties`` / ``items``),
so CI can check both artifacts without installing ``jsonschema``.
"""

from __future__ import annotations

import json
import os
import platform

from repro.obs.flight import FLIGHT_SCHEMA as _FLIGHT_SCHEMA_REF

__all__ = ["MANIFEST_SCHEMA", "TRACE_SCHEMA", "TIMING_KEYS",
           "build_manifest", "write_manifest", "cache_file_state",
           "strip_timing", "validate_schema"]

MANIFEST_VERSION = 2

#: Key names (exact) holding wall-clock data; stripped when comparing
#: manifests for determinism.  ``t_s`` is the flight recorder's event
#: timestamp; ``kernels.thread_utilization`` is a gauge every
#: multi-block Monte-Carlo batch sets.
TIMING_KEYS = frozenset({
    "wall_s", "elapsed_wall_s", "timing", "worker_utilization", "t_s",
    "kernels.thread_utilization",
})


def cache_file_state(path: str | None = None) -> dict:
    """Live entry count and byte size of the persistent quantile-cache file.

    Defaults to the active cache location
    (:func:`repro.runtime.cache.default_cache_dir`).  Entries are counted
    by :func:`repro.runtime.cache.read_entries`: only records that
    validate, with no side effects on the file, counters or ledger; a
    missing, corrupt or other-version file has none.
    """
    from repro.runtime.cache import default_cache_dir, read_entries
    if path is None:
        path = os.path.join(default_cache_dir(), "quantiles.json")
    state = {"path": str(path), "entries": len(read_entries(path)),
             "bytes": 0}
    try:
        state["bytes"] = os.path.getsize(path)
    except OSError:
        pass
    return state


def build_manifest(*, targets, fast: bool, jobs: int, root_seed: int,
                   profiler, metrics, cache_before: dict,
                   cache_after: dict, elapsed_wall_s: float,
                   trace_file: str | None = None,
                   resilience: dict | None = None,
                   faults: str | None = None,
                   flight: dict | None = None) -> dict:
    """Assemble the provenance manifest for one finished run.

    ``profiler`` is a :class:`~repro.runtime.profile.Profiler` (or
    ``None``), ``metrics`` a
    :class:`~repro.obs.metrics.MetricsRegistry` (or ``None``); both are
    snapshotted, not referenced.  ``resilience`` is the run's fault
    ledger (:meth:`~repro.resilience.ledger.FaultLedger.as_dict`) and
    ``faults`` the ``--inject-faults`` spec, if any — together they make
    every recovery auditable from the artifact alone.
    ``environment.kernel_threads`` records how many threads the
    building process runs Monte-Carlo kernel blocks on
    (:func:`repro.core.kernels.kernel_threads`).  ``flight`` is the
    serving flight-recorder snapshot
    (:meth:`repro.obs.flight.FlightRecorder.snapshot`), attached only
    for serve runs so one-shot experiment manifests stay unchanged.
    """
    import numpy as np

    from repro._version import __version__
    from repro.core.kernels import kernel_threads
    from repro.devices.technology import available_technologies, get_technology
    from repro.runtime.cache import technology_fingerprint

    metric_snap = metrics.as_dict() if metrics is not None else {}
    counters = metric_snap.get("counters", {})
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "kind": "repro-run-manifest",
        "run": {
            "targets": [str(t) for t in targets],
            "fast": bool(fast),
            "jobs": int(jobs),
            "root_seed": int(root_seed),
            "faults": str(faults) if faults else None,
        },
        "environment": {
            "package_version": __version__,
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "kernel_threads": kernel_threads(),
        },
        "cards": {node: technology_fingerprint(get_technology(node))
                  for node in available_technologies()},
        "cache": {
            "path": cache_before.get("path"),
            "before": {k: cache_before[k] for k in ("entries", "bytes")},
            "after": {k: cache_after[k] for k in ("entries", "bytes")},
            "hits": int(counters.get("quantile_cache.hits", 0)),
            "misses": int(counters.get("quantile_cache.misses", 0)),
        },
        "stages": profiler.as_dict() if profiler is not None else {},
        "metrics": metric_snap,
        "resilience": (resilience if resilience is not None
                       else {"events": [], "counts": {}}),
        "trace_file": trace_file,
        "timing": {"elapsed_wall_s": float(elapsed_wall_s)},
    }
    if flight is not None:
        manifest["flight"] = flight
    return manifest


def write_manifest(path: str, manifest: dict) -> None:
    """Write ``manifest`` as stable (sorted-key) JSON at ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def strip_timing(obj):
    """A deep copy of ``obj`` with every :data:`TIMING_KEYS` field removed.

    Two manifests from identical re-runs are equal after stripping.
    """
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


# -- schemas -----------------------------------------------------------------

_STAGE_SCHEMA = {
    "type": "object",
    "required": ["calls", "wall_s", "samples"],
    "properties": {"calls": {"type": "number"},
                   "wall_s": {"type": "number"},
                   "samples": {"type": "number"}},
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["manifest_version", "kind", "run", "environment", "cards",
                 "cache", "stages", "metrics", "resilience",
                 "timing"],
    "properties": {
        "manifest_version": {"type": "number"},
        "kind": {"type": "string"},
        "run": {
            "type": "object",
            "required": ["targets", "fast", "jobs", "root_seed"],
            "properties": {
                "targets": {"type": "array", "items": {"type": "string"}},
                "fast": {"type": "boolean"},
                "jobs": {"type": "number"},
                "root_seed": {"type": "number"},
            },
        },
        "environment": {
            "type": "object",
            "required": ["package_version", "numpy_version",
                         "python_version", "kernel_threads"],
            "properties": {"kernel_threads": {"type": "number"}},
        },
        "cards": {"type": "object"},
        "cache": {
            "type": "object",
            "required": ["before", "after", "hits", "misses"],
            "properties": {"hits": {"type": "number"},
                           "misses": {"type": "number"}},
        },
        "stages": {"type": "object", "additional": _STAGE_SCHEMA},
        "metrics": {"type": "object"},
        "resilience": {
            "type": "object",
            "required": ["events", "counts"],
            "properties": {
                "events": {
                    "type": "array",
                    "items": {"type": "object", "required": ["event"]},
                },
                "counts": {"type": "object"},
            },
        },
        "timing": {"type": "object"},
        "flight": _FLIGHT_SCHEMA_REF,
    },
}

TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"type": "string"},
                    "ts": {"type": "number"},
                    "dur": {"type": "number"},
                    "pid": {"type": "number"},
                    "tid": {"type": "number"},
                    "args": {"type": "object"},
                },
            },
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "boolean": bool,
}


def validate_schema(obj, schema, path: str = "$") -> list:
    """Errors from checking ``obj`` against a mini JSON schema.

    Supports ``type``, ``required``, ``properties``, ``items`` and
    ``additional`` (a schema applied to every value of an object not
    listed in ``properties``).  Returns a list of human-readable error
    strings; empty means valid.
    """
    errors = []
    expected = schema.get("type")
    if expected is not None:
        pytype = _TYPES[expected]
        if isinstance(obj, bool) and expected == "number":
            errors.append(f"{path}: expected number, got boolean")
            return errors
        if not isinstance(obj, pytype):
            errors.append(
                f"{path}: expected {expected}, got {type(obj).__name__}")
            return errors
    if isinstance(obj, dict):
        for key in schema.get("required", ()):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in obj:
                errors.extend(validate_schema(obj[key], sub,
                                              f"{path}.{key}"))
        extra = schema.get("additional")
        if extra is not None:
            for key, value in obj.items():
                if key not in props:
                    errors.extend(validate_schema(value, extra,
                                                  f"{path}.{key}"))
    if isinstance(obj, list):
        items = schema.get("items")
        if items is not None:
            for i, value in enumerate(obj):
                errors.extend(validate_schema(value, items,
                                              f"{path}[{i}]"))
    return errors
