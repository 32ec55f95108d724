"""Validate observability artifacts (CI gate).

Checks a Chrome trace-event file and a run manifest against the schemas
in :mod:`repro.obs.manifest`, plus structural invariants the schemas
cannot express: the trace must contain at least one complete span, the
manifest's cache ledger must reconcile, with ``--expect-workers`` the
trace must contain spans recorded in at least two distinct processes
(proof that pool workers handed their span batches back), with
``--expect-fault-events KIND`` (repeatable) the manifest's resilience
ledger must contain at least one event of each named kind (proof that a
chaos run actually exercised its recovery path), and with
``--forbid-fault-events KIND`` (repeatable) it must contain none (proof
that a clean run needed no recovery, e.g. no hung pool worker).

Serving telemetry artifacts are covered too: ``--openmetrics FILE``
checks a ``GET /metrics`` scrape against the OpenMetrics structural
rules (``# EOF``, cumulative buckets, ``+Inf`` == count), and
``--flight FILE`` checks a flight-recorder dump (schema, monotonic
``seq``, drop-counter arithmetic).  Serve manifests (``targets ==
["serve"]``) are recognised automatically: they must record served
requests and skip the experiment-stage requirement.

Usage::

    python scripts/validate_obs.py --trace trace.json --manifest m.json
    python scripts/validate_obs.py --trace t2.json --expect-workers
    python scripts/validate_obs.py --manifest chaos.json \
        --expect-fault-events pool_respawn
    python scripts/validate_obs.py --manifest tail.json \
        --forbid-fault-events hung_worker_timeout
    python scripts/validate_obs.py --openmetrics metrics.txt \
        --flight flight.json --manifest serve.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.flight import FLIGHT_SCHEMA                   # noqa: E402
from repro.obs.manifest import (                             # noqa: E402
    MANIFEST_SCHEMA,
    TRACE_SCHEMA,
    validate_schema,
)
from repro.obs.openmetrics import check_openmetrics          # noqa: E402


def check_trace(path: Path, expect_workers: bool) -> list:
    doc = json.loads(path.read_text(encoding="utf-8"))
    errors = validate_schema(doc, TRACE_SCHEMA)
    spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    if not spans:
        errors.append(f"{path}: no complete ('X') span events")
    for e in spans:
        if "ts" not in e or "dur" not in e:
            errors.append(f"{path}: span {e.get('name')!r} lacks ts/dur")
            break
    pids = {e.get("pid") for e in spans}
    if expect_workers and len(pids) < 2:
        errors.append(f"{path}: expected spans from >=2 processes "
                      f"(pool workers), saw pids {sorted(pids)}")
    if not errors:
        print(f"ok: {path} — {len(spans)} spans across "
              f"{len(pids)} process(es)")
    return errors


def check_manifest(path: Path, expect_fault_events=(),
                   forbid_fault_events=()) -> list:
    doc = json.loads(path.read_text(encoding="utf-8"))
    errors = validate_schema(doc, MANIFEST_SCHEMA)
    serving = doc.get("run", {}).get("targets") == ["serve"]
    cache = doc.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    if lookups == 0 and not serving:
        errors.append(f"{path}: cache ledger is empty "
                      f"(no quantile lookups recorded)")
    if not doc.get("cards"):
        errors.append(f"{path}: no technology-card fingerprints")
    stages = doc.get("stages", {})
    if serving:
        # A serve run has no experiment stages; it must instead show
        # actual served traffic (and its flight section, if present,
        # must itself validate).
        counters = doc.get("metrics", {}).get("counters", {})
        if counters.get("serve.requests", 0) < 1:
            errors.append(f"{path}: serve manifest records no requests")
        if "flight" in doc:
            errors += [f"{path} (flight): {e}"
                       for e in _flight_errors(doc["flight"])]
    elif not any(name.startswith("experiment.") for name in stages):
        errors.append(f"{path}: no experiment.* stage recorded")
    resilience = doc.get("resilience", {})
    counts = resilience.get("counts", {})
    events = resilience.get("events", [])
    if sorted(counts) != sorted({e.get("event") for e in events
                                 if isinstance(e, dict)}):
        errors.append(f"{path}: resilience counts do not reconcile with "
                      f"the event list")
    for kind in expect_fault_events or ():
        if counts.get(kind, 0) < 1:
            errors.append(f"{path}: expected >=1 {kind!r} resilience "
                          f"event, ledger has {sorted(counts) or 'none'}")
    for kind in forbid_fault_events or ():
        if counts.get(kind, 0):
            errors.append(f"{path}: expected no {kind!r} resilience "
                          f"event, ledger has {counts[kind]}")
    if not errors:
        print(f"ok: {path} — targets {doc['run']['targets']}, "
              f"cache {cache.get('hits')}h/{cache.get('misses')}m, "
              f"{len(stages)} stages, {len(events)} resilience event(s)")
    return errors


def _flight_errors(doc: dict) -> list:
    """Structural checks on one flight-recorder snapshot dict."""
    errors = validate_schema(doc, FLIGHT_SCHEMA)
    if errors:
        return errors
    if doc.get("kind") != "repro-flight-recorder":
        errors.append(f"kind is {doc.get('kind')!r}, expected "
                      "'repro-flight-recorder'")
    events = doc.get("events", [])
    seqs = [e.get("seq") for e in events]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        errors.append("event seq numbers are not strictly increasing")
    if doc.get("dropped") != doc.get("total") - len(events):
        errors.append(
            f"drop counter does not reconcile: total {doc.get('total')} "
            f"- retained {len(events)} != dropped {doc.get('dropped')}")
    if len(events) > doc.get("capacity", 0) > 0:
        errors.append(f"{len(events)} events exceed capacity "
                      f"{doc.get('capacity')}")
    return errors


def check_flight(path: Path) -> list:
    doc = json.loads(path.read_text(encoding="utf-8"))
    errors = [f"{path}: {e}" for e in _flight_errors(doc)]
    if not errors:
        print(f"ok: {path} — {len(doc['events'])} events retained, "
              f"{doc['dropped']} dropped of {doc['total']}")
    return errors


def check_openmetrics_file(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    errors = [f"{path}: {p}" for p in check_openmetrics(text)]
    if not errors:
        families = sum(1 for ln in text.splitlines()
                       if ln.startswith("# TYPE "))
        print(f"ok: {path} — {families} metric families")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=Path, default=None,
                        help="Chrome trace-event JSON to validate")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="run manifest JSON to validate")
    parser.add_argument("--openmetrics", type=Path, default=None,
                        help="OpenMetrics text scrape to validate")
    parser.add_argument("--flight", type=Path, default=None,
                        help="flight-recorder snapshot JSON to validate")
    parser.add_argument("--expect-workers", action="store_true",
                        help="require spans from >=2 distinct pids")
    parser.add_argument("--expect-fault-events", action="append",
                        metavar="KIND", default=[],
                        help="require >=1 resilience ledger event of KIND "
                             "in the manifest (repeatable)")
    parser.add_argument("--forbid-fault-events", action="append",
                        metavar="KIND", default=[],
                        help="fail if the manifest's resilience ledger "
                             "holds any event of KIND (repeatable)")
    args = parser.parse_args(argv)
    if all(a is None for a in (args.trace, args.manifest,
                               args.openmetrics, args.flight)):
        parser.error("nothing to validate: pass --trace, --manifest, "
                     "--openmetrics and/or --flight")

    errors = []
    if args.trace is not None:
        errors += check_trace(args.trace, args.expect_workers)
    if args.manifest is not None:
        errors += check_manifest(args.manifest, args.expect_fault_events,
                                 args.forbid_fault_events)
    if args.openmetrics is not None:
        errors += check_openmetrics_file(args.openmetrics)
    if args.flight is not None:
        errors += check_flight(args.flight)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
