"""Persistent memo cache for deterministic chip-delay quantiles.

``ChipDelayEngine.chip_quantile`` is a pure function of the technology
card, the architecture parameters and the quadrature orders — yet every
process recomputed it from scratch (a bracketing search plus a Brent solve,
each iteration a full Gauss-Hermite CDF evaluation).  ``python -m
repro.experiments all`` alone re-derives the same sign-off quantiles for
fig4/fig7/table1-4 across runs.

:class:`QuantileCache` memoises those solves on disk so a deterministic
number is never paid for twice, across processes and across runs:

* **Location** — ``$REPRO_CACHE_DIR/quantiles.json`` when the
  ``REPRO_CACHE_DIR`` environment variable is set, else
  ``~/.cache/repro/quantiles.json``.  Set ``REPRO_CACHE_DISABLE=1`` to turn
  the cache off entirely (every ``get`` misses, ``put`` is a no-op).
* **Key** — technology node name + a fingerprint of the full calibrated
  card (so re-calibration invalidates old entries), the architecture
  (width / paths-per-lane / chain-length), the three quadrature orders,
  and the query point (vdd, q, spares).
* **Exactness** — values are stored as ``float.hex()`` strings, so a cache
  hit returns the *exact bytes* of the original solve, not a decimal
  round-trip approximation.
* **Format** — JSON Lines: a ``{"version": 3}`` header line, then one
  compact line per :meth:`QuantileCache.put_many` batch,
  ``[[key, float.hex, crc32], ...]``.  A put appends its own line, so it
  costs O(batch), not O(cache).  When a key repeats, the last record wins.

**Crash safety** (the resilience contract): every record carries a CRC32
keyed on key and value, and concurrent multi-process writers are
serialised with an advisory ``flock`` on a ``.lock`` sidecar, so file
order is commit order.  A put first reads what other writers appended
since this instance last read, then appends its line with a single
``write`` and ``fsync``s it before returning.  A final line without its
newline is a write in flight, or a killed writer's: readers ignore it
without counting it, and the next writer truncates it.  On read, a
complete line that does not parse, or a record that fails its checksum,
is *quarantined* — dropped, counted (``resilience.cache.quarantined``),
recorded in the fault ledger, and transparently recomputed by the
caller; a file whose header does not parse is moved aside to
``<path>.quarantined`` (``resilience.cache.file_quarantined``) and the
run continues with an empty cache; a file of another format version
reads as empty.  Corruption is never fatal.  The whole file is rewritten
— temp file + ``fsync`` + ``os.replace``, so a killed run never leaves it
half written — only when it is missing or of another version, when bad
records were seen (the rewrite drops them), or when it was replaced or
shrank since this instance read it and lacks entries the instance holds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import zlib
from contextlib import contextmanager

from repro.obs.api import counter as _obs_counter
from repro.obs.api import current_obs
from repro.resilience.faultlab import active_plan
from repro.resilience.ledger import current_ledger

try:
    import fcntl
except ImportError:                      # non-POSIX: locks degrade to no-ops
    fcntl = None

__all__ = ["QuantileCache", "technology_fingerprint", "read_entries",
           "ENV_CACHE_DIR", "ENV_CACHE_DISABLE"]

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable disabling the persistent cache ("1"/"true"/...).
ENV_CACHE_DISABLE = "REPRO_CACHE_DISABLE"

#: Format version; v2 added per-entry checksums, v3 made the file an
#: append-only journal.  Files with any other stamp read as empty
#: (recomputed, then rewritten in v3 form).
_FILE_VERSION = 3

#: The first line of every cache file; batch lines follow it.
_HEADER = b'{"version": %d}\n' % _FILE_VERSION

_fingerprints: dict = {}


def _cache_disabled() -> bool:
    return os.environ.get(ENV_CACHE_DISABLE, "").strip().lower() in (
        "1", "true", "yes", "on")


def default_cache_dir() -> str:
    """The directory quantile caches live in (honours ``REPRO_CACHE_DIR``)."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def technology_fingerprint(tech) -> str:
    """A short stable hash of a calibrated technology card.

    Hashes every numeric constant of the card (device model, variation
    model, delay scale), so any re-calibration produces a different
    fingerprint and silently invalidates stale cache entries.
    """
    cached = _fingerprints.get(tech)
    if cached is None:
        payload = json.dumps(dataclasses.asdict(tech), sort_keys=True,
                             default=repr)
        cached = hashlib.sha256(payload.encode()).hexdigest()[:16]
        _fingerprints[tech] = cached
    return cached


def _entry_checksum(key: str, hex_value: str) -> str:
    """CRC32 over key and value, hex-encoded; keyed so swapped entries fail."""
    return "%08x" % zlib.crc32(f"{key}={hex_value}".encode())


def _encode(items) -> bytes:
    """One journal line, ``[[key, float.hex, crc32], ...]``, for ``items``."""
    records = []
    for key, value in items:
        hex_value = value.hex()
        records.append([key, hex_value, _entry_checksum(key, hex_value)])
    return json.dumps(records, separators=(",", ":")).encode() + b"\n"


def _parse_lines(data: bytes):
    """Raw records of the complete lines in ``data``.

    Returns ``(raw, used, bad)``: ``key -> [key, hex, crc]`` with the last
    record of a key winning, the length of ``data`` up to the end of its
    last complete line, and how many malformed records it held (a line
    that does not parse counts once).  A final line without its newline
    is a write in flight: neither read nor counted.
    """
    used = data.rfind(b"\n") + 1
    raw = {}
    bad = 0
    for line in data[:used].split(b"\n")[:-1]:
        try:
            batch = json.loads(line)
        except ValueError:
            bad += 1
            continue
        if not isinstance(batch, list):
            bad += 1
            continue
        for rec in batch:
            if (isinstance(rec, list) and len(rec) == 3
                    and isinstance(rec[0], str)):
                raw[rec[0]] = rec
            else:
                bad += 1
    return raw, used, bad


def _validate(raw: dict):
    """``(entries, bad)``: values of the raw records whose checksums verify."""
    entries = {}
    bad = 0
    for key, (_, hex_value, checksum) in raw.items():
        try:
            value = float.fromhex(hex_value)
        except (TypeError, ValueError):
            bad += 1
            continue
        if _entry_checksum(key, hex_value) == checksum:
            entries[key] = value
        else:
            bad += 1
    return entries, bad


def _is_document(data: bytes) -> bool:
    """True when ``data`` opens with a JSON object (another format's header).

    Version 2 and older files are one indented JSON document, so when the
    first line alone does not parse the whole file is tried.
    """
    for doc in (data.partition(b"\n")[0], data):
        try:
            if isinstance(json.loads(doc), dict):
                return True
        except ValueError:
            pass
    return False


def read_entries(path: str) -> dict:
    """The validated live entries of a cache file, ``key -> value``.

    Has no side effects: nothing is moved aside, counted or recorded in
    the fault ledger.  A missing, unparseable or other-version file reads
    as empty, and bad records are skipped.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return {}
    if not data.startswith(_HEADER):
        return {}
    return _validate(_parse_lines(data[len(_HEADER):])[0])[0]


@contextmanager
def _advisory_lock(path: str):
    """Exclusive advisory flock on ``path + '.lock'`` (no-op off POSIX).

    Creates the cache directory first, so even the first write into a
    fresh directory is serialised — a writer truncates a torn tail only
    because every writer holds this lock.  Lock failures degrade to an
    unlocked write rather than blocking the run.
    """
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except OSError:
        pass
    if fcntl is None:
        yield
        return
    try:
        fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


class QuantileCache:
    """On-disk memo for deterministic chip-delay quantiles.

    Parameters
    ----------
    path:
        Cache file; defaults to ``<cache dir>/quantiles.json`` (see module
        docstring for the directory resolution rules).
    enabled:
        Force the cache on/off; defaults to the ``REPRO_CACHE_DISABLE``
        environment variable.
    """

    def __init__(self, path: str | None = None,
                 enabled: bool | None = None) -> None:
        if path is None:
            path = os.path.join(default_cache_dir(), "quantiles.json")
        self.path = str(path)
        self.enabled = (not _cache_disabled()) if enabled is None else bool(enabled)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self._entries: dict | None = None   # lazy-loaded, key -> value
        self._ident = None       # (st_dev, st_ino) of the file last read
        self._offset = 0         # bytes of that file read so far
        self._rewrite = True     # the next put must write the file whole

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def make_key(tech, *, width: int, paths_per_lane: int, chain_length: int,
                 quad_within: int, quad_corr_vth: int, quad_corr_mult: int,
                 vdd: float, q: float, spares: float) -> str:
        """The canonical cache key for one deterministic quantile."""
        return ":".join((
            tech.name, technology_fingerprint(tech),
            f"w{int(width)}", f"p{int(paths_per_lane)}",
            f"c{int(chain_length)}",
            f"gh{int(quad_within)}-{int(quad_corr_vth)}-{int(quad_corr_mult)}",
            f"v{float(vdd)!r}", f"q{float(q)!r}", f"s{float(spares)!r}",
        ))

    # -- persistence ----------------------------------------------------------

    def _quarantine_file(self) -> None:
        """Move an unparseable cache file aside; never fatal."""
        target = self.path + ".quarantined"
        try:
            os.replace(self.path, target)
        except OSError:
            target = None
        self.quarantined += 1
        _obs_counter("resilience.cache.file_quarantined").inc()
        current_ledger().record("cache_file_quarantined", path=self.path,
                                moved_to=target)

    def _quarantine_entries(self, bad: int) -> None:
        """Count and ledger ``bad`` records dropped on read."""
        if bad:
            self.quarantined += bad
            _obs_counter("resilience.cache.quarantined").inc(bad)
            current_ledger().record("cache_entry_quarantined",
                                    path=self.path, entries=bad)

    def _read_file(self) -> dict:
        """Validated entries of the whole file; corruption quarantines.

        Also notes which file was read and how far, and whether the next
        put must rewrite it rather than append to it.  Never raises.
        """
        self._ident, self._offset, self._rewrite = None, 0, True
        try:
            with open(self.path, "rb") as fh:
                stat = os.fstat(fh.fileno())
                data = fh.read()
        except OSError:
            return {}
        if not data.startswith(_HEADER):
            if not _is_document(data):
                self._quarantine_file()
            return {}           # another version: recomputed, rewritten
        raw, used, bad = _parse_lines(data[len(_HEADER):])
        self._inject_corruption(raw)
        entries, invalid = _validate(raw)
        self._quarantine_entries(bad + invalid)
        self._ident = (stat.st_dev, stat.st_ino)
        self._offset = len(_HEADER) + used
        self._rewrite = bool(bad + invalid)
        return entries

    @staticmethod
    def _inject_corruption(raw: dict) -> None:
        """Fault lab: corrupt the target-th entry (sorted) before validation."""
        plan = active_plan()
        if plan is None or not raw:
            return
        targets = plan.pending("cache_corrupt")
        if not targets:
            return
        keys = sorted(raw)
        for target in targets:
            if plan.consume("cache_corrupt", target):
                key = keys[target % len(keys)]
                raw[key] = [key, "<corrupted-by-faultlab>", "00000000"]

    def _load(self) -> dict:
        if self._entries is None:
            self._entries = self._read_file() if self.enabled else {}
        return self._entries

    def _catch_up(self):
        """Merge what other writers committed since this instance read.

        Runs under the lock.  Returns a descriptor to append to, or
        ``None`` when the file must be rewritten whole.
        """
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND)
        except OSError:
            return None                                  # missing
        try:
            stat = os.fstat(fd)
            if ((stat.st_dev, stat.st_ino) != self._ident
                    or stat.st_size < self._offset):
                # Replaced or shrunk: read it afresh.  Appending is enough
                # unless it lost entries this instance holds.
                disk = self._read_file()
                if any(key not in disk for key in self._entries):
                    self._rewrite = True
                self._entries.update(disk)
            elif stat.st_size > self._offset:
                tail = os.pread(fd, stat.st_size - self._offset,
                                self._offset)
                raw, used, bad = _parse_lines(tail)
                fresh, invalid = _validate(raw)
                self._entries.update(fresh)
                self._offset += used
                if bad + invalid:
                    self._quarantine_entries(bad + invalid)
                    self._rewrite = True
            if not self._rewrite and stat.st_size > self._offset:
                os.ftruncate(fd, self._offset)   # a killed writer's record
        except OSError:
            self._rewrite = True
        if self._rewrite:
            os.close(fd)
            return None
        return fd

    def _append(self, fd: int, line: bytes) -> None:
        """Append one batch line with a single write, fsync, close ``fd``."""
        try:
            if os.write(fd, line) != len(line):
                raise OSError("short write")
            os.fsync(fd)
            self._offset += len(line)
        except OSError:
            # Out of space or read-only: leave no torn record behind; the
            # values stay in memory.
            try:
                os.ftruncate(fd, self._offset)
            except OSError:
                pass
        finally:
            os.close(fd)

    def _write(self) -> None:
        """Rewrite the whole file: the header and one line of every entry."""
        directory = os.path.dirname(self.path) or "."
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_HEADER)
                if self._entries:
                    fh.write(_encode(self._entries.items()))
                fh.flush()
                os.fsync(fh.fileno())
                stat = os.fstat(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            # A read-only cache dir degrades to in-memory behaviour.
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            return
        self._ident = (stat.st_dev, stat.st_ino)
        self._offset = stat.st_size
        self._rewrite = False

    # -- access ---------------------------------------------------------------

    def get(self, key: str) -> float | None:
        """The memoised value for ``key``, or ``None`` on a miss."""
        return self.get_many((key,))[0]

    def get_many(self, keys) -> list:
        """Memoised values for ``keys`` in order, ``None`` per miss.

        One lookup pass for a whole batch of query points — the disk file
        is read (at most) once regardless of the batch size, so partial
        hits cost the same as a single :meth:`get`.  Unreadable or
        corrupt entries were already quarantined at load time, so they
        simply read as misses here.
        """
        keys = list(keys)
        if not self.enabled:
            self.misses += len(keys)
            _obs_counter("quantile_cache.misses").inc(len(keys))
            return [None] * len(keys)
        entries = self._load()
        out = [entries.get(key) for key in keys]
        hits = sum(value is not None for value in out)
        self.hits += hits
        self.misses += len(keys) - hits
        _obs_counter("quantile_cache.hits").inc(hits)
        _obs_counter("quantile_cache.misses").inc(len(keys) - hits)
        return out

    def put(self, key: str, value: float) -> None:
        """Memoise ``value`` under ``key`` (write-through, merge-on-write)."""
        self.put_many(((key, value),))

    def put_many(self, items) -> None:
        """Memoise many ``(key, value)`` pairs as one appended line.

        Under an advisory file lock the put first merges what other
        writers appended since this instance last read, so concurrent
        multi-process runs serialise their commits and can only ever lose
        a duplicate solve, never an entry.  Precedence matters under
        concurrency: those fresh on-disk records win over this instance's
        stale in-memory copy for every key it is not writing itself — a
        concurrent writer's newer entry must never be shadowed by a value
        loaded before it ran.  The line is fsynced before returning.
        """
        items = list(items)
        if not self.enabled or not items:
            return
        items = [(key, float(value)) for key, value in items]
        with _advisory_lock(self.path):
            entries = self._load()
            fd = self._catch_up()
            entries.update(items)
            if fd is None:
                self._write()
            else:
                self._append(fd, _encode(items))
        metrics = current_obs().metrics
        metrics.counter("quantile_cache.writes").inc(len(items))
        if metrics.enabled:
            metrics.gauge("quantile_cache.file_bytes").set(self._offset)
            metrics.gauge("quantile_cache.entries").set(len(entries))

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        self._entries = {}
        if self.enabled:
            with _advisory_lock(self.path):
                self._write()

    def __len__(self) -> int:
        return len(self._load())
