"""The quantile cache's append-only journal: one line per put, torn tails."""

import json
import os
import subprocess
import sys

import repro
from repro.obs.api import activate_obs, build_obs
from repro.resilience import FaultLedger, activate_ledger
from repro.runtime import QuantileCache
from repro.runtime.cache import _entry_checksum


def _line(*items):
    """The journal line ``put_many(items)`` appends."""
    records = [[key, value.hex(), _entry_checksum(key, value.hex())]
               for key, value in items]
    return json.dumps(records, separators=(",", ":")).encode() + b"\n"


def _watch():
    """A fault ledger and metrics registry to catch quarantine reports."""
    return FaultLedger(), build_obs(metrics=True)


def test_first_put_into_fresh_directory_takes_the_lock(tmp_path):
    path = tmp_path / "fresh" / "nested" / "quantiles.json"
    QuantileCache(path=str(path), enabled=True).put("k", 1.0)
    assert os.path.exists(str(path) + ".lock")
    assert QuantileCache(path=str(path), enabled=True).get("k") == 1.0


def test_put_appends_one_line_and_keeps_the_inode(tmp_path):
    """A put on a 5,000-entry cache writes its own batch, not the file."""
    path = str(tmp_path / "quantiles.json")
    QuantileCache(path=path, enabled=True).put_many(
        (f"k{i}", float(i)) for i in range(5000))
    before = open(path, "rb").read()
    inode = os.stat(path).st_ino

    cache = QuantileCache(path=path, enabled=True)
    assert len(cache) == 5000
    cache.put_many([("new", 1.5), ("k7", 7.5)])

    assert os.stat(path).st_ino == inode
    after = open(path, "rb").read()
    assert after == before + _line(("new", 1.5), ("k7", 7.5))
    fresh = QuantileCache(path=path, enabled=True)
    assert fresh.get_many(["k7", "new", "k4999"]) == [7.5, 1.5, 4999.0]


def test_killed_writer_torn_record_ignored_then_truncated(tmp_path):
    path = str(tmp_path / "quantiles.json")
    QuantileCache(path=path, enabled=True).put_many([("a", 1.0), ("b", 2.0)])
    intact = open(path, "rb").read()
    with open(path, "ab") as fh:              # a writer killed mid-record
        fh.write(_line(("c", 3.0))[:-9])

    ledger, obs = _watch()
    with activate_obs(obs), activate_ledger(ledger):
        reader = QuantileCache(path=path, enabled=True)
        assert reader.get_many(["a", "b", "c"]) == [1.0, 2.0, None]
        assert reader.quarantined == 0        # in flight, not corrupt
        reader.put_many([("d", 4.0)])         # the next writer repairs it
    assert ledger.counts() == {}
    assert obs.metrics.counter("resilience.cache.quarantined").value == 0
    assert open(path, "rb").read() == intact + _line(("d", 4.0))
    fresh = QuantileCache(path=path, enabled=True)
    assert fresh.get_many(["a", "b", "c", "d"]) == [1.0, 2.0, None, 4.0]
    assert fresh.quarantined == 0


def test_writer_loaded_before_the_tear_truncates_it(tmp_path):
    """The torn tail is cut by whichever writer next takes the lock."""
    path = str(tmp_path / "quantiles.json")
    writer = QuantileCache(path=path, enabled=True)
    writer.put("a", 1.0)
    intact = open(path, "rb").read()
    with open(path, "ab") as fh:
        fh.write(b'[["c","0x1.8p+1","')
    writer.put("b", 2.0)
    assert open(path, "rb").read() == intact + _line(("b", 2.0))


def test_garbled_line_counted_once_and_dropped_by_next_put(tmp_path):
    path = str(tmp_path / "quantiles.json")
    QuantileCache(path=path, enabled=True).put("a", 1.0)
    with open(path, "ab") as fh:
        fh.write(b'[["b","0x1.0p+1",garbled\n' + _line(("c", 3.0)))

    ledger, obs = _watch()
    with activate_obs(obs), activate_ledger(ledger):
        reader = QuantileCache(path=path, enabled=True)
        assert reader.get_many(["a", "b", "c"]) == [1.0, None, 3.0]
        assert reader.get("a") == 1.0
        reader.put("d", 4.0)                  # rewrites without the line
    assert reader.quarantined == 1
    assert obs.metrics.counter("resilience.cache.quarantined").value == 1
    assert ledger.counts() == {"cache_entry_quarantined": 1}
    assert b"garbled" not in open(path, "rb").read()
    fresh = QuantileCache(path=path, enabled=True)
    assert fresh.get_many(["a", "b", "c", "d"]) == [1.0, None, 3.0, 4.0]
    assert fresh.quarantined == 0


def test_instances_that_loaded_an_empty_slot_append(tmp_path):
    """Writers that all saw no file do not take turns rewriting it."""
    path = str(tmp_path / "quantiles.json")
    writers = [QuantileCache(path=path, enabled=True) for _ in range(3)]
    for n, cache in enumerate(writers):
        assert cache.get(f"w{n}") is None     # loads: no file yet
    writers[0].put("w0", 0.0)                 # creates the file
    created = open(path, "rb").read()
    for round_ in range(2):
        for n, cache in enumerate(writers):
            cache.put(f"w{n}:{round_}", float(n))
    journal = open(path, "rb").read()
    assert journal.startswith(created)
    assert journal.count(b"\n") == 2 + 6     # header, creation, six appends
    assert len(QuantileCache(path=path, enabled=True)) == 7


def test_replaced_file_keeps_every_entry(tmp_path):
    """A file replaced under a writer loses nothing the writer held."""
    path = str(tmp_path / "quantiles.json")
    held = QuantileCache(path=path, enabled=True)
    held.put_many([("a", 1.0), ("b", 2.0)])
    QuantileCache(path=path, enabled=True).clear()
    QuantileCache(path=path, enabled=True).put("c", 3.0)
    held.put("d", 4.0)
    fresh = QuantileCache(path=path, enabled=True)
    assert fresh.get_many(["a", "b", "c", "d"]) == [1.0, 2.0, 3.0, 4.0]


_WRITER = """
import sys
from repro.runtime import QuantileCache
path, who = sys.argv[1], sys.argv[2]
cache = QuantileCache(path=path, enabled=True)
for i in range(50):
    cache.put_many([(f"{who}:{i}", float(i))])
"""


def test_concurrent_processes_lose_no_entry(tmp_path):
    path = str(tmp_path / "quantiles.json")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, path, f"w{n}"],
                              env=env) for n in range(4)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0, 0]
    cache = QuantileCache(path=path, enabled=True)
    assert len(cache) == 200
    assert cache.quarantined == 0
    assert cache.get_many(["w0:0", "w3:49"]) == [0.0, 49.0]
