"""Shared plumbing for the end-to-end benchmark.

Everything here runs in the benchmark's own (parent) process: locating the
checkout, isolating each program process, spawning and reaping it, the
statistics helpers and the host block.  Nothing imports ``repro`` at module
level, so the unit tests and a bare directory without ``src/`` can load it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".e2ebench_work"

#: Every child of one benchmark run must end within this many seconds.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (exit code != 0)."""


# -- the checkout -------------------------------------------------------------


def import_program():
    """Import ``repro`` from the checkout's ``src/`` and verify the origin.

    The benchmark measures the program in *this* checkout, never an
    installed copy, so a directory without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported repro from {origin}, not from {SRC}")
    return repro


def child_env(cache_dir: Path) -> dict:
    """Environment for one program process.

    All ``REPRO_*`` settings of the caller (cache switches, fault plans)
    are dropped, the cache goes to a directory no other process uses, and
    the program is imported from this checkout.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class WorkDir:
    """A per-run work directory inside the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"
        self._n = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    def fresh(self, stem: str) -> Path:
        """A new, empty subdirectory (one per program process)."""
        self._n += 1
        path = self.path / f"{self._n:03d}-{stem}"
        path.mkdir()
        return path


# -- program processes --------------------------------------------------------


def run_program(args: list, cache_dir: Path, out: Path) -> dict:
    """Run one program process to completion and return its report.

    The report (written by the child to ``out``) gains ``spawn_mono`` —
    the parent's ``time.monotonic()`` just before launch, comparable to
    the child's own stamps on Linux — and ``setup_s``, launch until the
    child said it was ready.
    """
    spawn = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "program.py"),
           *map(str, args), "--out", str(out)]
    proc = subprocess.Popen(cmd, env=child_env(cache_dir), cwd=ROOT,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        terminate(proc)
        raise BenchError(f"program {args!r} exceeded {CHILD_TIMEOUT_S:.0f} s")
    except BaseException:
        terminate(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"program {args!r} exited {proc.returncode}:\n"
                         + err.decode(errors="replace")[-4000:])
    report = json.loads(out.read_text())
    report["spawn_mono"] = spawn
    report["setup_s"] = report["ready_mono"] - spawn
    return report


def terminate(proc: subprocess.Popen) -> None:
    """Stop a child that is still running and reap it."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def setup_probe(task: str, plan: dict, work: WorkDir) -> float:
    """One set-up-only program process (``--phase setup``) -> its seconds."""
    in_path = work.fresh("probe-in") / "inputs.json"
    in_path.write_text(json.dumps(plan))
    return run_program([task, "--phase", "setup", "--inputs", in_path],
                       work.fresh("probe-cache"),
                       work.path / "probe.json")["setup_s"]


def floats(obj):
    """Hex-encoded report values (``float.hex``) -> floats, recursively."""
    if isinstance(obj, dict):
        return {k: floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [floats(v) for v in obj]
    if isinstance(obj, str) and obj.startswith(("0x", "-0x")):
        return float.fromhex(obj)
    return obj


def cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb_of(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = sorted(values)
    if not values:
        raise BenchError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return 0.5 * (values[mid - 1] + values[mid])


def nearest_rank(values, p: float, *, min_beyond: int = 0) -> float:
    """Nearest-rank ``p`` percentile (``p`` in (0, 1]).

    ``min_beyond`` enforces the reporting rule that at least that many
    samples lie beyond the reported percentile; fewer is an error, not a
    silently optimistic tail.  ``inf`` entries (failed requests) sort
    last, so failures count against the tail.
    """
    values = sorted(values)
    n = len(values)
    if n == 0 or not 0.0 < p <= 1.0:
        raise BenchError(f"percentile {p} of {n} values")
    rank = max(1, math.ceil(p * n - 1e-9))
    if n - rank < min_beyond:
        raise BenchError(f"p{100 * p:g} of {n} samples leaves {n - rank} "
                         f"beyond it, need {min_beyond}")
    return float(values[rank - 1])


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


# -- host block ---------------------------------------------------------------


def _blas() -> dict:
    import numpy as np
    info = {"vendor": "unknown", "version": None, "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = cfg.get("name", "unknown")
        info["version"] = cfg.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        if os.environ.get(var):
            info["threads"] = int(os.environ[var])
            break
    else:
        info["threads"] = os.cpu_count()
    return info


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3:
            mnt = parts[1]
            if ((target == mnt or target.startswith(mnt.rstrip("/") + "/"))
                    and len(mnt) >= len(best)):
                best, fstype = mnt, parts[2]
    return fstype


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """The checkout's commit, from ``.git`` when present (read, no git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    try:
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        packed = ROOT / ".git" / "packed-refs"
        try:
            for line in packed.read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
        except OSError:
            pass
    return None


def host_block(cache_dir: Path) -> dict:
    """Facts a reader needs to compare numbers across hosts."""
    import numpy as np
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "cache_fs": _fs_type(cache_dir),
    }
