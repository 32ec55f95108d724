"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.analyzer import VariationAnalyzer
from repro.devices.technology import available_technologies, get_technology


@pytest.fixture(scope="session", autouse=True)
def _isolated_quantile_cache(tmp_path_factory):
    """Point the persistent quantile cache at a per-session temp dir.

    Keeps the suite from reading or polluting the developer's real
    ``~/.cache/repro`` while still exercising the on-disk cache path.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("quantile-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def tech90():
    return get_technology("90nm")


@pytest.fixture(scope="session")
def tech22():
    return get_technology("22nm")


@pytest.fixture(scope="session", params=available_technologies())
def any_tech(request):
    """Parametrised over all four technology cards."""
    return get_technology(request.param)


@pytest.fixture(scope="session")
def analyzer90():
    """Full-size 90 nm analyzer shared across tests (cached quadratures)."""
    return VariationAnalyzer("90nm")


@pytest.fixture(scope="session")
def analyzer45():
    return VariationAnalyzer("45nm")


@pytest.fixture(scope="session")
def small_analyzer(tech90):
    """A small architecture for fast cross-validation tests."""
    return VariationAnalyzer(tech90, width=16, paths_per_lane=10,
                             chain_length=20)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def kernel_pool(monkeypatch):
    """``kernel_pool(n)`` installs a private ``n``-thread kernel pool.

    ``n=None`` sizes it by the (possibly faked) affinity mask.  Every
    pool installed is shut down after the test.
    """
    from repro.core import kernels

    pools = []

    def install(threads=None):
        pool = kernels.BlockPool(threads)
        pools.append(pool)
        monkeypatch.setattr(kernels, "_POOL", pool)
        return pool

    yield install
    for pool in pools:
        pool.close()


@pytest.fixture
def fake_cpus(monkeypatch):
    """``fake_cpus(n)``: the process may run on ``n`` CPUs.

    Forked pool workers inherit the fake affinity mask.
    """
    def install(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))

    return install
