"""Shared fixtures for the reproduction's test suite.

Besides the platform/application fixtures, this conftest installs the
**suite-wide audit**: an autouse fixture rebuilds every
:class:`~repro.runtime.CedrRuntime` constructed by any test with
``RuntimeConfig(audit=True)``, so each of the suite's hundreds of simulated
runs that drains also folds the invariant catalog over its book
(causality, exactly-once, PE support/exclusivity, bookkeeping consistency
- see ``repro.audit``) and fails loudly instead of silently skewing a
figure.  The scheduler contract needs no fixture: the daemon checks it at
every round of every run.  Tests that must control the audit flag
themselves (e.g. the disabled-run byte-identity pins) opt out with
``@pytest.mark.no_auto_audit``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.apps import LaneDetection, PulseDoppler, WifiTx
from repro.platforms import jetson, zcu102
from repro.runtime.daemon import CedrRuntime


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_auto_audit: build CedrRuntimes with the config's own audit flag "
        "instead of force-enabling the shutdown audit",
    )


_original_runtime_init = CedrRuntime.__init__


@pytest.fixture(autouse=True)
def _auto_audit(request, monkeypatch):
    """Force the shutdown audit on for every runtime in the suite.

    In-process only: runtimes built inside ``--jobs`` worker processes keep
    their cell's config (their results are diffed bit-exactly against
    audited in-process runs by the determinism tests, which is its own
    check).  The audit reads the book and raises - it never mutates - so
    forcing it on cannot change any result a test asserts about.
    """
    if request.node.get_closest_marker("no_auto_audit"):
        yield
        return

    def audited_init(self, platform, config, *args, **kwargs):
        if not config.audit:
            config = dataclasses.replace(config, audit=True)
        _original_runtime_init(self, platform, config, *args, **kwargs)

    monkeypatch.setattr(CedrRuntime, "__init__", audited_init)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def zcu_small():
    """ZCU102 with one FFT accelerator (the Fig. 5 configuration)."""
    return zcu102(n_cpu=3, n_fft=1)


@pytest.fixture
def zcu_fig6():
    """ZCU102 with FFT + MMULT (the Fig. 6/7 configuration)."""
    return zcu102(n_cpu=3, n_fft=1, n_mmult=1)


@pytest.fixture
def jetson_small():
    return jetson(n_cpu=3, n_gpu=1)


@pytest.fixture
def pd_small():
    """Pulse Doppler with coarse task batching (fast to simulate/execute)."""
    return PulseDoppler(batch=16)


@pytest.fixture
def tx_small():
    return WifiTx(n_packets=20, batch=4)


@pytest.fixture
def ld_small():
    """Reduced-frame Lane Detection (tile 256) for functional tests."""
    return LaneDetection(height=96, width=128, batch=32)
