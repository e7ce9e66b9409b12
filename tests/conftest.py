"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import sine_with_anomaly


@pytest.fixture(scope="session", autouse=True)
def _stop_pool_workers():
    """Stop the persistent worker pool when the session ends.

    Otherwise the pool object can outlive the multiprocessing modules at
    interpreter teardown, and its ``__del__`` prints an ignored
    exception after the test summary.
    """
    yield
    from repro.parallel import shutdown

    shutdown()


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def sine_bump():
    """A small sine series with a planted bump anomaly."""
    return sine_with_anomaly(
        length=2000, period=100, anomaly_start=1000, anomaly_length=80,
        anomaly_kind="bump", noise=0.03, seed=7,
    )


@pytest.fixture
def short_series(rng) -> np.ndarray:
    """A 400-point noisy sawtooth, fast enough for brute-force tests."""
    t = np.arange(400)
    return (t % 40) / 40.0 + rng.normal(0.0, 0.02, 400)
