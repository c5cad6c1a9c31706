"""Shared fixtures."""

import time

import pytest

from necsurf.oracle import cross_check


@pytest.fixture(scope="session")
def sweep_48():
    """The serial ``cross_check(n_max=48)`` report and its wall time in seconds.

    Run once per session; criterion 1 and the oracle golden test both read it.
    """
    start = time.time()
    report = cross_check(n_max=48)
    return report, time.time() - start
