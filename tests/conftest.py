"""Shared fixtures."""

import time

import pytest

from necsurf.bsk import BskMap
from necsurf.oracle import check_points, cross_check
from test_oracle import full_smooth


@pytest.fixture(scope="session")
def sweep_48():
    """The serial ``cross_check(n_max=48)`` report and its wall time in seconds.

    Run once per session; criterion 1 and the oracle golden test both read it.
    """
    start = time.time()
    report = cross_check(n_max=48)
    return report, time.time() - start


@pytest.fixture(scope="session")
def smooth_maps_48():
    """``{(q, N): [BskMap ...]}``, every smooth map of ``full_smooth(q, N)``, at each point
    of the N <= 48 sweep.

    Enumerated once per session; the orientability sweep reads all of it
    and criterion 6 the points with N <= 24.
    """
    return {
        (q, N): [BskMap(q, N, vec) for vec in full_smooth(q, N)] for q, N in check_points(None, 48)
    }
