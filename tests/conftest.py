"""Shared test set-up.

The verification suites read one cached ActionState per (field, n)
(oracle.action_state) and memoize the fixed rows of their shared stacks on
it.  A state left warm by one test would hide a patch made by the next
(a flipped ActionState.fixed_rows is never called on a memoized stack), so
every test starts and ends with an empty cache.  The summary line reports
the session's peak RSS, which includes what the cache holds while a test
runs.
"""

import resource
import sys

import pytest


def _clear_engine_cache():
    oracle = sys.modules.get("hypcensus.oracle")  # never load the engine here
    if oracle is not None:
        oracle.action_state.cache_clear()


@pytest.fixture(autouse=True)
def cold_engine_cache():
    _clear_engine_cache()
    yield
    _clear_engine_cache()


def pytest_terminal_summary(terminalreporter):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    terminalreporter.write_line(f"peak RSS of the test process: {peak:.1f} MB")
