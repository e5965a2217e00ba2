"""Shared test set-up.

The verification suites read the fixed n-set forms of their shared stacks
from one memo per (field, n, stack) (oracle.shared_fixed_forms); no suite
keeps an ActionState.  A memo left warm by one test would hide a patch
made by the next (a flipped oracle.fixed_forms is never called on a
memoized stack), so every test starts and ends with an empty memo.  The
summary line reports the session's peak RSS, which includes what the
memo and the squarefree masks hold while a test runs.
"""

import resource
import sys

import pytest


def _clear_engine_cache():
    oracle = sys.modules.get("hypcensus.oracle")  # never load the engine here
    if oracle is not None:
        oracle.shared_fixed_forms.cache_clear()


@pytest.fixture(autouse=True)
def cold_engine_cache():
    _clear_engine_cache()
    yield
    _clear_engine_cache()


def pytest_terminal_summary(terminalreporter):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    terminalreporter.write_line(f"peak RSS of the test process: {peak:.1f} MB")
