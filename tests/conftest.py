"""Per-test time bound, so that a hang fails its own test instead of
stalling the whole suite (pytest-timeout is not a dependency)."""

import signal

import pytest

TEST_TIMEOUT_S = 300


def _timed_out(signum, frame):
    pytest.fail(f"test still running after {TEST_TIMEOUT_S} s")


@pytest.fixture(autouse=True)
def _time_bound():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
