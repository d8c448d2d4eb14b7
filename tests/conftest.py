"""Per-test time bound, so that a hang fails its own test instead of
stalling the whole suite (pytest-timeout is not a dependency), and a
check that no test leaves a worker process alive."""

import multiprocessing
import signal

import pytest

TEST_TIMEOUT_S = 300


def _timed_out(signum, frame):
    pytest.fail(f"test still running after {TEST_TIMEOUT_S} s")


def _no_leaked_children():
    """Fail the test, after stopping them, if it left child processes running."""
    leaked = multiprocessing.active_children()
    if not leaked:
        return
    message = f"test left {len(leaked)} child process(es) running: {leaked}"
    for child in leaked:
        child.terminate()
        child.join()
    pytest.fail(message)


@pytest.fixture(autouse=True)
def _test_bounds():
    alarm = hasattr(signal, "SIGALRM")
    if alarm:
        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        if alarm:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    _no_leaked_children()
