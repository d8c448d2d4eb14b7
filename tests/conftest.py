"""Per-test time bound, so that a hang fails its own test instead of
stalling the whole suite (pytest-timeout is not a dependency), a check
that no test leaves a worker process alive, and the name of the OpenBLAS
kernel that numpy ran on, printed after the run.  The pins hold on every
kernel: y, G and the reported metrics come from no BLAS product, and no
pinned decision lies near enough to a tie for the searches' BLAS products
to move it."""

import ctypes
import glob
import multiprocessing
import os
import signal

import numpy as np
import pytest

TEST_TIMEOUT_S = 300


def _timed_out(signum, frame):
    pytest.fail(f"test still running after {TEST_TIMEOUT_S} s")


def blas_core():
    """The OpenBLAS kernel numpy runs on, or None when numpy's BLAS is not scipy-openblas."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        name = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if name is not None:
            name.restype = ctypes.c_char_p
            return name().decode()
    return None


@pytest.hookimpl(trylast=True)        # after --durations, so it ends the report
def pytest_terminal_summary(terminalreporter):
    core = blas_core()
    terminalreporter.write_line("OpenBLAS core: " + (core or "unknown, numpy's BLAS is not scipy-openblas"))


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
