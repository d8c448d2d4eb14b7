"""Step timing scaled to a nominal machine speed.

On a shared host the same work can take 1.7x longer for tens of seconds at
a time, so medians within one run cannot remove drift that lasts the whole
run.  Each timed step therefore runs a fixed reference kernel first and is
scaled by the kernel's nominal time over its measured time.  The kernels
share no code with midostc: a code change moves the scaled time as it
moves the raw one, while the machine's drift mostly cancels.  A kernel
tracks a step best when it does the same kind of work, so each workload
names its own (see bench/README.md for the measurements behind the
choice).
"""

import contextlib
import functools
import random
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

_GRID = np.array([[(i >> k & 1) * 2.0 - 1.0 for k in range(8)] for i in range(256)])
_NOISE = np.random.default_rng(1).standard_normal((16, 16))
_RNG = random.Random(3)
_MATRIX = [[Fraction(_RNG.randint(-5, 5), _RNG.randint(1, 4)) for _ in range(4)] for _ in range(4)]


def _python_loop(n):
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def _philox_products(n):
    """Per-trial style: a fresh Philox stream, small products, an argmin."""
    acc = 0.0
    for t in range(n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(0, t))))
        s = rng.integers(0, 2, 16) * 2.0 - 1.0
        z = rng.standard_normal((16, 16))
        R = z[:, :8] @ _GRID.T
        obj = np.einsum("ij,ij->j", R, R) - 2.0 * (s @ z)[0]
        acc += float(obj[np.argmin(obj)])
    return acc


@functools.lru_cache(maxsize=None)
def _candidates(n):
    return np.random.default_rng(0).integers(0, 2, (n, 16)) * 2.0 - 1.0


def _candidate_passes(n, size=16384):
    """Exhaustive-search style: residual metrics over ``size`` candidates."""
    S = _candidates(size)
    acc = 0.0
    for _ in range(n):
        D = _NOISE[:, 0:1] - _NOISE @ S.T
        obj = np.einsum("ij,ij->j", D, D)
        acc += float(obj[np.argmin(obj)])
    return acc


def _fraction_det(n):
    """Exact-arithmetic style: Leibniz terms of a 4x4 rational matrix."""
    m = _MATRIX
    det = Fraction(0)
    for _ in range(n):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if len({a, b, c}) == 3:
                        det += m[0][a] * m[1][b] * m[2][c] * m[3][6 - a - b - c]
    return det


class Reference:
    """A fixed kernel and its nominal time: the median of its per-run medians
    over 15 runs on the 2-vCPU Xeon (2.0 GHz) virtual machine that
    BENCH_1.json was measured on."""

    def __init__(self, name, parts, nominal_s):
        self.name = name
        self.parts = parts
        self.nominal_s = nominal_s

    def seconds(self):
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0


P = functools.partial
# Every style at once, for set-up and the certification pass.
MIX = Reference("mix", (P(_python_loop, 40000), P(_philox_products, 24),
                        P(_candidate_passes, 1), P(_fraction_det, 12)), 0.0120)
PHILOX = Reference("philox", (P(_philox_products, 128),), 0.0102)
# The oracle's own size: 65,536 candidates, 8 MB, more than the caches hold.
CANDIDATES = Reference("candidates", (P(_candidate_passes, 1, 65536),), 0.0118)


class Clock:
    """Wall time of measured steps, raw and scaled by ``ref``.

    A tracer, if given, scales the spans of each step by the same factor.
    """

    def __init__(self, ref=MIX, tr=None):
        self.ref = ref
        self.tr = tr
        self.raw = defaultdict(float)      # label -> seconds
        self.scaled = 0.0
        self.refs = []

    @contextlib.contextmanager
    def step(self, label="work"):
        ref = self.ref.seconds()
        factor = self.ref.nominal_s / ref
        if self.tr:
            self.tr.scale = factor
        t0 = time.perf_counter()
        yield
        dt = time.perf_counter() - t0
        self.raw[label] += dt
        self.scaled += dt * factor
        self.refs.append(ref)

    @property
    def raw_total(self):
        return sum(self.raw.values())
