"""Rayleigh fading channel model and word error rate simulation.

The channel is Y = H X + N with H a 2x4 matrix of i.i.d. CN(0, 1)
entries, fresh per codeword, and N i.i.d. CN(0, sigma2).  With codes
normalized to E||X||_F^2 = 16 and two receive antennas the average
receive SNR is 4 / sigma2, so sigma2 = 4 * 10^(-snr_db/10).

Determinism: every trial draws from its own counter-based substream
keyed by (seed, snr point index, trial index), with the fixed draw order
symbols, channel, noise ("philox-ss-v1").  draw_trials is the single
source of that order, for simulation and verification alike: it draws a
contiguous range of trials one by one and stacks them for the batched
decoder, and draw_trial is its one-trial case.  Results are therefore
byte-identical across reruns and independent of the worker count, and
the stopping rule is evaluated on fixed-size batches (BATCH_SIZE) so
that parallel scheduling cannot change it.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .fastdecode import (GroupStructure, RealChannel, _real_channel, conditional_group_decode,
                         pam_levels, stack_real)

RNG_SCHEME = "philox-ss-v1"
BATCH_SIZE = 256
SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class ChannelInstance:
    H: np.ndarray       # (2, 4) complex
    sigma2: float


def _trial_rng(seed: int, point_index: int, trial_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point_index, trial_index))
    return np.random.Generator(np.random.Philox(ss))


def sample_channel(rng: np.random.Generator) -> np.ndarray:
    """2x4 i.i.d. CN(0, 1) channel matrix."""
    z = rng.standard_normal((2, 4, 2))
    return (z[..., 0] + 1j * z[..., 1]) * SQRT_HALF


def transmit(X: np.ndarray, ch: ChannelInstance, rng: np.random.Generator) -> np.ndarray:
    """Pass a codeword through the channel, adding CN(0, sigma2) noise."""
    w = rng.standard_normal((2, 4, 2))
    noise = (w[..., 0] + 1j * w[..., 1]) * math.sqrt(ch.sigma2 / 2.0)
    return ch.H @ X + noise


def draw_trials(seed: int, point_index: int, start: int, stop: int, generators: np.ndarray,
                sigma2: float) -> tuple:
    """Trials start..stop-1 stacked: sent symbols s0 (B, 16), received real
    vectors y (B, 16) and their real channel with G (B, 16, 16)."""
    n = stop - start
    s0 = np.empty((n, 16))
    y = np.empty((n, 16))
    H = np.empty((n, 2, 4), dtype=complex)
    for i in range(n):
        rng = _trial_rng(seed, point_index, start + i)
        s0[i] = rng.integers(0, 2, 16) * 2.0 - 1.0
        X = np.einsum("i,ijk->jk", s0[i], generators)
        H[i] = sample_channel(rng)
        y[i] = stack_real(transmit(X, ChannelInstance(H[i], sigma2), rng))
    return s0, y, _real_channel(generators, H)


def draw_trial(seed: int, point_index: int, trial: int, generators: np.ndarray,
               sigma2: float) -> tuple:
    """One trial's (sent symbols s0, received real vector y, real channel)."""
    s0, y, ch = draw_trials(seed, point_index, trial, trial + 1, generators, sigma2)
    return s0[0], y[0], RealChannel(ch.G[0])


def snr_to_sigma2(snr_db: float) -> float:
    """Noise variance per complex entry for codes with E||X||_F^2 = 16."""
    return 4.0 * 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class WerRecord:
    snr_db: float
    trials: int
    word_errors: int
    wer: float
    seed: int


def wilson_interval(errors: int, trials: int) -> tuple:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.96
    p = errors / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _run_trials(args) -> int:
    """Word errors over a contiguous range of trial indices (one worker chunk)."""
    seed, point_index, start, stop, generators, gs, sigma2, pam = args
    s0, y, ch = draw_trials(seed, point_index, start, stop, generators, sigma2)
    res = conditional_group_decode(y, ch, gs, pam)
    return int(np.count_nonzero((res.symbols != s0).any(axis=1)))


def simulate_wer(code, gs: GroupStructure, snr_db_list, *, seed: int,
                 min_errors: int = 100, max_trials: int = 10 ** 6,
                 threads: int = 1) -> list:
    """Monte Carlo word error rate at each SNR point.

    Stops a point after the first full batch in which the cumulative
    error count reaches min_errors, or at max_trials.  Decoding uses the
    conditional group decoder with the supplied structure (verified per
    trial against the drawn channel).  Raises ValueError for an empty or
    non-finite SNR list and for min_errors, max_trials or threads below 1.
    """
    if not snr_db_list or not all(map(math.isfinite, snr_db_list)):
        raise ValueError(f"need one or more finite SNR points, got {snr_db_list}")
    for name, value in (("min_errors", min_errors), ("max_trials", max_trials), ("threads", threads)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    generators = code.generators
    pam = pam_levels(2)
    records = []
    pool = multiprocessing.Pool(threads) if threads > 1 else None
    try:
        for point_index, snr_db in enumerate(snr_db_list):
            sigma2 = snr_to_sigma2(snr_db)
            errors = 0
            trials = 0
            while trials < max_trials and errors < min_errors:
                nb = min(BATCH_SIZE, max_trials - trials)
                bounds = np.linspace(trials, trials + nb, (threads if pool else 1) + 1).astype(int)
                chunks = [(seed, point_index, int(lo), int(hi), generators, gs, sigma2, pam)
                          for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
                if pool:
                    errors += sum(pool.map(_run_trials, chunks))
                else:
                    errors += sum(map(_run_trials, chunks))
                trials += nb
            records.append(WerRecord(float(snr_db), trials, errors, errors / trials, seed))
    finally:
        if pool:
            pool.close()
            pool.join()
    return records


def write_wer_csv(records, fp, *, code_name: str, basis: str, variant: str,
                  seed: int, min_errors: int, max_trials: int, threads: int = 1) -> None:
    """Write records with the run's fully resolved configuration echoed on top."""
    fp.write(f"# code={code_name} basis={basis} variant={variant} snr_def=4/sigma2 seed={seed}\n")
    fp.write(f"# rng={RNG_SCHEME} draw_order=symbols,channel,noise "
             f"min_errors={min_errors} max_trials={max_trials} batch={BATCH_SIZE} threads={threads}\n")
    fp.write("snr_db,trials,word_errors,wer\n")
    for r in records:
        fp.write(f"{r.snr_db:.12g},{r.trials},{r.word_errors},{r.wer:.12g}\n")
