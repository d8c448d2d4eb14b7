"""Rayleigh fading channel model and word error rate simulation.

The channel is Y = H X + N with H a 2x4 matrix of i.i.d. CN(0, 1)
entries, fresh per codeword, and N i.i.d. CN(0, sigma2).  With codes
normalized to E||X||_F^2 = 16 and two receive antennas the average
receive SNR is 4 / sigma2, so sigma2 = 4 * 10^(-snr_db/10).

Determinism: every trial draws from its own counter-based substream
keyed by (seed, snr point index, trial index), with the fixed draw order
symbols, channel, noise ("philox-ss-v1"): the Philox generator of
SeedSequence(entropy=seed, spawn_key=(point index, trial index)), which
_trial_rng builds.  draw_trials is the single source of that order, for
simulation and verification alike.  It derives each trial's Philox key
with numpy's SeedSequence hash (the part shared by a whole SNR point is
computed once), rekeys one generator per trial, and does everything
after the draw on the whole range at once; draw_trial is its one-trial
case.  Results are therefore byte-identical across reruns and
independent of the worker count, and the stopping rule is evaluated on
fixed-size batches (BATCH_SIZE) so that parallel scheduling cannot
change it.
"""

from __future__ import annotations

import math
import multiprocessing
import operator
from dataclasses import dataclass

import numpy as np

from .fastdecode import GroupStructure, RealChannel, _real_channel, conditional_group_decode, pam_levels

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


# numpy's SeedSequence hash (pool size 4), in Python ints so that it is
# exact for entropy words of any count.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list:
    """A non-negative int as little-endian 32-bit words ([0] for zero)."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _mix_in(pool: list, hash_const: int, words: list) -> tuple:
    """Mix entropy words beyond the first four into a copy of the pool."""
    pool = list(pool)
    for w in words:
        for dst in range(4):
            v = w ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            v = v * hash_const & _MASK32
            r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
            pool[dst] = r ^ r >> 16
    return pool, hash_const


def _point_pool(seed: int, point_index: int) -> tuple:
    """The pool and hash constant of SeedSequence(entropy=seed,
    spawn_key=(point_index, t)) just before the words of t are mixed in.

    A spawn key pads the seed to at least four words, so the first four
    entropy words, and the whole pool up to here, do not depend on t.
    """
    words = _words(seed)
    words += [0] * (4 - len(words))
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        v = v * hash_const & _MASK32
        return v ^ v >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])) & _MASK32
                pool[dst] = r ^ r >> 16
    return _mix_in(pool, hash_const, words[4:] + _words(point_index))


def _philox_key(pool: list) -> tuple:
    """SeedSequence.generate_state(2, np.uint64) of a mixed pool."""
    hash_const = _INIT_B
    out = []
    for v in pool:
        v ^= hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        v = v * hash_const & _MASK32
        out.append(v ^ v >> 16)
    return (out[0] | out[1] << 32, out[2] | out[3] << 32)


def _trial_keys(seed: int, point_index: int, start: int, stop: int):
    """Philox keys of trials start..stop-1: the key _trial_rng(seed,
    point_index, t) starts from, derived without building a SeedSequence."""
    pool, hash_const = _point_pool(seed, point_index)
    for t in range(start, stop):
        yield _philox_key(_mix_in(pool, hash_const, _words(t))[0])


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
    vectors y (B, 16) and their real channel with G (B, 16, 16).

    Bit for bit the draws of _trial_rng(seed, point_index, t) in the order
    symbols, channel, noise, by a cheaper route: one Philox per call,
    rekeyed for each trial from _trial_keys with counter 0 and an empty
    buffer.  A trial's symbols are the top bits of the 32-bit halves of
    eight raw words, low half first, which is what integers(0, 2, 16)
    returns; its channel and noise are one run of 32 normals.  Everything
    after the draw works on the whole batch.  Raises ValueError for a
    negative seed, point index or trial index.
    """
    # numpy integers would overflow in the key hash, which needs Python ints
    seed, point_index, start, stop = map(operator.index, (seed, point_index, start, stop))
    for name, value in (("seed", seed), ("point index", point_index), ("trial index", start)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    n = stop - start
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    raw = np.empty((n, 8), dtype=np.uint64)
    normals = np.empty((n, 32))
    for i, key in enumerate(_trial_keys(seed, point_index, start, stop)):
        state["state"]["key"] = key
        bitgen.state = state
        raw[i] = bitgen.random_raw(8)
        rng.standard_normal(out=normals[i])
    s0 = np.stack([(raw >> 31) & 1, raw >> 63], axis=-1).reshape(n, 16) * 2.0 - 1.0
    z = normals.reshape(n, 2, 2, 4, 2)
    H = (z[:, 0, ..., 0] + 1j * z[:, 0, ..., 1]) * SQRT_HALF
    noise = (z[:, 1, ..., 0] + 1j * z[:, 1, ..., 1]) * math.sqrt(sigma2 / 2.0)
    Y = (H @ np.einsum("bi,ijk->bjk", s0, generators) + noise).reshape(n, 8)
    return s0, np.concatenate([Y.real, Y.imag], axis=1), _real_channel(generators, H)


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
    non-finite SNR list, a negative seed and min_errors, max_trials or
    threads below 1.
    """
    if not snr_db_list or not all(map(math.isfinite, snr_db_list)):
        raise ValueError(f"need one or more finite SNR points, got {snr_db_list}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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
