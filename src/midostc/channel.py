"""Rayleigh fading channel model and word error rate simulation.

The channel is Y = H X + N with H a 2x4 matrix of i.i.d. CN(0, 1)
entries, fresh per codeword, and N i.i.d. CN(0, sigma2).  With codes
normalized to E||X||_F^2 = 16 and two receive antennas the average
receive SNR is 4 / sigma2, so sigma2 = 4 * 10^(-snr_db/10).

Determinism ("philox-ss-v1"): trial t of SNR point p draws symbols,
channel and noise, in that order, from the Philox generator of
SeedSequence(entropy=seed, spawn_key=(p, t)).  draw_trials is the one
source of that draw.  It runs numpy's SeedSequence hash for n trials at
once on a (4, n) uint32 array of pool words, and its one Python loop
rekeys a single Philox per trial for the raw words and normals; all else
works on the whole range at once.  _trial_rng, sample_channel, transmit
and ChannelInstance draw the same numbers one call at a time (transmit's
H X + N is draw_trials' y only up to rounding); they are kept for bench/
alone, and nothing in src/ or the tests calls them.
Workers run whole batches of BATCH_SIZE trials, streamed back in order,
and the stopping rule walks them in that order, so results are
byte-identical across reruns and independent of the worker count.
"""

from __future__ import annotations

import collections
import math
import multiprocessing
import operator
import os
from dataclasses import dataclass

import numpy as np

from .fastdecode import GroupStructure, _product, _real_channel, conditional_group_decode, pam_levels

RNG_SCHEME = "philox-ss-v1"
BATCH_SIZE = 256
PAM = pam_levels(2)     # the alphabet draw_trials draws symbols from
SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class ChannelInstance:
    H: np.ndarray       # (2, 4) complex
    sigma2: float


def _trial_rng(seed: int, point_index: int, trial_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point_index, trial_index))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (pool size 4).  _trial_keys runs it on uint32
# columns, whose wraparound is the hash's arithmetic mod 2^32.
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


def _point_pool(seed: int, point_index: int) -> tuple:
    """The pool and hash constant of SeedSequence(entropy=seed,
    spawn_key=(point_index, t)) before the words of t are mixed in: as the
    seed is padded to four words, numpy's pool of SeedSequence(seed,
    spawn_key=(point_index,)) and the constant after its 16 + 4 * extra
    hash steps, extra being the entropy words past the fourth."""
    extra = max(0, len(_words(seed)) - 4) + len(_words(point_index))
    pool = np.random.SeedSequence(seed, spawn_key=(point_index,)).pool
    return [int(v) for v in pool], _INIT_A * pow(_MULT_A, 16 + 4 * extra, 1 << 32) & _MASK32


def _trial_keys(seed: int, point_index: int, start: int, stop: int):
    """Philox keys of trials start..stop-1, as tuples of two ints: the key
    that Philox(SeedSequence(entropy=seed, spawn_key=(point_index, t)))
    starts from, derived without building a SeedSequence.

    Each run of trials that share their upper words (and so their word
    count) is hashed at once: the four pool words of every trial as one
    (4, n) uint32 array, one numpy pass per word of t for its four hash
    steps, then generate_state(2, np.uint64) as one more pass.
    """
    pool, pool_hash = _point_pool(seed, point_index)
    # the hash constant before and after each step: four per word of t, then the four output steps
    steps = np.array([pool_hash * pow(_MULT_A, i, 1 << 32) & _MASK32 for i in range(4 * len(_words(stop - 1)) + 1)],
                     dtype=np.uint32)[:, None]
    final = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(5)], dtype=np.uint32)[:, None]
    while start < stop:
        end = min(stop, ((start >> 32) + 1) << 32)
        low = start & _MASK32
        mixed = np.array(pool, dtype=np.uint32)[:, None]
        for i, w in enumerate([np.arange(low, low + end - start, dtype=np.uint32), *_words(start)[1:]]):
            v = (w ^ steps[4 * i:4 * i + 4]) * steps[4 * i + 1:4 * i + 5]
            r = _MIX_MULT_L * mixed - _MIX_MULT_R * (v ^ v >> 16)
            mixed = r ^ r >> 16
        v = (mixed ^ final[:4]) * final[1:]
        out = (v ^ v >> 16).astype(np.uint64)
        yield from zip((out[0] | out[1] << 32).tolist(), (out[2] | out[3] << 32).tolist())
        start = end


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
    vectors y (B, 16) and their real channels G (B, 16, 16).

    Bit for bit the draws of Philox(SeedSequence(entropy=seed, spawn_key=
    (point_index, t))) in the order symbols, channel, noise, by a cheaper
    route.  _trial_keys hashes the Philox keys of the whole range as one
    (4, n) uint32 array of pool words; the one loop over trials rekeys this
    call's own Philox with each key (counter 0, empty buffer) and takes
    eight raw words and 32 normals into its rows of the batch.  A
    trial's symbols are the top bits of the 32-bit halves of the raw words,
    low half first, which is what integers(0, 2, 16) returns; its channel
    and noise are the normals.  Everything after the loop works on the whole
    batch: G by _real_channel, y as G s0 by fastdecode._product plus the noise.
    Raises ValueError for a negative seed, point index or trial index, for
    an empty range (stop <= start), for a noise variance sigma2 that is
    negative or not finite (0 draws noise-free trials) and, by _real_channel,
    for generators off the support of algebra.SUPPORT.
    """
    # numpy integers would overflow in the key hash's index arithmetic
    seed, point_index, start, stop = map(operator.index, (seed, point_index, start, stop))
    for name, value in (("seed", seed), ("point index", point_index), ("trial index", start)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if stop <= start:
        raise ValueError(f"trial range start={start}, stop={stop} is empty: need stop > start")
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError(f"noise variance must be finite and non-negative, got {sigma2}")
    n = stop - start
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    raw = np.empty((n, 8), dtype=np.uint64)
    normals = np.empty((n, 32))
    for key, raw_row, normals_row in zip(_trial_keys(seed, point_index, start, stop), raw, normals):
        state["state"]["key"] = key
        bitgen.state = state
        raw_row[:] = bitgen.random_raw(8)
        rng.standard_normal(out=normals_row)
    s0 = np.stack([(raw >> 31) & 1, raw >> 63], axis=-1).reshape(n, 16) * 2.0 - 1.0
    z = normals.reshape(n, 2, 2, 4, 2)      # channel, then noise: row, column, real and imaginary part
    G = _real_channel(generators, (z[:, 0] * SQRT_HALF).view(complex)[..., 0])
    noise = np.multiply(z[:, 1].transpose(0, 3, 1, 2), math.sqrt(sigma2 / 2.0), order="C").reshape(n, 16)
    return s0, _product(G, s0) + noise, G


def snr_to_sigma2(snr_db: float, name: str = "SNR") -> float:
    """Noise variance per complex entry for codes with E||X||_F^2 = 16.

    Raises ValueError (naming snr_db as name) when it is not finite or the variance overflows.
    """
    try:
        sigma2 = 4.0 * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not (math.isfinite(snr_db) and math.isfinite(sigma2)):
        raise ValueError(f"{name} must be finite and give a finite noise variance, got {snr_db} dB")
    return sigma2


@dataclass(frozen=True)
class WerRecord:
    """Trials run at one SNR point and the word errors among them."""

    snr_db: float
    trials: int
    word_errors: int

    @property
    def wer(self) -> float:
        return self.word_errors / self.trials


def wilson_interval(errors: int, trials: int) -> tuple:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must lie in 0..trials, got errors={errors} with trials={trials}")
    z = 1.96
    p = errors / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _run_trials(args) -> tuple:
    """(stop, word errors) of one batch: a contiguous range of trial indices."""
    seed, point_index, start, stop, generators, gs, sigma2 = args
    s0, y, G = draw_trials(seed, point_index, start, stop, generators, sigma2)
    res = conditional_group_decode(y, G, gs, PAM)
    return stop, int(np.count_nonzero((res.symbols != s0).any(axis=1)))


def _in_order(pool, batches, ahead: int):
    """_run_trials of each batch on the pool, yielded in order, with up to
    ``ahead`` batches submitted past the one awaited."""
    pending = collections.deque()
    for batch in batches:
        pending.append(pool.apply_async(_run_trials, (batch,)))
        if len(pending) > ahead:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


def simulate_wer(code, gs: GroupStructure, snr_db_list, *, seed: int,
                 min_errors: int = 100, max_trials: int = 10 ** 6,
                 threads: int = 1) -> list:
    """Monte Carlo word error rate at each SNR point.

    Trials run in batches of BATCH_SIZE (the last one cut at max_trials),
    in order in this process, or on one pool of ``threads`` workers for the
    whole run that _in_order keeps one batch ahead of; no pool for one
    batch, and no more workers than batches or CPUs.  A point stops after
    the first batch in which the cumulative error count reaches min_errors,
    or at max_trials; batches past the stop go unread.  The pool is closed
    and joined, never terminated, so no worker outlives the call.
    Decoding uses the conditional group decoder with the supplied structure
    (verified per trial against the drawn channel).  Raises ValueError,
    before any trial, for an empty or non-finite SNR list, an SNR without a
    finite noise variance, a negative seed and min_errors, max_trials or
    threads below 1.
    """
    snr_db_list = [float(snr_db) for snr_db in snr_db_list]
    if not snr_db_list or not all(map(math.isfinite, snr_db_list)):
        raise ValueError(f"need one or more finite SNR points, got {snr_db_list}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    for name, value in (("min_errors", min_errors), ("max_trials", max_trials), ("threads", threads)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    sigma2s = [snr_to_sigma2(snr_db) for snr_db in snr_db_list]
    workers = min(threads, os.cpu_count() or 1, -(-max_trials // BATCH_SIZE))
    records = []
    pool = multiprocessing.Pool(workers) if workers > 1 else None
    try:
        for point_index, (snr_db, sigma2) in enumerate(zip(snr_db_list, sigma2s)):
            batches = ((seed, point_index, lo, min(lo + BATCH_SIZE, max_trials), code.generators, gs, sigma2)
                       for lo in range(0, max_trials, BATCH_SIZE))
            errors = 0
            for trials, batch_errors in _in_order(pool, batches, workers) if pool else map(_run_trials, batches):
                errors += batch_errors
                if errors >= min_errors:
                    break
            records.append(WerRecord(snr_db, trials, errors))
    finally:
        if pool:
            pool.close()
            pool.join()
    return records

