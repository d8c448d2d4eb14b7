"""Fading channel sampling, SNR calibration, WER simulation harness."""

import functools
import math
import multiprocessing
import types

import numpy as np
import pytest

from midostc import algebra, channel, codebook, fastdecode
from midostc.cli import CODE_SHORTCUTS, main
from midostc.channel import (
    RNG_SCHEME,
    _run_trials,
    _trial_keys,
    draw_trials,
    simulate_wer,
    snr_to_sigma2,
    wilson_interval,
)


def c2_code_and_structure():
    code = codebook.build_code(algebra.catalog_entry(1), "B2")
    gs = fastdecode.detect_groups(fastdecode.hurwitz_radon(code))
    return code, gs


def shortcut_code(name):
    example, basis, variant = CODE_SHORTCUTS[name]
    return codebook.build_code(algebra.catalog_entry(example), basis, variant)


def reference_draw(seed, point_index, trial, generators, sigma2):
    """The philox-ss-v1 draw of one trial, written out with numpy alone:
    symbols, channel, noise.  Column i of G stacks the real parts of the
    row-major entries of H A_i over their imaginary parts, each entry the
    product of H's entry with the one nonzero of A_i's column, in real
    arithmetic; y is G s0, its columns added in index order, plus the noise
    stacked alike."""
    def stacked(M):
        return np.concatenate([M.ravel().real, M.ravel().imag])

    ss = np.random.SeedSequence(seed, spawn_key=(point_index, trial))
    rng = np.random.Generator(np.random.Philox(ss))
    s0 = rng.integers(0, 2, 16) * 2.0 - 1.0
    z = rng.standard_normal((2, 4, 2))
    H = (z[..., 0] + 1j * z[..., 1]) * (1.0 / math.sqrt(2.0))
    w = rng.standard_normal((2, 4, 2))
    G = np.empty((16, 16))
    for i, A in enumerate(generators):
        HA = np.empty((2, 4), dtype=complex)
        for c in range(4):
            (r,) = np.flatnonzero(A[:, c])
            h, v = H[:, r], A[r, c]
            HA.real[:, c] = h.real * v.real - h.imag * v.imag
            HA.imag[:, c] = h.real * v.imag + h.imag * v.real
        G[:, i] = stacked(HA)
    y = G[:, 0] * s0[0]
    for i in range(1, 16):
        y = y + G[:, i] * s0[i]
    return s0, y + stacked((w[..., 0] + 1j * w[..., 1]) * math.sqrt(sigma2 / 2.0)), G


def drawn_channels(seed, point_index, start, stop):
    """H (B, 2, 4) of trials start..stop-1 as draw_trials draws them.  Drawn
    with the identity as the one nonzero generator, on coefficient 0, whose
    support is the diagonal, column 0 of G is H stacked."""
    generators = np.zeros((16, 4, 4), dtype=complex)
    generators[0] = np.eye(4)
    _, _, G = draw_trials(seed, point_index, start, stop, generators, 0.0)
    return (G[:, :8, 0] + 1j * G[:, 8:, 0]).reshape(-1, 2, 4)


def test_draw_trials_rows_are_single_draws():
    sigma2 = snr_to_sigma2(10.0)
    for name in ("C2", "C4", "C5"):
        generators = shortcut_code(name).generators
        s0, y, G = draw_trials(36, 2, 5, 12, generators, sigma2)
        assert s0.shape == (7, 16) and y.shape == (7, 16) and G.shape == (7, 16, 16)
        for i, trial in enumerate(range(5, 12)):
            one = [rows[0] for rows in draw_trials(36, 2, trial, trial + 1, generators, sigma2)]
            ref = reference_draw(36, 2, trial, generators, sigma2)
            for got in (one, ref):
                assert np.array_equal(s0[i], got[0])
                assert np.array_equal(y[i], got[1])
            assert np.array_equal(G[i], one[2])
            assert np.array_equal(G[i], ref[2])


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 130])
def test_trial_keys_are_seed_sequence_states(seed):
    for point in (0, 2 ** 33):
        for trial in (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(point, trial))
            want = tuple(int(v) for v in ss.generate_state(2, np.uint64))
            assert next(_trial_keys(seed, point, trial, trial + 1)) == want


def test_draw_trials_across_trial_2_32_equal_reference_draw():
    generators = shortcut_code("C5").generators
    sigma2 = snr_to_sigma2(12.0)
    start = 2 ** 32 - 3
    s0, y, G = draw_trials(2 ** 40 + 3, 2 ** 33, start, start + 6, generators, sigma2)
    for i in range(6):
        ref = reference_draw(2 ** 40 + 3, 2 ** 33, start + i, generators, sigma2)
        assert np.array_equal(s0[i], ref[0])
        assert np.array_equal(y[i], ref[1])
        assert np.array_equal(G[i], ref[2])


def test_draw_trials_across_trial_2_64_equal_reference_draw():
    # a five-word seed, and trial indices going from two words to three
    generators = shortcut_code("C2").generators
    sigma2 = snr_to_sigma2(9.0)
    seed, start = 2 ** 130 + 5, 2 ** 64 - 4
    s0, y, G = draw_trials(seed, 7, start, start + 8, generators, sigma2)
    for i in range(8):
        ref = reference_draw(seed, 7, start + i, generators, sigma2)
        assert np.array_equal(s0[i], ref[0])
        assert np.array_equal(y[i], ref[1])
        assert np.array_equal(G[i], ref[2])


@pytest.mark.filterwarnings("error")
def test_draw_trials_takes_numpy_integers():
    generators = shortcut_code("C2").generators
    got = draw_trials(np.int64(2 ** 40 + 3), np.uint64(2 ** 33), np.int64(5), np.int64(9), generators, 0.1)
    want = draw_trials(2 ** 40 + 3, 2 ** 33, 5, 9, generators, 0.1)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_symbol_bits_are_integers_draws():
    # draw_trials reads the symbols off raw Philox words; integers(0, 2, 16) is the definition
    s0, _, _ = draw_trials(41, 3, 0, 4096, shortcut_code("C2").generators, 0.1)
    want = [np.random.Generator(np.random.Philox(np.random.SeedSequence(41, spawn_key=(3, t))))
            .integers(0, 2, 16) * 2.0 - 1.0 for t in range(4096)]
    assert np.array_equal(s0, want)


@pytest.mark.parametrize("call, message", [
    (lambda code, gs: draw_trials(-1, 0, 0, 4, code.generators, 0.1), "seed must be non-negative, got -1"),
    (lambda code, gs: draw_trials(0, -2, 0, 4, code.generators, 0.1),
     "point index must be non-negative, got -2"),
    (lambda code, gs: draw_trials(0, 0, -3, 4, code.generators, 0.1),
     "trial index must be non-negative, got -3"),
    (lambda code, gs: draw_trials(0, 0, -1, 0, code.generators, 0.1),
     "trial index must be non-negative, got -1"),
    (lambda code, gs: simulate_wer(code, gs, [10.0], seed=-5), "seed must be non-negative, got -5"),
], ids=["draw-seed", "draw-point", "draw-trial", "one-trial", "simulate-seed"])
def test_negative_seed_and_indices_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(*c2_code_and_structure())


@pytest.mark.parametrize("kwargs, message", [
    ({"snr_db_list": []}, "need one or more finite SNR points, got []"),
    ({"snr_db_list": [10.0], "threads": 0}, "threads must be at least 1, got 0"),
], ids=["no-snr", "threads-0"])
def test_simulate_wer_refusals(kwargs, message):
    # the CLI refuses both before simulate_wer sees them; bench/ calls simulate_wer directly
    with pytest.raises(ValueError) as info:
        simulate_wer(*c2_code_and_structure(), seed=0, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("start, stop", [(5, 5), (5, 3)], ids=["empty", "reversed"])
def test_empty_trial_range_is_rejected(start, stop):
    code, _ = c2_code_and_structure()
    with pytest.raises(ValueError, match=f"trial range start={start}, stop={stop} is empty"):
        draw_trials(1, 0, start, stop, code.generators, 0.1)


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -1.0])
def test_draw_trials_refuses_a_bad_noise_variance(sigma2):
    code, _ = c2_code_and_structure()
    with pytest.raises(ValueError, match=f"noise variance must be finite and non-negative, got {sigma2}"):
        draw_trials(1, 0, 0, 4, code.generators, sigma2)


def test_draw_trials_without_noise_is_noise_free():
    code, _ = c2_code_and_structure()
    s0, y, G = draw_trials(1, 0, 0, 4, code.generators, 0.0)
    assert np.array_equal(y, fastdecode._product(G, s0))


def off_support_generators():
    """C2's generators with one nonzero added off its coefficient's support: generator 6
    (coefficient 1) gains entry (0, 0), on the diagonal, which is coefficient 0's support."""
    generators = c2_code_and_structure()[0].generators.copy()
    generators[5, 0, 0] = 1e-300
    return generators


@pytest.mark.parametrize("call", [
    lambda generators: draw_trials(1, 0, 0, 4, generators, 0.1),
    lambda generators: fastdecode._real_channel(generators, np.ones((3, 2, 4), dtype=complex)),
    lambda generators: fastdecode._real_channel(generators[:15], np.ones((2, 4), dtype=complex)),
], ids=["draw", "real-channel", "fifteen-generators"])
def test_generators_off_the_support_are_refused(call):
    # the real channel reads one entry per generator and column: any other entry would be dropped unseen
    with pytest.raises(ValueError) as info:
        call(off_support_generators())
    assert str(info.value) == "need (16, 4, 4) generators, each zero off the support of its field coefficient"


def test_batched_real_channel_equals_per_channel_stacks():
    code, _ = c2_code_and_structure()
    rng = np.random.default_rng(37)
    H = rng.standard_normal((5, 2, 4)) + 1j * rng.standard_normal((5, 2, 4))
    G = fastdecode._real_channel(code.generators, H)
    assert G.shape == (5, 16, 16)
    for i in range(5):
        assert np.array_equal(G[i], fastdecode._real_channel(code.generators, H[i]))
    Y = H[:, None] @ code.generators[:3]                 # (5, 3, 2, 4)
    stacked = fastdecode.stack_real(Y)
    assert stacked.shape == (5, 3, 16)
    for i, j in np.ndindex(5, 3):
        assert np.array_equal(stacked[i, j], fastdecode.stack_real(Y[i, j]))
        assert np.array_equal(stacked[i, j], np.concatenate([Y[i, j].ravel().real, Y[i, j].ravel().imag]))


def test_run_trials_counts_like_a_per_trial_loop():
    code, gs = c2_code_and_structure()
    pam = fastdecode.pam_levels(2)
    sigma2 = snr_to_sigma2(4.0)
    errors = 0
    for trial in range(10, 74):
        s0, y, G = draw_trials(38, 1, trial, trial + 1, code.generators, sigma2)
        res = fastdecode.conditional_group_decode(y[0], G[0], gs, pam)
        errors += not np.array_equal(res.symbols, s0[0])
    assert errors > 0
    assert _run_trials((38, 1, 10, 74, code.generators, gs, sigma2)) == (74, errors)


def test_channel_entries_are_unit_variance():
    samples = drawn_channels(100, 0, 0, 4000).ravel()
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, rel=0.02)
    assert abs(np.mean(samples.real)) < 0.02
    assert np.mean(samples.real ** 2) == pytest.approx(0.5, rel=0.05)
    assert np.mean(samples.imag ** 2) == pytest.approx(0.5, rel=0.05)


def test_snr_calibration():
    # SNR = E||X||^2 / (E|noise entry|^2) with E||X||^2 fixed at 16 over
    # eight received entries: sigma2 = 16 / (4 * snr_linear) ... = 4 / 10^(snr/10)
    assert snr_to_sigma2(0.0) == pytest.approx(4.0, rel=1e-12)
    assert snr_to_sigma2(10.0) == pytest.approx(0.4, rel=1e-12)
    assert snr_to_sigma2(10 * math.log10(4.0)) == pytest.approx(1.0, abs=1e-12)
    assert snr_to_sigma2(6.0206) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, -4000.0, -3080.0])
def test_snr_without_finite_noise_variance_is_rejected(snr_db):
    # -4000 dB overflows the power, -3080 dB only the product 4 * 10^308
    with pytest.raises(ValueError, match=f"got {snr_db} dB"):
        snr_to_sigma2(snr_db)


def test_simulate_checks_every_snr_before_any_trial(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(channel, "draw_trials", no_draw)
    with pytest.raises(ValueError, match="got -4000.0 dB"):
        simulate_wer(*c2_code_and_structure(), [10.0, -4000.0], seed=0)


def test_noise_variance_matches_sigma2():
    # with zero generators y is the stacked noise
    _, y, _ = draw_trials(101, 0, 0, 4000, np.zeros((16, 4, 4)), 0.7)
    noise = y[:, :8] + 1j * y[:, 8:]
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.7, rel=0.03)


def test_trial_rng_determinism():
    a = drawn_channels(7, 1, 42, 43)
    b = drawn_channels(7, 1, 42, 43)
    c = drawn_channels(7, 1, 43, 44)
    d = drawn_channels(8, 1, 42, 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi == pytest.approx(1.0, abs=1e-12)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert lo == pytest.approx(1 - wilson_interval(50, 100)[1], abs=1e-12)
    # more trials tighten the interval
    w1 = wilson_interval(10, 100)
    w2 = wilson_interval(100, 1000)
    assert (w2[1] - w2[0]) < (w1[1] - w1[0])
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


@pytest.mark.parametrize("errors", [5, -1])
def test_wilson_interval_refuses_impossible_counts(errors):
    with pytest.raises(ValueError, match=f"got errors={errors} with trials=3"):
        wilson_interval(errors, 3)


def test_simulate_same_seed_same_records():
    code, gs = c2_code_and_structure()
    kw = dict(seed=31, min_errors=20, max_trials=512)
    r1 = simulate_wer(code, gs, [10.0], **kw)
    r2 = simulate_wer(code, gs, [10.0], **kw)
    assert r1 == r2
    assert r1[0].trials % 256 == 0          # whole batches only
    assert 0.0 < r1[0].wer < 1.0


def test_simulate_threads_do_not_change_results(monkeypatch):
    monkeypatch.setattr(channel.os, "cpu_count", lambda: 3)   # up to three workers on any machine
    code, gs = c2_code_and_structure()
    # the second run stops 14 dB on its second batch, 13 dB on its first and
    # 40 dB at a cut last batch; the third runs 40 dB out to a cut last batch,
    # then stops 6 dB on its first
    for points, kw, trials in (([8.0, 12.0], dict(seed=32, min_errors=20, max_trials=512), [256, 256]),
                               ([14.0, 13.0, 40.0], dict(seed=78, min_errors=17, max_trials=1300),
                                [512, 256, 1300]),
                               ([40.0, 6.0], dict(seed=79, min_errors=5, max_trials=1000), [1000, 256])):
        r1 = simulate_wer(code, gs, points, threads=1, **kw)
        assert [r.trials for r in r1] == trials
        for threads in (2, 3):
            assert simulate_wer(code, gs, points, threads=threads, **kw) == r1, threads
            assert multiprocessing.active_children() == []


def test_simulate_takes_a_numpy_array_of_snrs():
    code, gs = c2_code_and_structure()
    kw = dict(seed=39, min_errors=20, max_trials=512)
    rec = simulate_wer(code, gs, np.array([10.0, 12.0]), **kw)
    assert rec == simulate_wer(code, gs, [10.0, 12.0], **kw)
    assert all(type(r.snr_db) is float for r in rec)


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_leaves_no_worker_behind(monkeypatch, threads):
    monkeypatch.setattr(channel.os, "cpu_count", lambda: 2)
    code, gs = c2_code_and_structure()
    # a normal return at max_trials, and an early stop with 3,900 batches still to go
    simulate_wer(code, gs, [40.0], seed=40, min_errors=1, max_trials=1024, threads=threads)
    assert multiprocessing.active_children() == []
    rec = simulate_wer(code, gs, [0.0], seed=40, min_errors=1, max_trials=10 ** 6, threads=threads)
    assert rec[0].trials == 256
    assert multiprocessing.active_children() == []
    # two groups of eight are coupled on every channel of C2, so the first batch raises
    split = fastdecode.GroupStructure((), (tuple(range(8)), tuple(range(8, 16))), 8)
    with pytest.raises(fastdecode.StructureInvalidError, match="trial 0 of the batch"):
        simulate_wer(code, split, [10.0], seed=40, max_trials=10 ** 6, threads=threads)
    assert multiprocessing.active_children() == []


def test_repeated_early_stops_on_more_workers_than_cores(monkeypatch):
    # every point stops with batches still running past it, so each run shuts
    # the pool down with work in flight
    monkeypatch.setattr(channel.os, "cpu_count", lambda: 3)
    code, gs = c2_code_and_structure()
    for k in range(8):
        kw = dict(seed=41 + k, min_errors=5 + 9 * k, max_trials=10 ** 6)
        assert simulate_wer(code, gs, [6.0, 8.0, 10.0], threads=3, **kw) == \
            simulate_wer(code, gs, [6.0, 8.0, 10.0], **kw), k
        assert multiprocessing.active_children() == []


def test_simulate_starts_no_pool_for_one_batch(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(channel.multiprocessing, "Pool", no_pool)
    code, gs = c2_code_and_structure()
    rec = simulate_wer(code, gs, [10.0], seed=36, min_errors=1000, max_trials=256, threads=4)
    assert rec == simulate_wer(code, gs, [10.0], seed=36, min_errors=1000, max_trials=256)
    assert rec[0].trials == 256


def test_simulate_workers_are_capped_at_the_cpu_count(monkeypatch):
    opened = []

    class SerialPool:
        def __init__(self, processes):
            opened.append(processes)

        def apply_async(self, func, args):
            return types.SimpleNamespace(get=functools.partial(func, *args))

        def close(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(channel.multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(channel.os, "cpu_count", lambda: 2)
    code, gs = c2_code_and_structure()
    kw = dict(seed=37, min_errors=10 ** 6, max_trials=2048)
    rec = simulate_wer(code, gs, [10.0, 12.0], threads=1000, **kw)
    assert opened == [2]                    # one pool for the whole run
    assert rec == simulate_wer(code, gs, [10.0, 12.0], **kw) and [r.trials for r in rec] == [2048, 2048]


def test_simulate_high_snr_is_error_free():
    code, gs = c2_code_and_structure()
    recs = simulate_wer(code, gs, [60.0], seed=33, min_errors=5, max_trials=256)
    assert recs[0].word_errors == 0
    assert recs[0].trials == 256            # ran to max_trials without errors


def test_wer_decreases_with_snr():
    code, gs = c2_code_and_structure()
    recs = simulate_wer(code, gs, [6.0, 14.0], seed=34, min_errors=30, max_trials=768)
    assert recs[0].wer > recs[1].wer


def test_csv_output_is_reproducible(capsys):
    out = []
    for _ in range(2):
        assert main(["simulate", "--code", "C2", "--snr", "10", "--seed", "35", "--min-errors", "10",
                     "--max-trials", "256"]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    header, config, columns = out[0].splitlines()[:3]
    assert RNG_SCHEME in config
    assert "seed=35" in header
    assert columns == "snr_db,trials,word_errors,wer"
