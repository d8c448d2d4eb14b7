"""Quadratic-form structure detection and the two decoders."""

import functools
import hashlib
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midostc import algebra, channel, codebook, fastdecode
from midostc.cli import CODE_SHORTCUTS
from midostc.fastdecode import (
    ORTHOGONALITY_TOL,
    GroupStructure,
    StructureInvalidError,
    adjacency,
    conditional_group_decode,
    detect_groups,
    hurwitz_radon,
    ml_exhaustive,
    _real_channel,
    pam_levels,
    stack_real,
)
from midostc.numberfield import FieldContext

# Frozen structures for the first catalog entry (0-based symbol indices).
B2_CONDITIONED = (4, 5, 6, 7, 8, 9, 10, 11)
B2_GROUPS = ((0, 3), (1, 2), (12, 15), (13, 14))
B1_GROUPS = ((0, 1, 2, 3), (12, 13, 14, 15))


def build(n, basis):
    return codebook.build_code(algebra.catalog_entry(n), basis)


def alamouti_generators():
    # X = [[s1 + i s2, -(s3 - i s4)], [s3 + i s4, s1 - i s2]]
    return np.array([
        [[1, 0], [0, 1]],
        [[1j, 0], [0, -1j]],
        [[0, -1], [1, 0]],
        [[0, 1j], [1j, 0]],
    ], dtype=complex)


def test_pam_levels():
    assert pam_levels(2) == (-1.0, 1.0)
    assert pam_levels(4) == (-3.0, -1.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        pam_levels(3)
    with pytest.raises(ValueError):
        pam_levels(0)


def test_alamouti_form_is_fully_orthogonal():
    code = types.SimpleNamespace(generators=alamouti_generators())
    b = hurwitz_radon(code)
    off = b - np.diag(np.diag(b))
    assert np.abs(off).max() < 1e-12
    gs = detect_groups(b)
    assert gs.conditioned == ()
    assert gs.groups == ((0,), (1,), (2,), (3,))
    assert gs.exponent == 1


def test_quadratic_form_matrix_properties():
    b = hurwitz_radon(build(1, "B2"))
    assert b.shape == (16, 16)
    assert np.allclose(b, b.T)
    assert (np.diag(b) > 0).all()
    adj = adjacency(b)
    assert not adj.diagonal().any()
    assert (adj == adj.T).all()
    assert int(adj.sum()) == 2 * 72      # 72 coupled pairs out of 120


def test_detected_structure_first_entry_b2():
    gs = detect_groups(hurwitz_radon(build(1, "B2")))
    assert gs.conditioned == B2_CONDITIONED
    assert gs.groups == B2_GROUPS
    assert gs.exponent == 10
    assert not gs.trivial


def test_detected_structure_first_entry_b1():
    gs = detect_groups(hurwitz_radon(build(1, "B1")))
    assert gs.conditioned == B2_CONDITIONED
    assert gs.groups == B1_GROUPS
    assert gs.exponent == 12


def test_detection_is_permutation_stable():
    code = build(1, "B2")
    b = hurwitz_radon(code)
    ref = detect_groups(b)
    rng = np.random.default_rng(21)
    for _ in range(3):
        perm = rng.permutation(16)
        bp = b[np.ix_(perm, perm)]
        gs = detect_groups(bp)
        assert gs.exponent == ref.exponent
        assert sorted(len(g) for g in gs.groups) == sorted(len(g) for g in ref.groups)
        assert len(gs.conditioned) == len(ref.conditioned)
        # the detected sets map back to the reference sets through the permutation
        assert sorted(perm[list(gs.conditioned)]) == list(ref.conditioned)


def test_detection_with_target_size():
    b = hurwitz_radon(build(1, "B2"))
    gs = detect_groups(b, 8)
    assert gs.conditioned == B2_CONDITIONED and gs.exponent == 10
    # without conditioning the coupling graph is connected: nothing splits
    assert detect_groups(b, 0).trivial


def test_fully_coupled_falls_back_to_trivial():
    rng = np.random.default_rng(0)
    gens = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
    gs = detect_groups(hurwitz_radon(types.SimpleNamespace(generators=gens)))
    assert gs.trivial
    assert gs.exponent == 16
    assert gs.groups == (tuple(range(16)),)


def test_detect_groups_size_guard():
    with pytest.raises(ValueError):
        detect_groups(np.ones((21, 21)))


@pytest.mark.parametrize("target", [-1, 16])
def test_detect_groups_rejects_target_outside_range(target):
    b = hurwitz_radon(build(1, "B2"))
    with pytest.raises(ValueError, match=f"must be in 0..15, got {target}"):
        detect_groups(b, target)
    assert detect_groups(b, 15).trivial       # the edges of the range are accepted
    assert detect_groups(b, 0).trivial


def test_real_channel_consistency():
    rng = np.random.default_rng(22)
    code = build(1, "B2")
    for _ in range(10):
        H = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        G = _real_channel(code.generators, H)
        assert G.shape == (16, 16)
        s = rng.integers(0, 2, 16) * 2.0 - 1.0
        X = np.einsum("i,ijk->jk", s, code.generators)
        assert np.allclose(G @ s, stack_real(H @ X), atol=1e-12)


def test_ml_budget_guard():
    code = build(1, "B2")
    rng = np.random.default_rng(23)
    H = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    G = _real_channel(code.generators, H)
    with pytest.raises(ValueError, match=re.escape("4^16 = 4294967296 exceeds the visit budget 1048576")):
        ml_exhaustive(np.zeros(16), G, pam_levels(4))


def test_ml_noiseless_recovery_and_visits():
    rng = np.random.default_rng(24)
    code = build(1, "B2")
    pam = pam_levels(2)
    for _ in range(5):
        H = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        G = _real_channel(code.generators, H)
        s0 = rng.integers(0, 2, 16) * 2.0 - 1.0
        res = ml_exhaustive(G @ s0, G, pam)
        assert np.array_equal(res.symbols, s0)
        assert res.metric <= 1e-18
        assert res.visits == 65536


def test_ml_tie_break_is_lexicographic():
    rng = np.random.default_rng(25)
    code = build(1, "B2")
    H = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
    G = _real_channel(code.generators, H)
    # y = 0 makes s and -s metric-equal; the first of the pair in
    # lexicographic order starts at -1
    res = ml_exhaustive(np.zeros(16), G, pam_levels(2))
    assert res.symbols[0] == -1.0
    res2 = ml_exhaustive(np.zeros(16), G, pam_levels(2))
    assert np.array_equal(res.symbols, res2.symbols)


def reference_ml(y, G, pam):
    """The full-grid search: one residual column per candidate, first minimum."""
    S = fastdecode._candidate_grid(tuple(pam), G.shape[1])
    D = y[:, None] - G @ S.T
    metrics = np.einsum("ij,ij->j", D, D)
    i = int(np.argmin(metrics))
    return S[i], float(metrics[i])


ALPHABETS = {"pam2": pam_levels(2), "pam4": pam_levels(4), "three-levels": (-1.0, 0.0, 1.0)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), alphabet=st.sampled_from(sorted(ALPHABETS)), rows=st.integers(1, 10),
       seed=st.integers(0, 2 ** 32 - 1), integral=st.booleans(), zero=st.booleans())
def test_ml_exhaustive_equals_full_grid_search(n, alphabet, rows, seed, integral, zero):
    # integral channels and signals tie many candidates exactly; y = 0 ties s and -s
    pam = ALPHABETS[alphabet]
    rng = np.random.default_rng(seed)
    if integral:
        G = rng.integers(-2, 3, (rows, n)).astype(float)
        noise = rng.integers(-1, 2, rows)
    else:
        G = rng.standard_normal((rows, n))
        noise = rng.standard_normal(rows)
    y = np.zeros(rows) if zero else G @ rng.choice(pam, n) + noise
    res = ml_exhaustive(y, G, pam)
    symbols, metric = reference_ml(y, G, pam)
    assert np.array_equal(res.symbols, symbols)
    assert res.metric == metric
    assert res.visits == len(pam) ** n


@pytest.mark.parametrize("name", ["C2", "C3", "C5"])
def test_ml_exhaustive_zero_signal_ties_equal_full_grid_search(name):
    # at y = 0 these channels tie more candidates than s and -s, within
    # rounding of each other; the oracle still picks what the full-grid
    # search picks (a bare argmin over the split scores does not)
    example, basis, variant = CODE_SHORTCUTS[name]
    code = codebook.build_code(algebra.catalog_entry(example), basis, variant)
    _, _, G = channel.draw_trials(5, 1, 0, 4, code.generators, 0.1)
    for Gi in G:
        res = ml_exhaustive(np.zeros(16), Gi, pam_levels(2))
        symbols, metric = reference_ml(np.zeros(16), Gi, pam_levels(2))
        assert np.array_equal(res.symbols, symbols)
        assert res.metric == metric


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 40.0, None], ids=["0dB", "10dB", "40dB", "zero-signal"])
@pytest.mark.parametrize("name", ["C2", "C5"])
def test_ml_exhaustive_equals_full_grid_search_at_sixteen_symbols(name, snr_db):
    # the size every caller decodes: 2-PAM, eight prefix symbols against a
    # half grid of 128 suffixes, on draw_trials rows (y = 0 for zero-signal)
    example, basis, variant = CODE_SHORTCUTS[name]
    code = codebook.build_code(algebra.catalog_entry(example), basis, variant)
    sigma2 = channel.snr_to_sigma2(10.0 if snr_db is None else snr_db)
    _, y, G = channel.draw_trials(17, 2, 0, 24, code.generators, sigma2)
    for yi, Gi in zip(np.zeros_like(y) if snr_db is None else y, G):
        res = ml_exhaustive(yi, Gi, pam_levels(2))
        symbols, metric = reference_ml(yi, Gi, pam_levels(2))
        assert np.array_equal(res.symbols, symbols)
        assert res.metric == metric


@pytest.mark.parametrize("y_shape, g_shape", [
    ((2, 16), (2, 16, 16)),      # a batch: the oracle takes one trial
    ((15,), (16, 16)),           # y shorter than G's 16 rows
    ((16,), (2, 16, 16)),
    ((16,), (16,)),
])
def test_ml_exhaustive_rejects_mismatched_shapes(y_shape, g_shape):
    with pytest.raises(ValueError, match="does not match G"):
        ml_exhaustive(np.zeros(y_shape), np.ones(g_shape), pam_levels(2))


@pytest.mark.parametrize("pam", [(-1.0, 0.5), (0.0, 1.0), (-1.0, 1.0, 3.0)], ids=["half", "zero-one", "shifted"])
def test_ml_exhaustive_rejects_an_asymmetric_alphabet(pam):
    # the conditional decoder's message, and before the budget guard (3^21 > 2^20)
    for G in (np.ones((16, 16)), np.ones((4, 21))):
        with pytest.raises(ValueError, match=re.escape(f"the alphabet must be symmetric about zero, got {pam}")):
            ml_exhaustive(np.zeros(len(G)), G, pam)


def test_ml_budget_guard_builds_no_grid():
    calls = fastdecode._candidate_grid.cache_info()[:2]
    with pytest.raises(ValueError, match=re.escape("2^21 = 2097152 exceeds the visit budget 1048576")):
        ml_exhaustive(np.zeros(4), np.ones((4, 21)), pam_levels(2))
    assert fastdecode._candidate_grid.cache_info()[:2] == calls


def test_conditional_matches_oracle():
    rng = np.random.default_rng(26)
    code = build(1, "B2")
    gs = detect_groups(hurwitz_radon(code))
    pam = pam_levels(2)
    sigma = 0.8
    for _ in range(30):
        H = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        G = _real_channel(code.generators, H)
        s0 = rng.integers(0, 2, 16) * 2.0 - 1.0
        y = G @ s0 + sigma * rng.standard_normal(16)
        r_ml = ml_exhaustive(y, G, pam)
        r_cg = conditional_group_decode(y, G, gs, pam)
        assert abs(r_ml.metric - r_cg.metric) <= 1e-9
        assert np.array_equal(r_ml.symbols, r_cg.symbols)
        assert r_cg.visits == 4096
        assert r_ml.visits == 65536


def test_visits_arithmetic():
    code = build(1, "B1")
    gs = detect_groups(hurwitz_radon(code))
    rng = np.random.default_rng(27)
    H = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
    G = _real_channel(code.generators, H)
    res = conditional_group_decode(np.zeros(16), G, gs, pam_levels(2))
    # 2^8 conditioned assignments times two groups of four: 256 * 32
    assert res.visits == 2 ** len(gs.conditioned) * sum(2 ** len(g) for g in gs.groups)
    assert res.visits == 8192


def test_wrong_structure_fails_loudly():
    code = build(1, "B2")
    rng = np.random.default_rng(28)
    H = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
    G = _real_channel(code.generators, H)
    bogus = GroupStructure((), tuple((i,) for i in range(16)), 1)
    with pytest.raises(StructureInvalidError):
        conditional_group_decode(np.zeros(16), G, bogus, pam_levels(2))


def test_trivial_structure_reduces_to_ml():
    rng = np.random.default_rng(29)
    code = build(1, "B2")
    H = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
    G = _real_channel(code.generators, H)
    y = G @ (rng.integers(0, 2, 16) * 2.0 - 1.0) + 0.5 * rng.standard_normal(16)
    triv = GroupStructure((), (tuple(range(16)),), 16)
    r_triv = conditional_group_decode(y, G, triv, pam_levels(2))
    r_ml = ml_exhaustive(y, G, pam_levels(2))
    assert np.array_equal(r_triv.symbols, r_ml.symbols)
    assert r_triv.visits == r_ml.visits == 65536


# (catalog entry, basis, structure) decoded in batches: C2 (8 conditioned
# symbols, split 4|4), C5 (12, split 6|6), entry 1 over B1 (groups of
# four), the trivial structure (no conditioning, one group of 16) and a
# synthetic structure with four conditioned symbols and groups of sizes
# 3, 1, 4 and 4, listed by lowest symbol as detect_groups lists them.
TRIVIAL = GroupStructure((), (tuple(range(16)),), 16)
MIXED = GroupStructure((0, 5, 10, 15), ((1, 6, 11), (2,), (3, 4, 7, 8), (9, 12, 13, 14)), 8)
BATCH_CASES = {"C2": (1, "B2", None), "C5": (5, "B2", None),
               "B1": (1, "B1", None), "trivial": (1, "B2", TRIVIAL), "mixed": (None, None, MIXED)}


@pytest.mark.parametrize("gs, pam, message", [
    (GroupStructure(tuple(range(20)), ((20,),), 21), pam_levels(2), "2^20 * (2^1) = 2097152"),
    (TRIVIAL, pam_levels(4), "4^0 * (4^16) = 4294967296"),
], ids=["2-pam-2^21", "4-pam-4^16"])
def test_conditional_budget_guard_builds_no_grid(gs, pam, message):
    # the oracle's visit budget, refused before _plan builds a grid (4^16 rows would not fit in memory)
    width = len(gs.conditioned) + sum(map(len, gs.groups))
    calls = fastdecode._candidate_grid.cache_info()[:2]
    with pytest.raises(ValueError, match=re.escape(f"{message} exceeds the visit budget 1048576")):
        conditional_group_decode(np.zeros(4), np.ones((4, width)), gs, pam)
    assert fastdecode._candidate_grid.cache_info()[:2] == calls


def mixed_channels(trials, rng):
    """Channels on which each group's columns of MIXED span a subspace
    orthogonal to the other groups'; the conditioned columns are free."""
    G = rng.standard_normal((trials, 16, 16))
    for t in range(trials):
        Q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        lo = 0
        for g in MIXED.groups:
            G[t][:, g] = Q[:, lo:lo + len(g)] @ rng.standard_normal((len(g), len(g)))
            lo += len(g)
    return G


def batch_case(name, trials, seed):
    entry, basis, gs = BATCH_CASES[name]
    rng = np.random.default_rng(seed)
    if entry is None:
        return gs, mixed_channels(trials, rng), rng
    code = build(entry, basis)
    gs = gs or detect_groups(hurwitz_radon(code))
    H = (rng.standard_normal((trials, 2, 4)) + 1j * rng.standard_normal((trials, 2, 4))) / np.sqrt(2)
    return gs, _real_channel(code.generators, H), rng


def decode_each(y, G, gs):
    return [conditional_group_decode(y[i], G[i], gs, pam_levels(2))
            for i in range(len(y))]


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batched_decode_equals_single_trials_and_oracle(name):
    gs, G, rng = batch_case(name, 6, 40)
    s0 = rng.integers(0, 2, (6, 16)) * 2.0 - 1.0
    y = np.einsum("bij,bj->bi", G, s0) + 0.8 * rng.standard_normal((6, 16))
    res = conditional_group_decode(y, G, gs, pam_levels(2))
    assert res.symbols.shape == (6, 16) and res.metric.shape == (6,)
    assert res.visits == 2 ** len(gs.conditioned) * sum(2 ** len(g) for g in gs.groups)
    for i, single in enumerate(decode_each(y, G, gs)):
        assert np.array_equal(res.symbols[i], single.symbols)
        assert res.metric[i] == pytest.approx(single.metric, abs=1e-12)
        assert single.visits == res.visits
        oracle = ml_exhaustive(y[i], G[i], pam_levels(2))
        assert np.array_equal(res.symbols[i], oracle.symbols)
        assert abs(res.metric[i] - oracle.metric) <= 1e-9


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batched_zero_signal_tie_break(name):
    # y = 0 makes s and -s metric-equal; the decoder enumerates the
    # conditioned symbols first, then the groups, in lexicographic order,
    # so the winner of the pair has -1 in the first enumerated position.
    gs, G, _ = batch_case(name, 4, 41)
    y = np.zeros((4, 16))
    res = conditional_group_decode(y, G, gs, pam_levels(2))
    first = (gs.conditioned + gs.groups[0])[0]
    for i, single in enumerate(decode_each(y, G, gs)):
        assert np.array_equal(res.symbols[i], single.symbols)
        assert res.symbols[i][first] == -1.0
        oracle = ml_exhaustive(y[i], G[i], pam_levels(2))
        assert abs(res.metric[i] - oracle.metric) <= 1e-9


# sha256 of the decoded symbols (int8, trial-major) of trials 0..4095 of
# SNR point 0 at 15 dB, seed 11, drawn and decoded in batches of 256: a
# change to the decoder's arithmetic that flips any decision shows here.
DECISIONS_SHA256 = {
    "C2": "07eea093eb836028356255501686a9d633f9ae643d6b335670ebc299467c77eb",
    "C3": "7108d314c21f004adf91a5e4d430af4db5ed99ae32d019803aab261717adbc72",
    "C5": "33c70ab611e5fde6ddbab1d90227fc3608e7ce5575a1259538818561af41e5f9",
}


# sha256 of the reported metrics (float64, trial-major) of the same batches:
# a changed bit of any metric shows here even when no decision flips.
METRICS_SHA256 = {
    "C2": "3a3f33e111975150347c37544cb446dcbb62a2781b341c4d6cae987461e3a672",
    "C3": "03b0806624a3809582307688676a64dde31be167092a0e735af86988242e032e",
    "C5": "91aa4396b442111f2ccf7a2a3436be4d952a7f71c339dd6cb0dd6da927622b9f",
}


# The same two digests, (symbols, metrics), of the same trials at 0 dB and
# at 40 dB, captured from the decoder that built each outer sum of the
# assignment grid by broadcasting: every decision and every metric bit
# must survive a change of how the grid is built, at low and high SNR.
PINNED_AT_0_AND_40_DB = {
    ("C2", 0.0): ("de0a131384d9c8e44ea0be35d87c45c2bc599e4a55e0d35fc23121dea87acd7e",
                  "468615067d7205c79f8392275ef1c6c1161725812dcf8032bc369ba4cc5a3e86"),
    ("C3", 0.0): ("498832a00ef39889822b00c870f4ae7f603c47a6da7822298c0696bfc3f9ed4c",
                  "7a97382daa04d654832e55ce027203a87267d7a2f0d3b5bc6a11e6005ea45830"),
    ("C5", 0.0): ("d70a60b86f9819f6985923588a4941ea4a4651b24c89316b979667a9c53b6d46",
                  "6eb5a541137c4f643764664bb621824e1ffad779b99ce32d28a83bd070cab8b7"),
    ("C2", 40.0): ("a361a09e3acb20d44e619789452ddb7ee45aa17bc6054924e62ecee0993d7891",
                   "4231261cce7d16d3d83ac7f82310d21863a974e9ea6e96cc1dd4b560323957d2"),
    ("C3", 40.0): ("a361a09e3acb20d44e619789452ddb7ee45aa17bc6054924e62ecee0993d7891",
                   "4c93b1f27e64de0998dec9d3fedc8a95e01671bc8e0a18bc0a5dd0e83e822c5a"),
    ("C5", 40.0): ("a361a09e3acb20d44e619789452ddb7ee45aa17bc6054924e62ecee0993d7891",
                   "0f6795998b1d85f88b27f22055809cbcc7aea325e7319346da7bd45059787e0f"),
}


@functools.cache
def decoded_at(name, snr_db):
    """sha256 of the symbols and of the metrics of the pinned batches at snr_db."""
    example, basis, variant = CODE_SHORTCUTS[name]
    code = codebook.build_code(algebra.catalog_entry(example), basis, variant)
    gs = detect_groups(hurwitz_radon(code))
    sigma2 = channel.snr_to_sigma2(snr_db)
    symbols, metrics = hashlib.sha256(), hashlib.sha256()
    for lo in range(0, 4096, channel.BATCH_SIZE):
        _, y, G = channel.draw_trials(11, 0, lo, lo + channel.BATCH_SIZE, code.generators, sigma2)
        res = conditional_group_decode(y, G, gs, pam_levels(2))
        symbols.update(res.symbols.astype(np.int8).tobytes())
        metrics.update(res.metric.astype(np.float64).tobytes())
    return symbols.hexdigest(), metrics.hexdigest()


@pytest.mark.parametrize("name", sorted(DECISIONS_SHA256))
def test_decisions_at_15_db_are_pinned(name):
    assert decoded_at(name, 15.0)[0] == DECISIONS_SHA256[name]


@pytest.mark.parametrize("name", sorted(METRICS_SHA256))
def test_metrics_at_15_db_are_pinned(name):
    assert decoded_at(name, 15.0)[1] == METRICS_SHA256[name]


@pytest.mark.parametrize("name, snr_db", sorted(PINNED_AT_0_AND_40_DB))
def test_decisions_at_0_and_40_db_are_pinned(name, snr_db):
    assert decoded_at(name, snr_db)[0] == PINNED_AT_0_AND_40_DB[name, snr_db][0]


@pytest.mark.parametrize("name, snr_db", sorted(PINNED_AT_0_AND_40_DB))
def test_metrics_at_0_and_40_db_are_pinned(name, snr_db):
    assert decoded_at(name, snr_db)[1] == PINNED_AT_0_AND_40_DB[name, snr_db][1]


# The decisions pins above, rerun in a child process on OpenBLAS's Haswell
# kernels, which it also picks on Zen CPUs.  y and G come from BLAS products,
# so their last bits, and the metrics, move with the kernel; no decision may.
# The child reports the kernel it ran on, or None when numpy's BLAS is not
# the scipy-openblas build that OPENBLAS_CORETYPE selects in.
HASWELL_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:]
from conftest import blas_core
from test_fastdecode import decoded_at

print(json.dumps([blas_core(), {f"{name} {snr_db}": decoded_at(name, snr_db)[0]
                           for name in ("C2", "C3", "C5") for snr_db in (0.0, 15.0, 40.0)}]))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS has Haswell kernels on x86-64 only")
def test_decisions_are_pinned_on_the_haswell_blas_kernel():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(fastdecode.__file__))]
    child = subprocess.run([sys.executable, "-c", HASWELL_CHILD, *paths], env=env,
                           capture_output=True, text=True, timeout=240)
    assert child.returncode == 0, child.stderr
    core, decisions = json.loads(child.stdout)
    if core is None:
        pytest.skip("numpy's BLAS is not scipy-openblas: OPENBLAS_CORETYPE selects no kernel")
    assert core == "Haswell"
    pinned = {**{f"{name} 15.0": digest for name, digest in DECISIONS_SHA256.items()},
              **{f"{name} {snr_db}": digests[0] for (name, snr_db), digests in PINNED_AT_0_AND_40_DB.items()}}
    assert decisions == pinned


# sha256 of ml_exhaustive's symbols (int8) and metric (float64), trial by
# trial, for trials 0..199 of SNR point 0 at 10 dB, seed 11, as the
# full-grid search gave them: a flipped decision or a changed bit of a
# reported metric shows here.
ORACLE_SHA256 = {
    "C2": "febb63c173296983ffc421b4186075a7cb5e9dc5e2d4f2fd08e83100460b1b0a",
    "C5": "6732c1c75b7c54a805ba448eeb8f79d0a4cf22850a268dd4aba7e98b45758b20",
}


@pytest.mark.parametrize("name", sorted(ORACLE_SHA256))
def test_oracle_at_10_db_is_pinned(name):
    example, basis, variant = CODE_SHORTCUTS[name]
    code = codebook.build_code(algebra.catalog_entry(example), basis, variant)
    _, y, G = channel.draw_trials(11, 0, 0, 200, code.generators, channel.snr_to_sigma2(10.0))
    digest = hashlib.sha256()
    for yi, Gi in zip(y, G):
        res = ml_exhaustive(yi, Gi, pam_levels(2))
        digest.update(res.symbols.astype(np.int8).tobytes())
        digest.update(np.float64(res.metric).tobytes())
    assert digest.hexdigest() == ORACLE_SHA256[name]


# Six symbols: two conditioned (one per half of the assignment grid) and
# groups of three and one, on channels with the two groups' columns in
# orthogonal subspaces of R^8.
SIX = GroupStructure((0, 5), ((1, 2, 3), (4,)), 5)


def six_channels(trials, rng):
    """Channels of SIX: R^8 columns with groups (1, 2, 3) and (4,) in orthogonal subspaces."""
    G = rng.standard_normal((trials, 8, 6))
    for t in range(trials):
        Q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        G[t][:, [1, 2, 3]] = Q[:, :3] @ rng.standard_normal((3, 3))
        G[t][:, [4]] = Q[:, 3:4] * rng.uniform(0.5, 2.0)
    return G


@pytest.mark.parametrize("pam", [pam_levels(2), pam_levels(4), (-1.0, 0.0, 1.0)],
                         ids=["pam2", "pam4", "three-levels"])
def test_block_orthogonal_six_symbol_channel_matches_oracle(pam):
    # with three levels the all-zero candidate of a group is its own negative
    m = len(pam)
    rng = np.random.default_rng(43 + m)
    trials = 24
    G = six_channels(trials, rng)
    s0 = rng.choice(pam, (trials, 6))
    y = np.einsum("bij,bj->bi", G, s0) + 0.7 * rng.standard_normal((trials, 8))
    res = conditional_group_decode(y, G, SIX, pam)
    assert res.visits == m ** 2 * (m ** 3 + m)
    for i in range(trials):
        oracle = ml_exhaustive(y[i], G[i], pam)
        assert np.array_equal(res.symbols[i], oracle.symbols), i
        assert abs(res.metric[i] - oracle.metric) <= 1e-9


def test_structure_conditioning_every_symbol_visits_each_assignment():
    gs = GroupStructure(tuple(range(6)), (), 6)
    rng = np.random.default_rng(47)
    G = rng.standard_normal((3, 8, 6))
    y = np.einsum("bij,bj->bi", G, rng.choice(pam_levels(2), (3, 6))) + 0.7 * rng.standard_normal((3, 8))
    res = conditional_group_decode(y, G, gs, pam_levels(2))
    assert res.visits == 64
    for i in range(3):
        oracle = ml_exhaustive(y[i], G[i], pam_levels(2))
        assert np.array_equal(res.symbols[i], oracle.symbols), i
        assert abs(res.metric[i] - oracle.metric) <= 1e-9


# (structure, alphabet, trials) in the order they are decoded: every
# structure, alphabet and batch size meets the others in the plan cache
# (SIX, or a name of BATCH_CASES)
PLAN_CASES = [("C2", "pam2", 256), ("SIX", "pam4", 5), ("C5", "pam2", 1), ("mixed", "three-levels", 5),
              ("trivial", "pam2", 1), ("SIX", "three-levels", 256), ("C2", "pam2", 5), ("mixed", "pam2", 256),
              ("C5", "pam2", 5), ("SIX", "pam2", 1), ("mixed", "pam4", 1), ("trivial", "pam2", 5),
              ("C2", "three-levels", 1), ("SIX", "pam4", 256), ("C5", "pam2", 256), ("mixed", "pam2", 1)]


def plan_case(i, structure, alphabet, trials):
    """`trials` noisy trials on channels that fit the structure; one trial unbatched."""
    rng = np.random.default_rng(60 + i)
    if structure == "SIX":
        gs, G = SIX, six_channels(trials, rng)
    else:
        gs, G, rng = batch_case(structure, trials, 60 + i)
    pam = ALPHABETS[alphabet]
    s0 = rng.choice(pam, (trials, G.shape[-1]))
    y = np.einsum("bij,bj->bi", G, s0) + 0.8 * rng.standard_normal((trials, G.shape[1]))
    return (y[0], G[0], gs, pam) if trials == 1 else (y, G, gs, pam)


def test_plan_cache_gives_what_a_fresh_plan_gives():
    cases = [plan_case(i, *case) for i, case in enumerate(PLAN_CASES)]
    warm = [conditional_group_decode(*case) for case in cases]
    for case, res, (name, alphabet, trials) in zip(cases, warm, PLAN_CASES):
        fastdecode._plan.cache_clear()
        fresh = conditional_group_decode(*case)
        assert np.array_equal(res.symbols, fresh.symbols), (name, alphabet, trials)
        assert np.array_equal(res.metric, fresh.metric), (name, alphabet, trials)
        assert res.visits == fresh.visits
        assert np.shape(res.symbols) == ((trials,) if trials > 1 else ()) + (case[1].shape[-1],)
    for gs, pam, width in {(case[2], tuple(case[3]), case[1].shape[-1]) for case in cases}:
        plan = fastdecode._plan(gs, pam, width)
        arrays = list(arrays_in(plan))
        # a, b, their grids, the labels and the cross mask, then three per stack of same-size groups
        assert len(arrays) == 6 + 3 * len({len(g) for g in gs.groups})
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


def arrays_in(obj):
    """Every array in a plan, through its nested tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from arrays_in(item)


@pytest.mark.parametrize("pam", [(0.0, 1.0), (-1.0, 1.0, 3.0)], ids=["zero-one", "shifted"])
def test_asymmetric_alphabet_is_rejected(pam):
    gs, G, _ = batch_case("C2", 2, 48)
    with pytest.raises(ValueError, match="symmetric about zero"):
        conditional_group_decode(np.zeros((2, 16)), G, gs, pam)


@pytest.mark.parametrize("gs", [
    GroupStructure((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2, 11), (12, 15), (13, 14)), 11),   # overlap
    GroupStructure((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13,)), 10),          # 14 missing
    GroupStructure((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13, 13)), 10),       # 13 twice
    GroupStructure((0, 1), ((2, 3, 4),), 5),                                                     # 5 of 16
    GroupStructure((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13, 16)), 10),       # 16 too big
], ids=["overlap", "missing", "repeated", "five-symbols", "out-of-range"])
def test_structure_that_does_not_partition_the_columns_is_rejected(gs):
    _, G, _ = batch_case("C2", 2, 49)
    for y, Gi in ((np.zeros((2, 16)), G), (np.zeros(16), G[0])):
        with pytest.raises(ValueError, match=r"GroupStructure\(.*\) does not partition the 16 columns of G"):
            conditional_group_decode(y, Gi, gs, pam_levels(2))


@pytest.mark.parametrize("exponent", [0, 9, 11, 16])
def test_structure_refuses_an_exponent_that_contradicts_its_groups(exponent):
    # 8 conditioned symbols and groups of at most 2 give exponent 10
    assert GroupStructure(B2_CONDITIONED, B2_GROUPS, 10).exponent == 10
    with pytest.raises(ValueError, match="exponent .* contradicts the structure"):
        GroupStructure(B2_CONDITIONED, B2_GROUPS, exponent)


# +0.0 and -0.0, magnitudes 1e-300 to 1e300 of both signs, and pairs that cancel
# exactly or to a last bit
SUMMANDS = np.concatenate([[0.0, -0.0], 10.0 ** np.arange(-300, 301, 25), -10.0 ** np.arange(-300, 301, 25),
                           [1.0 + 2.0 ** -52, -1.0, 3.0, -3.0, 1e16, -1e16 - 2.0]])


def test_rank_two_product_is_the_outer_sum_bit_for_bit():
    # the decoder's outer sums: [l | 1] [1 ; m] multiplies only by 1.0, so its
    # one rounding is the addition's; only the sign of a zero sum may differ
    rng = np.random.default_rng(50)
    l, m = SUMMANDS, rng.permutation(SUMMANDS)
    trials = np.stack([l, m, -l])
    left = np.stack([trials, np.ones_like(trials)], axis=-1)                    # (3, n, 2)
    right = np.stack([np.ones_like(trials), trials[::-1]], axis=-2)            # (3, 2, n)
    product = np.matmul(left, right, out=np.empty((3, len(l), len(l))))
    outer = trials[:, :, None] + trials[::-1, None, :]
    assert np.array_equal(product, outer)
    assert np.array_equal(np.abs(product).view(np.uint64), np.abs(outer).view(np.uint64))


def test_rank_three_product_sums_its_terms_in_order():
    # the group terms [l | 1 | -d] [s ; s m ; 1], s = 1 or -1, round as (s l + s m) - d: the
    # BLAS behind numpy adds the terms of a product in order
    rng = np.random.default_rng(51)
    l, m, d = SUMMANDS, rng.permutation(SUMMANDS), rng.permutation(SUMMANDS)
    for shift in range(len(d)):
        dk = np.roll(d, shift)
        left = np.stack([l, np.ones_like(l), -dk], axis=-1)
        for sign in (1.0, -1.0):
            right = np.stack([np.full_like(m, sign), sign * m, np.ones_like(m)])
            assert np.array_equal(left @ right, (sign * l[:, None] + sign * m[None, :]) - dk[:, None])


def test_batch_names_the_trial_that_breaks_orthogonality():
    gs, G, rng = batch_case("C2", 5, 42)
    G[3] = rng.standard_normal((16, 16))      # not a real channel of this code
    with pytest.raises(StructureInvalidError, match="trial 3 of the batch: .* not orthogonal"):
        conditional_group_decode(np.zeros((5, 16)), G, gs, pam_levels(2))
    # the other four trials decode
    keep = [0, 1, 2, 4]
    res = conditional_group_decode(np.zeros((4, 16)), G[keep], gs, pam_levels(2))
    assert res.symbols.shape == (4, 16)


def cross_mask(label):
    """(n, n): True where symbols l and m lie in two different groups."""
    return (label[:, None] != label) & (label[:, None] >= 0) & (label >= 0)


def first_coupling(K, gs, label):
    """The error the guard must raise for K, read off the whole (B, n, n) stack with _coupled; None
    when no trial couples two groups."""
    bad = np.argwhere(fastdecode._coupled(K) & cross_mask(label))
    if not len(bad):
        return None
    t, l, m = bad[0]
    dot = abs(K[t, l, m]) / np.sqrt(K[t, l, l]) / np.sqrt(K[t, m, m])
    return (f"trial {t} of the batch: groups {gs.groups[label[l]]} and {gs.groups[label[m]]} are not "
            f"orthogonal for this channel (normalized inner product {dot:.3e})")


def guard_message(K, gs):
    """The guard's error for K, or None when it passes K."""
    plan = fastdecode._plan(gs, pam_levels(2), K.shape[-1])
    try:
        fastdecode._verify_structure(K, gs, *plan[4:6])
    except StructureInvalidError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["B1", "C2", "C5", "mixed"]), trials=st.integers(1, 9), data=st.data())
def test_guard_names_the_first_coupling_of_the_whole_matrix(name, trials, data):
    # couplings planted at random trials and cross-group pairs, below, at, above and far above the
    # rule's 1e-8 and overflowed, are judged as _coupled judges the whole matrix
    gs, G, _ = batch_case(name, trials, 70)
    K = G.swapaxes(-1, -2) @ G
    label = fastdecode._plan(gs, pam_levels(2), 16)[4]
    pairs = np.argwhere(cross_mask(label))
    plants = data.draw(st.lists(st.tuples(st.integers(0, trials - 1), st.integers(0, len(pairs) - 1),
                                          st.sampled_from([5e-9, -5e-9, "edge", 1.5e-8, -1.5e-8, 0.3, np.inf])),
                                max_size=4))
    for t, p, scale in plants:
        l, m = pairs[p]
        d = np.sqrt(K[t, l, l]), np.sqrt(K[t, m, m])
        K[t, l, m] = K[t, m, l] = ORTHOGONALITY_TOL * (d[0] * d[1]) if scale == "edge" else scale * d[0] * d[1]
    assert guard_message(K, gs) == first_coupling(K, gs, label)


def test_guard_names_an_overflowed_coupling_of_two_groups_only():
    gs, G, _ = batch_case("C2", 3, 72)
    K = G.swapaxes(-1, -2) @ G
    label = fastdecode._plan(gs, pam_levels(2), 16)[4]
    (u, v), (w, _) = gs.groups[:2]
    for l, m in ((u, v), (gs.conditioned[0], u)):       # inside a group; a conditioned symbol and a group
        K[0, l, m] = K[0, m, l] = np.inf
    assert guard_message(K, gs) is None
    K[1, v, w] = K[1, w, v] = np.inf
    assert guard_message(K, gs) == first_coupling(K, gs, label)
    assert "trial 1 of the batch" in guard_message(K, gs) and "inner product inf" in guard_message(K, gs)


@pytest.mark.parametrize("gs", [TRIVIAL, GroupStructure((0, 1, 2, 3), (tuple(range(4, 16)),), 16)],
                         ids=["trivial", "one-group"])
def test_guard_passes_a_structure_without_cross_group_pairs(gs):
    rng = np.random.default_rng(73)
    G = rng.standard_normal((4, 16, 16))
    K = G.swapaxes(-1, -2) @ G
    K[2, 4, 15] = K[2, 15, 4] = np.inf
    assert fastdecode._plan(gs, pam_levels(2), 16)[5].size == 0
    assert guard_message(K, gs) is None


@pytest.mark.parametrize("snr_db", [0.0, 15.0, 40.0, None], ids=["0dB", "15dB", "40dB", "zero-signal"])
@pytest.mark.parametrize("name, rows", [("C2", 256), ("C5", 256), ("trivial", 20)])
def test_decisions_do_not_depend_on_the_batch(name, rows, snr_db):
    # the same drawn rows decoded one at a time, 13 at a time and all at once; the trivial
    # structure's group terms take 8 MB a row, so it decodes fewer
    example, basis, variant = CODE_SHORTCUTS["C2" if name == "trivial" else name]
    code = codebook.build_code(algebra.catalog_entry(example), basis, variant)
    gs = TRIVIAL if name == "trivial" else detect_groups(hurwitz_radon(code))
    sigma2 = channel.snr_to_sigma2(15.0 if snr_db is None else snr_db)
    _, y, G = channel.draw_trials(12, 0, 0, rows, code.generators, sigma2)
    if snr_db is None:
        y = np.zeros_like(y)
    runs = []
    for size in (1, 13, rows):
        parts = [conditional_group_decode(y[lo:lo + size], G[lo:lo + size], gs, pam_levels(2))
                 for lo in range(0, rows, size)]
        runs.append([np.concatenate([res.symbols for res in parts]), np.concatenate([res.metric for res in parts])])
    for symbols, metrics in runs[1:]:
        assert np.array_equal(symbols, runs[0][0])
        assert np.array_equal(metrics.view(np.uint64), runs[0][1].view(np.uint64))


def test_trivial_structure_decodes_a_batch_in_bounded_memory():
    # the trivial structure's group terms take about 8 MB a row, so 24 rows at once would need
    # about 200 MB; decoded in row chunks they stay within 48 MB, bit for bit as row by row
    code = build(1, "B2")
    _, y, G = channel.draw_trials(3, 0, 0, 24, code.generators, channel.snr_to_sigma2(15.0))
    single = [conditional_group_decode(y[i], G[i], TRIVIAL, pam_levels(2)) for i in range(len(y))]
    tracemalloc.start()
    try:
        res = conditional_group_decode(y, G, TRIVIAL, pam_levels(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6
    assert np.array_equal(res.symbols, [r.symbols for r in single])
    assert np.array_equal(res.metric.view(np.uint64), np.array([r.metric for r in single]).view(np.uint64))


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "B1"])
def test_catalog_codes_decode_a_whole_batch_in_one_block(name, monkeypatch):
    example, basis, variant = CODE_SHORTCUTS.get(name, (1, "B1", "plain"))
    code = codebook.build_code(algebra.catalog_entry(example), basis, variant)
    _, y, G = channel.draw_trials(4, 0, 0, channel.BATCH_SIZE, code.generators, channel.snr_to_sigma2(15.0))
    rows, decode_block = [], fastdecode._decode_block
    monkeypatch.setattr(fastdecode, "_decode_block", lambda K, z, plan: rows.append(len(K)) or decode_block(K, z, plan))
    conditional_group_decode(y, G, detect_groups(hurwitz_radon(code)), pam_levels(2))
    assert rows == [channel.BATCH_SIZE]


@pytest.mark.parametrize("y_shape, g_shape", [
    ((16,), (2, 16, 16)),        # one y, a batch of channels
    ((3, 16), (2, 16, 16)),      # batch sizes differ
    ((15,), (16, 16)),           # y shorter than G's 16 rows
    ((2, 17), (2, 16, 16)),
    ((0, 16), (0, 16, 16)),      # empty batch
    ((1, 2, 16), (1, 2, 16, 16)),
])
def test_decode_rejects_mismatched_shapes(y_shape, g_shape):
    gs = detect_groups(hurwitz_radon(build(1, "B2")))
    with pytest.raises(ValueError, match="does not match G"):
        conditional_group_decode(np.zeros(y_shape), np.eye(16) * np.ones(g_shape),
                                 gs, pam_levels(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["y", "G"])
@pytest.mark.parametrize("batch", [None, 3], ids=["one-trial", "batch"])
def test_decoders_refuse_non_finite_input(bad, where, batch):
    rng = np.random.default_rng(5)
    gs = detect_groups(hurwitz_radon(build(1, "B2")))
    shape = () if batch is None else (batch,)
    y, G = rng.standard_normal(shape + (16,)), rng.standard_normal(shape + (16, 16))
    (y if where == "y" else G).flat[0] = bad          # trial 0 holds the bad entry
    with pytest.raises(ValueError, match="y and G must be finite"):
        conditional_group_decode(y, G, gs, pam_levels(2))
    with pytest.raises(ValueError, match="y and G must be finite"):
        ml_exhaustive(y if batch is None else y[0], G if batch is None else G[0], pam_levels(2))


@pytest.mark.parametrize("where", ["y", "G"])
@pytest.mark.parametrize("batch", [None, 3], ids=["one-trial", "batch"])
def test_decoders_refuse_complex_input(where, batch):
    # real channels of C2, so that only the imaginary part is wrong
    gs, G, rng = batch_case("C2", batch or 1, 53)
    y = rng.standard_normal(G.shape[:-1])
    if batch is None:
        y, G = y[0], G[0]
    if where == "y":
        y = y + 1j * rng.standard_normal(y.shape)
    else:
        G = G + 1j * rng.standard_normal(G.shape)
    with pytest.raises(ValueError, match="y and G must be real"):
        conditional_group_decode(y, G, gs, pam_levels(2))
    with pytest.raises(ValueError, match="y and G must be real"):
        ml_exhaustive(y if batch is None else y[0], G if batch is None else G[0], pam_levels(2))


@pytest.mark.parametrize("pam", [(-np.inf, np.inf), (), (-1.0, 1.0, 1.0, -1.0), (0.0,)],
                         ids=["infinite", "empty", "repeated", "one-level"])
@pytest.mark.parametrize("decoder", ["oracle", "conditional"])
def test_decoders_refuse_a_malformed_alphabet(decoder, pam):
    gs, G, rng = batch_case("C2", 1, 54)
    y = G[0] @ rng.choice(pam_levels(2), 16)
    with pytest.raises(ValueError, match=re.escape(f"the alphabet must hold two or more distinct finite "
                                                   f"levels, got {pam}")):
        if decoder == "oracle":
            ml_exhaustive(y, G[0], pam)
        else:
            conditional_group_decode(y, G[0], gs, pam)


def reference_groups(adj, target):
    """detect_groups written out: every conditioning set of the wanted size,
    its components by breadth-first search over Python sets, and the least
    (exponent, set size, mask) among the sets that split the graph."""
    n = len(adj)
    neighbours = [{w for w in range(n) if adj[v][w]} for v in range(n)]
    best = None
    for mask in range(1 << n):
        cond = {i for i in range(n) if mask >> i & 1}
        if target is not None and len(cond) != target:
            continue
        rest, comps = set(range(n)) - cond, []
        while rest:
            comp, queue = set(), [min(rest)]
            while queue:
                v = queue.pop(0)
                if v not in comp:
                    comp.add(v)
                    queue.extend(neighbours[v] & rest - comp)
            comps.append(tuple(sorted(comp)))
            rest -= comp
        key = (len(cond) + max(map(len, comps), default=0), len(cond), mask)
        if len(comps) >= 2 and (best is None or key < best[0]):
            best = (key, tuple(sorted(cond)), tuple(sorted(comps)))
    if best is None:
        return (), (tuple(range(n)),), n
    return best[1], best[2], best[0][0]


@pytest.mark.parametrize("seed", range(100))
def test_detect_groups_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.15, 0.8), 1)
    b = (upper | upper.T) * rng.uniform(0.5, 2.0, (n, n)) + np.eye(n)
    b = np.maximum(b, b.T)
    adj = adjacency(b)
    for target in (None, *range(n)):
        gs = detect_groups(b, target)
        assert (gs.conditioned, gs.groups, gs.exponent) == reference_groups(adj, target), target


@pytest.mark.parametrize("n", [5, 6, 9])
def test_detect_groups_breaks_ties_by_the_least_mask(n):
    # on a ring and on a graph without edges many conditioning sets of one size
    # tie on (exponent, |set|); the least mask among them is the one taken
    eye = np.eye(n)
    ring = eye + np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1)
    for b in (ring, eye):
        adj = adjacency(b)
        for target in (None, *range(n)):
            gs = detect_groups(b, target)
            assert (gs.conditioned, gs.groups, gs.exponent) == reference_groups(adj, target), target
    assert detect_groups(eye, 2) == GroupStructure((0, 1), tuple((i,) for i in range(2, n)), 3)
    if n == 6:      # {0, 3}, {1, 4} and {2, 5} each leave two pairs
        assert detect_groups(ring, 2) == detect_groups(ring) == GroupStructure((0, 3), ((1, 2), (4, 5)), 4)


@pytest.mark.parametrize("separator, small, large", [(4, 6, 8), (5, 7, 8)], ids=["n18", "n20"])
def test_detect_groups_finds_a_planted_separator(separator, small, large):
    # Two cliques joined only through a separator set that is coupled to every
    # symbol.  Any splitting set holds the whole separator, and then keeping x
    # and y symbols of the two cliques costs separator + small + large - min(x, y),
    # so the least set is the separator alone, with exponent separator + large.
    # Below that size nothing splits.
    n = separator + small + large
    rng = np.random.default_rng(n)
    sep, a, c = np.split(rng.permutation(n), [separator, separator + small])
    adj = np.zeros((n, n), dtype=bool)
    for block in (np.r_[sep, a], np.r_[sep, c]):
        adj[np.ix_(block, block)] = True
    b = np.where(adj, rng.uniform(0.5, 2.0, (n, n)), 0.0)
    b = np.maximum(b, b.T)
    groups = tuple(sorted((tuple(sorted(a.tolist())), tuple(sorted(c.tolist())))))
    planted = GroupStructure(tuple(sorted(sep.tolist())), groups, separator + large)
    assert detect_groups(b) == planted
    assert detect_groups(b, separator) == planted
    assert detect_groups(b, separator - 1) == GroupStructure((), (tuple(range(n)),), n)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(classes=st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=2, max_size=8)
       .filter(lambda cs: sum(size for size, _ in cs) <= 12 and max(size for size, _ in cs) >= 2),
       density=st.floats(0.1, 0.9), seed=st.integers(0, 2 ** 32 - 1))
def test_detect_groups_matches_brute_force_on_planted_twins(classes, density, seed):
    # each class of 2-4 symbols shares its neighbours outside the class: true twins
    # when the class is a clique, false twins when it has no inner edge; the search
    # skips the sets that hold a twin without its lower ones
    rng = np.random.default_rng(seed)
    sizes, cliques = zip(*classes)
    upper = np.triu(rng.random((len(sizes), len(sizes))) < density, 1)
    label = np.repeat(np.arange(len(sizes)), sizes)
    adj = (upper | upper.T)[np.ix_(label, label)] | (label[:, None] == label) & np.array(cliques)[label]
    n = len(label)
    perm = rng.permutation(n)
    adj = adj[np.ix_(perm, perm)] & ~np.eye(n, dtype=bool)
    b = adj * rng.uniform(0.5, 2.0, (n, n))
    b = np.maximum(b, b.T) + np.eye(n)
    assert (adjacency(b) == adj).all()
    for target in (None, *range(n)):
        gs = detect_groups(b, target)
        assert (gs.conditioned, gs.groups, gs.exponent) == reference_groups(adj, target), target


# The default structure of every catalog build as a search over all 65,535
# proper sets gives it: (conditioned, groups, exponent).
CATALOG_STRUCTURES = {
    (1, "B2", "plain"): ((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13, 14)), 10),
    (2, "B2", "plain"): ((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13, 14)), 10),
    (3, "B2", "plain"): ((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13, 14)), 10),
    (4, "B2", "plain"): ((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13, 14)), 10),
    (5, "B2", "plain"): ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), ((12, 15), (13, 14)), 14),
    (1, "B1", "plain"): ((4, 5, 6, 7, 8, 9, 10, 11), ((0, 1, 2, 3), (12, 13, 14, 15)), 12),
    (2, "B1", "plain"): ((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13, 14)), 10),
    (3, "B1", "plain"): ((4, 5, 6, 7, 8, 9, 10, 11), ((0, 1, 2, 3), (12, 13, 14, 15)), 12),
    (5, "B1", "plain"): ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), ((14,), (15,)), 15),
    (1, "B3", "plain"): ((4, 5, 6, 7, 8, 9, 10, 11), ((0, 3), (1, 2), (12, 15), (13, 14)), 10),
    (5, "B3", "plain"): ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), ((12, 15), (13, 14)), 14),
    (1, "B2", "C4"): ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), ((12, 15), (13, 14)), 14),
}


@pytest.mark.parametrize("entry, basis, variant", sorted(CATALOG_STRUCTURES))
def test_catalog_structures_are_pinned(entry, basis, variant):
    gs = detect_groups(hurwitz_radon(codebook.build_code(algebra.catalog_entry(entry), basis, variant)))
    assert (gs.conditioned, gs.groups, gs.exponent) == CATALOG_STRUCTURES[entry, basis, variant]


@pytest.mark.parametrize("target", [7, 9, 12])
def test_c2_at_a_target_matches_brute_force(target):
    # C2's graph splits into twin pairs; at 9 and 12 the least set holds the lower of a pair
    b = hurwitz_radon(build(1, "B2"))
    gs = detect_groups(b, target)
    assert (gs.conditioned, gs.groups, gs.exponent) == reference_groups(adjacency(b), target)


PROPERTY_CODES = {name: (code, detect_groups(hurwitz_radon(code)))
                  for name, code in (("C2", build(1, "B2")), ("C5", build(5, "B2")))}
_unit = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(PROPERTY_CODES)),
       h=st.lists(_unit, min_size=16, max_size=16),
       s0=st.lists(st.sampled_from((-1.0, 1.0)), min_size=16, max_size=16),
       noise=st.lists(_unit, min_size=16, max_size=16))
def test_decoder_agrees_with_oracle_property(name, h, s0, noise):
    code, gs = PROPERTY_CODES[name]
    H = np.array(h[:8]).reshape(2, 4) + 1j * np.array(h[8:]).reshape(2, 4)
    G = _real_channel(code.generators, H)
    y = G @ np.array(s0) + np.array(noise)
    r_cg = conditional_group_decode(y, G, gs, pam_levels(2))
    r_ml = ml_exhaustive(y, G, pam_levels(2))
    # degenerate channels (say H = 0) tie many vectors, so compare metrics
    assert abs(r_cg.metric - r_ml.metric) <= 1e-9


# Every catalog entry over every basis defined for it, plus C4.
MARGIN_CODES = ([(n, "B2", "plain") for n in range(1, 6)] + [(n, "B1", "plain") for n in (1, 2, 3, 5)]
                + [(1, "B3", "plain"), (5, "B3", "plain"), (1, "B2", "C4")])


@pytest.mark.parametrize("entry, basis, variant", MARGIN_CODES,
                         ids=[f"{n}-{basis}-{variant}" for n, basis, variant in MARGIN_CODES])
def test_catalog_couplings_clear_the_rule_by_a_margin(entry, basis, variant):
    b = hurwitz_radon(codebook.build_code(algebra.catalog_entry(entry), basis, variant))
    d = np.sqrt(np.diag(b))
    off = ~np.eye(16, dtype=bool)
    normalized, coupled = (b / np.outer(d, d))[off], adjacency(b)[off]
    assert normalized[~coupled].max(initial=0.0) <= 1e-15
    assert normalized[coupled].min() >= 0.1


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
def test_adjacency_refuses_a_lost_self_coupling(value):
    b = np.full((4, 4), 0.5) + np.eye(4)
    b[2, 2] = value
    with pytest.raises(ValueError, match="symbol 3 .* the parameters leave double precision"):
        adjacency(b)


@pytest.mark.parametrize("lprime", ["1", "1e-20"])
@pytest.mark.parametrize("k", ["1e-300", "1e-20", "4/7", "123456789012345678901/7", "1e100"])
@pytest.mark.parametrize("basis", ["B1", "B2", "B3"])
def test_detected_structure_holds_on_every_trial_at_extreme_scales(basis, k, lprime):
    # either detect_groups refuses, or the structure it publishes survives
    # the per-trial check on a whole batch
    ctx = FieldContext(3, 1)
    u = ctx.element(Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2))
    params = algebra.build_params(ctx, u, k=Fraction(k), lprime=Fraction(lprime))
    code = codebook.build_code(params, basis)
    try:
        gs = detect_groups(hurwitz_radon(code))
    except ValueError as exc:
        assert "the parameters leave double precision" in str(exc)
        return
    _, y, G = channel.draw_trials(0, 0, 0, 64, code.generators, channel.snr_to_sigma2(15.0))
    res = conditional_group_decode(y, G, gs, pam_levels(2))
    assert res.symbols.shape == (64, 16)


_mantissa = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(basis=st.sampled_from(("B1", "B2", "B3")),
       k=st.tuples(_mantissa, st.integers(-320, 320)), lprime=st.tuples(_mantissa, st.integers(-320, 320)))
def test_detected_structure_holds_on_every_trial_at_generated_scales(basis, k, lprime):
    # k and l' = m * 10^e: either the code is refused as leaving double
    # precision, or the structure analyze publishes survives a whole batch
    ctx = FieldContext(3, 1)
    u = ctx.element(Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2))
    try:
        params = algebra.build_params(ctx, u, k=k[0] * Fraction(10) ** k[1],
                                      lprime=lprime[0] * Fraction(10) ** lprime[1])
        code = codebook.build_code(params, basis)
        gs = detect_groups(hurwitz_radon(code))
    except ValueError as exc:
        assert "the parameters leave double precision" in str(exc)
        return
    _, y, G = channel.draw_trials(0, 0, 0, 64, code.generators, channel.snr_to_sigma2(10.0))
    res = conditional_group_decode(y, G, gs, pam_levels(2))
    assert res.symbols.shape == (64, 16)
