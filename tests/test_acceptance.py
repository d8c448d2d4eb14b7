"""The nine acceptance criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Criterion 8 is the long one (a Monte Carlo word error
rate comparison); everything else finishes in seconds.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from midostc import algebra, channel, codebook, fastdecode
from midostc.cli import main as cli_main

F = Fraction
SEED = 20260819


class criterion:
    """Times a criterion block, enforces its budget, prints one line."""

    def __init__(self, n, desc, budget_s=None):
        self.n = n
        self.desc = desc
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.n}: {status} ({dt:.1f}s) {self.desc}")
        if exc_type is None and self.budget is not None:
            assert dt < self.budget, f"criterion {self.n} exceeded {self.budget}s budget: {dt:.1f}s"
        return False


def random_symbols(rng, n, lo=-4, hi=4):
    return np.array([[rng.randint(lo, hi) for _ in range(16)] for _ in range(n)], dtype=float)


# ----------------------------------------------------------------------
# 1. exact parameter reproduction


def test_criterion_1_exact_parameters():
    expected = {
        1: dict(usu=(-1, 0, 0, 0), utu=(0, -1, 0, 0),
                a=(0, 0, 1, 0), b=(F(1, 2), F(1, 2), 0, 0), eps=(0, -1, 0, 0)),
        2: dict(usu=(-1, 0, 0, 0), utu=(0, -1, 0, 0),
                a=(0, 0, 1, 0), b=(F(1, 2), F(1, 2), 0, 0), eps=(0, -1, 0, 0)),
        3: dict(usu=(-1, 0, 0, 0), utu=(0, -1, 0, 0),
                a=(0, 0, 1, 0), b=(F(1, 2), F(1, 2), 0, 0), eps=(0, -1, 0, 0)),
        4: dict(usu=(-1, 0, 0, 0), utu=(-1, 0, 0, 0),
                a=(0, 0, 1, 0), b=(0, 1, 0, 0), eps=(-1, 0, 0, 0)),
        5: dict(usu=(F(-1, 2), 0, F(-1, 2), 0), utu=(-1, 0, 0, 0),
                a=(F(1, 2), 0, F(-1, 2), 0), b=(0, 1, 0, 0), eps=(-1, 0, 0, 0)),
    }
    with criterion(1, "exact algebra parameters for the five reference entries", 1.0):
        for n, exp in expected.items():
            p = algebra.catalog_entry(n)
            rep = p.conditions
            assert tuple(rep.u_sigma_u.coords) == tuple(F(v) for v in exp["usu"]), n
            assert tuple(rep.u_tau_u.coords) == tuple(F(v) for v in exp["utu"]), n
            assert tuple(p.a.coords) == tuple(F(v) for v in exp["a"]), n
            assert tuple(p.b.coords) == tuple(F(v) for v in exp["b"]), n
            assert tuple(p.epsilon.coords) == tuple(F(v) for v in exp["eps"]), n
            assert rep.norm_u == 1 and rep.ok, n


# ----------------------------------------------------------------------
# 2. division table


def test_criterion_2_division_table():
    expected = [
        (2, -1, False, "2 = 1 + 1"), (3, -1, True, None),
        (5, -1, False, "5 = 1 + 4"), (6, -1, True, None),
        (7, -1, True, None), (10, -1, False, "10 = 9 + 1"),
        (11, -1, True, None), (13, -1, False, "13 = 9 + 4"),
        (2, -2, False, "2 = 0 + 2"), (3, -2, False, "3 = 1 + 2"),
        (5, -2, True, None), (6, -2, False, "6 = 4 + 2"),
        (7, -2, True, None), (10, -2, True, None),
        (11, -2, False, "11 = 9 + 2"), (13, -2, True, None),
    ]
    with criterion(2, "all 16 division verdicts with printed witnesses", 1.0):
        assert algebra.division_table() == expected


# ----------------------------------------------------------------------
# 3. block orthogonality


def test_criterion_3_block_orthogonality():
    with criterion(3, "2x2 block column orthogonality for entries 1-4 over B2"):
        rng = random.Random(SEED)
        for n in (1, 2, 3, 4):
            code = codebook.build_code(algebra.catalog_entry(n), "B2")
            S = random_symbols(rng, 1000)
            X = np.einsum("ni,ijk->njk", S, code.generators)
            for bi in (0, 2):
                for bj in (0, 2):
                    blk = X[:, bi:bi + 2, bj:bj + 2]
                    ip = np.abs(np.sum(np.conj(blk[:, :, 0]) * blk[:, :, 1], axis=1))
                    bound = (np.linalg.norm(blk[:, :, 0], axis=1)
                             * np.linalg.norm(blk[:, :, 1], axis=1))
                    assert (ip <= 1e-9 * np.maximum(bound, 1e-30)).all(), n


# ----------------------------------------------------------------------
# 4. determinant preservation


def test_criterion_4_determinant_preservation():
    with criterion(4, "|det| preserved through permutation, normalization, block scaling"):
        rng = random.Random(SEED + 1)
        p = algebra.catalog_entry(1)
        for _ in range(1000):
            xs = tuple(p.ctx.element(*[F(rng.randint(-2, 2), rng.randint(1, 2))
                                       for _ in range(4)]) for _ in range(4))
            d0 = abs(np.linalg.det(algebra.representation(p, xs)))
            d2 = abs(np.linalg.det(algebra.normalized_codeword(p, xs)))
            scale = max(1.0, d0)
            assert abs(d2 - d0) <= 1e-10 * scale
        # block scaling step: the C4 variant against the identically
        # parameterized plain build
        c4 = codebook.build_code(p, "B2", "C4")
        plain = codebook.build_code(
            algebra.build_params(p.ctx, p.u, k=F(4, 7), lprime=F(4, 7)), "B2")
        S = random_symbols(rng, 1000)
        d4 = np.abs(np.linalg.det(np.einsum(
            "ni,ijk->njk", S, c4.generators / c4.energy_scale)))
        dp = np.abs(np.linalg.det(np.einsum(
            "ni,ijk->njk", S, plain.generators / plain.energy_scale)))
        assert (np.abs(d4 - dp) <= 1e-10 * np.maximum(dp, 1.0)).all()


# ----------------------------------------------------------------------
# 5. fast-decodability exponents


def test_criterion_5_decodability_exponents():
    with criterion(5, "detected complexity exponents 10 (B2) and 12 (B1)", 10.0):
        p = algebra.catalog_entry(1)
        gs2 = fastdecode.detect_groups(
            fastdecode.hurwitz_radon(codebook.build_code(p, "B2")))
        assert gs2.exponent == 10
        gs1 = fastdecode.detect_groups(
            fastdecode.hurwitz_radon(codebook.build_code(p, "B1")))
        assert gs1.exponent == 12


# ----------------------------------------------------------------------
# 6. decoder oracle equivalence


def test_criterion_6_decoder_oracle_equivalence():
    with criterion(6, "conditional decoder matches exhaustive ML on 100 instances", 120.0):
        code = codebook.build_code(algebra.catalog_entry(1), "B2")
        gs = fastdecode.detect_groups(fastdecode.hurwitz_radon(code))
        pam = fastdecode.pam_levels(2)
        sigma2 = channel.snr_to_sigma2(10.0)
        _, y, G = channel.draw_trials(SEED + 2, 0, 0, 100, code.generators, sigma2)
        r_cg = fastdecode.conditional_group_decode(y, G, gs, pam)
        for trial in range(100):
            r_ml = fastdecode.ml_exhaustive(y[trial], G[trial], pam)
            assert abs(r_ml.metric - r_cg.metric[trial]) <= 1e-9
            assert r_cg.visits == 4096 and r_ml.visits == 65536
        # the visit counts include the constant group count (4 groups of 2:
        # 4096 = 2^8 * 4 * 2^2); the order of growth in the constellation
        # size M is M^exponent vs M^16, a ratio of M^(10-16)
        m = len(pam)
        assert m ** gs.exponent == 1024 and m ** 16 == 65536


# ----------------------------------------------------------------------
# 7. nonvanishing determinant evidence


def test_criterion_7_nvd_evidence():
    with criterion(7, "sparse search min |det| clears the derived 1/D floor", 300.0):
        rng = random.Random(SEED + 3)
        for n in (1, 2, 3):
            p = algebra.catalog_entry(n)
            code = codebook.build_code(p, "B2")
            basis = codebook.make_basis(p.ctx, "B2")
            # empirical determinant denominator over random integer symbols
            denom = 1
            for _ in range(200):
                s = [rng.randint(-2, 2) for _ in range(16)]
                xs = tuple(
                    (s[4 * j] + s[4 * j + 1] * p.ctx.omega_prime()) * basis.beta1
                    + (s[4 * j + 2] + s[4 * j + 3] * p.ctx.omega_prime()) * basis.beta2
                    for j in range(4))
                d = algebra.representation_det_exact(p, xs)
                denom = denom * d.denominator // math.gcd(denom, d.denominator)
            assert denom == 2, n
            res = codebook.min_det_search(code, "sparse_exhaustive")
            assert res.min_abs_det > 0, n
            assert res.min_abs_det >= 1.0 / denom - 1e-6, n


# ----------------------------------------------------------------------
# 8. word error rate ordering


def test_criterion_8_wer_ordering():
    with criterion(8, "C3 beats C2 and C5 is no worse at the 1e-2 operating point", 1800.0):
        codes = {}
        for name, (entry, basis, variant) in (("C2", (1, "B2", "plain")),
                                              ("C3", (1, "B3", "plain")),
                                              ("C5", (5, "B2", "plain"))):
            code = codebook.build_code(algebra.catalog_entry(entry), basis)
            gs = fastdecode.detect_groups(fastdecode.hurwitz_radon(code))
            codes[name] = (code, gs)

        # coarse sweep to locate where C2 crosses a word error rate of 1e-2
        sweep_points = [12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0]
        c2, gs2 = codes["C2"]
        sweep = channel.simulate_wer(c2, gs2, sweep_points, seed=SEED,
                                     min_errors=60, max_trials=3072)
        usable = [r for r in sweep if r.word_errors > 0]
        assert usable, "C2 produced no errors anywhere on the sweep grid"
        operating = min(usable, key=lambda r: abs(math.log10(r.wer) + 2.0))
        snr = operating.snr_db

        # at least 10^4 words for each code at the operating point
        words = 20000
        wer = {}
        ci = {}
        for name, (code, gs) in codes.items():
            rec = channel.simulate_wer(code, gs, [snr], seed=SEED + 4,
                                       min_errors=10 ** 9, max_trials=words)[0]
            assert rec.trials >= 10 ** 4
            wer[name] = rec.wer
            ci[name] = channel.wilson_interval(rec.word_errors, rec.trials)
        print(f"  operating point {snr:g} dB: "
              + ", ".join(f"{k}={wer[k]:.4g} CI=({ci[k][0]:.4g},{ci[k][1]:.4g})"
                          for k in sorted(wer)))
        # C3 strictly better with non-overlapping 95% intervals
        assert ci["C3"][1] < ci["C2"][0], (ci["C3"], ci["C2"])
        # C5 no worse at the same operating point
        assert wer["C5"] <= wer["C2"], (wer["C5"], wer["C2"])


# ----------------------------------------------------------------------
# 9. reproducibility


def test_criterion_9_reproducibility(tmp_path, capsys):
    with criterion(9, "a rerun simulate command yields byte-identical CSV"):
        paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
        for path in paths:
            rc = cli_main(["simulate", "--code", "C2", "--snr", "9,12",
                           "--seed", str(SEED), "--min-errors", "25",
                           "--max-trials", "512", "--output", str(path)])
            assert rc == 0
        capsys.readouterr()
        b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
        assert b1 == b2 and len(b1) > 0
