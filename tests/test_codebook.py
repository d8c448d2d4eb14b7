"""Symbol bases, dispersion codes, energy, minimum determinants."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midostc import algebra, codebook
from midostc.codebook import (
    TARGET_ENERGY,
    UnsupportedBasisError,
    UnsupportedVariantError,
    build_code,
    c4_transform,
    encode,
    make_basis,
    min_det_search,
)
from midostc.numberfield import FieldContext

F = Fraction


def random_pam(rng, m=2):
    levels = [2 * i - (m - 1) for i in range(m)]
    return [float(rng.choice(levels)) for _ in range(16)]


def test_basis_b2_is_one_omega():
    ctx = FieldContext(3, 1)
    b = make_basis(ctx, "B2")
    assert b.beta1 == ctx.one()
    assert b.beta2 == ctx.omega()


def test_basis_b1_integral_when_possible():
    ctx = FieldContext(3, 1)
    b = make_basis(ctx, "B1")
    beta = b.beta2
    assert beta == (ctx.one() + ctx.omega()) * F(1, 2)
    # beta generates the ring of integers: beta^2 - beta + (1 + c)/4 = 0
    assert beta * beta - beta + F(1 + 3, 4) == ctx.zero()
    # -c = 3 mod 4 has no such element; fall back to {1, w}
    b2 = make_basis(FieldContext(2, 1), "B1")
    assert b2.beta2 == FieldContext(2, 1).omega()
    # c = 7: -7 = 1 mod 4, integral basis applies again
    b7 = make_basis(FieldContext(7, 1), "B1")
    assert b7.beta2 == (FieldContext(7, 1).one() + FieldContext(7, 1).omega()) * F(1, 2)


def test_basis_b1_needs_gaussian_base():
    with pytest.raises(UnsupportedBasisError):
        make_basis(FieldContext(5, 2), "B1")


def test_basis_b3_only_for_c3():
    ctx = FieldContext(3, 1)
    b = make_basis(ctx, "B3")
    assert b.beta1 == ctx.element(2)
    assert b.beta2 == ctx.omega()
    with pytest.raises(UnsupportedBasisError):
        make_basis(FieldContext(5, 2), "B3")
    with pytest.raises(UnsupportedBasisError):
        make_basis(FieldContext(6, 1), "B3")


def test_basis_unknown_id():
    with pytest.raises(UnsupportedBasisError):
        make_basis(FieldContext(3, 1), "B9")


def test_build_code_rejects_bad_variant():
    with pytest.raises(UnsupportedVariantError):
        build_code(algebra.catalog_entry(1), "B2", variant="alamouti")


def test_built_code_is_frozen():
    code = build_code(algebra.catalog_entry(1), "B2")
    assert code.block_scale == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.generators = np.zeros((16, 4, 4), dtype=complex)


def test_encode_equals_generator_combination():
    rng = random.Random(11)
    for n, basis in ((1, "B2"), (1, "B1"), (1, "B3"), (4, "B2"), (5, "B2")):
        code = build_code(algebra.catalog_entry(n), basis)
        for _ in range(10):
            s = random_pam(rng)
            X = encode(code, s)
            Y = np.einsum("i,ijk->jk", np.array(s), code.generators)
            assert np.allclose(X, Y, atol=1e-12)


def test_encode_is_linear():
    rng = random.Random(12)
    code = build_code(algebra.catalog_entry(1), "B2")
    for _ in range(10):
        s = np.array(random_pam(rng))
        t = np.array(random_pam(rng))
        lhs = encode(code, list(s + 0.5 * t))
        rhs = encode(code, list(s)) + 0.5 * encode(code, list(t))
        assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from((1, 2, 4, 5)), k=st.integers(-3, 3),
       s=st.lists(st.integers(-3, 3), min_size=16, max_size=16),
       t=st.lists(st.integers(-3, 3), min_size=16, max_size=16))
def test_symbol_packing_and_encode_are_linear(n, k, s, t):
    # exact on the field coefficients, to rounding on the codewords
    code = build_code(algebra.catalog_entry(n), "B2" if n == 4 else "B1")
    st_ = [a + k * b for a, b in zip(s, t)]
    xs, xt, xst = (codebook._symbols_to_coefficients(code.params, code.basis, v) for v in (s, t, st_))
    assert xst == tuple(a + k * b for a, b in zip(xs, xt))
    assert np.allclose(encode(code, st_), encode(code, s) + k * encode(code, t), atol=1e-10)


def test_energy_normalization_closed_form():
    # with unit-power uncorrelated symbols, E||X||_F^2 = sum_i ||A_i||_F^2,
    # which the energy scale pins to TARGET_ENERGY exactly
    for n, basis in ((1, "B2"), (1, "B1"), (1, "B3"), (2, "B2"), (3, "B2"),
                     (4, "B2"), (5, "B2")):
        code = build_code(algebra.catalog_entry(n), basis)
        total = float(np.sum(np.abs(code.generators) ** 2))
        assert total == pytest.approx(TARGET_ENERGY, rel=1e-12)


def test_energy_empirical_average():
    rng = random.Random(13)
    code = build_code(algebra.catalog_entry(1), "B2")
    vals = []
    for _ in range(400):
        X = encode(code, random_pam(rng))
        vals.append(float(np.sum(np.abs(X) ** 2)))
    assert np.mean(vals) == pytest.approx(TARGET_ENERGY, rel=0.05)


def test_c4_parameters_and_block_scale():
    code = c4_transform(build_code(algebra.catalog_entry(1), "B2"))
    p = code.params
    assert p.scale_k == F(4, 7) and p.scale_lprime == F(4, 7)
    # |a| = |4/7 * embed(w)| = 4*sqrt(3)/7, close to 1 by design
    mod_a = abs(p.a.embed())
    assert mod_a == pytest.approx(4 * math.sqrt(3) / 7, rel=1e-12)
    assert code.block_scale == pytest.approx(mod_a ** 0.25, rel=1e-12)
    assert code.variant == "C4"
    assert code.name == "example1-B2-C4"


def test_c4_rejected_off_catalog():
    with pytest.raises(UnsupportedVariantError):
        c4_transform(build_code(algebra.catalog_entry(2), "B2"))
    with pytest.raises(UnsupportedVariantError):
        build_code(algebra.catalog_entry(2), "B2", "C4")


def test_c4_variant_is_c4_transform():
    # both routes to C4 rebuild entry 1 with k = lprime = 4/7
    direct = build_code(algebra.catalog_entry(1), "B2", "C4")
    via = c4_transform(build_code(algebra.catalog_entry(1), "B2"))
    assert direct.name == via.name == "example1-B2-C4"
    assert direct.params.scale_k == F(4, 7)
    assert np.array_equal(direct.generators, via.generators)


def test_c4_preserves_determinants():
    # the off-diagonal block scaling multiplies det by lambda^2 / lambda^2 = 1
    rng = random.Random(14)
    c4 = c4_transform(build_code(algebra.catalog_entry(1), "B2"))
    plain_params = algebra.build_params(c4.params.ctx, c4.params.u,
                                        k=F(4, 7), lprime=F(4, 7))
    plain = build_code(plain_params, "B2")
    A4 = c4.generators / c4.energy_scale
    Ap = plain.generators / plain.energy_scale
    for _ in range(25):
        s = np.array(random_pam(rng))
        d4 = np.linalg.det(np.einsum("i,ijk->jk", s, A4))
        dp = np.linalg.det(np.einsum("i,ijk->jk", s, Ap))
        assert abs(d4 - dp) <= 1e-10 * max(1.0, abs(dp))


def test_c4_codeword_set_differs_from_plain():
    c4 = c4_transform(build_code(algebra.catalog_entry(1), "B2"))
    plain = build_code(algebra.catalog_entry(1), "B2")
    s = [1.0] * 16
    assert not np.allclose(encode(c4, s), encode(plain, s), atol=1e-6)


def test_block_orthogonality_examples_1_to_4():
    # every 2x2 block of the normalized codeword has orthogonal columns
    rng = random.Random(15)
    for n in (1, 2, 3, 4):
        code = build_code(algebra.catalog_entry(n), "B2")
        for _ in range(50):
            X = encode(code, random_pam(rng))
            for bi in (0, 2):
                for bj in (0, 2):
                    blk = X[bi:bi + 2, bj:bj + 2]
                    c1, c2 = blk[:, 0], blk[:, 1]
                    ip = abs(np.vdot(c1, c2))
                    bound = np.linalg.norm(c1) * np.linalg.norm(c2)
                    assert ip <= 1e-9 * max(bound, 1e-30)


def test_min_det_sparse_frozen():
    for n in (1, 2, 3):
        code = build_code(algebra.catalog_entry(n), "B2")
        res = min_det_search(code, "sparse_exhaustive")
        assert res.candidates == 39360
        assert res.min_abs_det == pytest.approx(8.0, abs=1e-6)
        assert res.min_abs_det > 0
        diff = np.array(res.witness, dtype=float)
        A = code.generators / code.energy_scale
        d = np.linalg.det(np.einsum("i,ijk->jk", diff, A))
        assert abs(d) == pytest.approx(res.min_abs_det, rel=1e-9)


def test_min_det_random_strategy():
    code = build_code(algebra.catalog_entry(1), "B2")
    res = min_det_search(code, "random", n=500, seed=5)
    assert res.strategy == "random"
    assert res.min_abs_det > 0
    res2 = min_det_search(code, "random", n=500, seed=5)
    assert res.witness == res2.witness
    with pytest.raises(ValueError):
        min_det_search(code, "full_exhaustive")


def test_min_det_random_slices_do_not_change_the_result(monkeypatch):
    code = build_code(algebra.catalog_entry(1), "B2")
    cases = (("random", 500), ("sparse_exhaustive", 39360))
    whole = [min_det_search(code, strategy, n=500, seed=5) for strategy, _ in cases]
    monkeypatch.setattr(codebook, "_SAMPLE_SLICE", 7)
    for (strategy, candidates), res in zip(cases, whole):
        assert min_det_search(code, strategy, n=500, seed=5) == res
        assert res.candidates == candidates


def test_generators_match_exact_determinants():
    # det(sum_i s_i A_i) of the float generators against the exact
    # determinant of the field coefficients the same symbols pack into
    rng = np.random.default_rng(21)
    codes = []
    for n in range(1, 6):
        for basis in ("B1", "B2", "B3"):
            try:
                codes.append(build_code(algebra.catalog_entry(n), basis))
            except UnsupportedBasisError:
                continue
            if n == 1:
                codes.append(c4_transform(codes[-1]))
    assert len(codes) == 14   # 11 plain, C4 on each basis of entry 1
    for code in codes:
        A = code.generators / code.energy_scale
        for s in rng.integers(-1, 2, size=(12, 16)) * 2:
            d_num = abs(np.linalg.det(np.einsum("i,ijk->jk", s, A)))
            xs = codebook._symbols_to_coefficients(code.params, code.basis, s.tolist())
            d_exact = abs(algebra.representation_det_exact(code.params, xs))
            assert abs(d_num - float(d_exact)) <= 1e-9 * max(1.0, float(d_exact)), code.name


def test_numpy_integer_symbols_pack_like_python_ints():
    # at this k the exact determinant's numerators pass 2^63, where numpy
    # int64 arithmetic would overflow
    entry = algebra.catalog_entry(1)
    p = algebra.build_params(entry.ctx, entry.u, k=Fraction(1, 100000000003))
    basis = make_basis(p.ctx, "B2")
    s = np.array([1, -1, 1, 1, -1, 1, 1, -1, 1, 1, -1, -1, 1, -1, 1, 1])
    want = algebra.representation_det_exact(p, codebook._symbols_to_coefficients(p, basis, s.tolist()))
    assert want == Fraction(160000000038400000001320, 10000000000600000000009)
    for symbols in (s, s.astype(np.int32), list(s)):
        got = algebra.representation_det_exact(p, codebook._symbols_to_coefficients(p, basis, symbols))
        assert got == want


def test_determinants_are_quantized():
    # exact representation dets over B2 integer symbols land in (1/2) Z for
    # the first catalog entry, which is why the sparse minimum is no
    # accident: |det| >= 1/2 whenever it is nonzero
    rng = random.Random(16)
    p = algebra.catalog_entry(1)
    basis = make_basis(p.ctx, "B2")
    for _ in range(40):
        s = [rng.randint(-2, 2) for _ in range(16)]
        xs = tuple((s[4 * j] + s[4 * j + 1] * p.ctx.omega_prime()) * basis.beta1
                   + (s[4 * j + 2] + s[4 * j + 3] * p.ctx.omega_prime()) * basis.beta2
                   for j in range(4))
        d = algebra.representation_det_exact(p, xs)
        assert (2 * d).denominator == 1

