"""Symbol bases, dispersion codes, energy, minimum determinants."""

import dataclasses
import hashlib
import itertools
import math
import operator
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from midostc import algebra, codebook
from midostc.codebook import (
    TARGET_ENERGY,
    build_code,
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
    with pytest.raises(ValueError, match=re.escape("B1 is defined over Q(i, sqrt(-c)) only (c' = 1)")):
        make_basis(FieldContext(5, 2), "B1")


def test_basis_b3_only_for_c3():
    ctx = FieldContext(3, 1)
    b = make_basis(ctx, "B3")
    assert b.beta1 == ctx.element(2)
    assert b.beta2 == ctx.omega()
    for refused in (FieldContext(5, 2), FieldContext(6, 1)):
        with pytest.raises(ValueError, match=re.escape("B3 = {2, w} is defined for c = 3 only")):
            make_basis(refused, "B3")


def test_basis_unknown_id():
    with pytest.raises(ValueError, match=re.escape("unknown basis id 'B9'")):
        make_basis(FieldContext(3, 1), "B9")


@pytest.mark.parametrize("call, message", [
    (lambda: encode(build_code(algebra.catalog_entry(1), "B2"), [1.0] * 15), "need 16 real symbols, got 15"),
    (lambda: codebook._witness([]), "every sampled difference is zero"),
    (lambda: encode(build_code(algebra.catalog_entry(1), "B2"), [1.0] * 3 + [np.nan] + [1.0] * 12),
     "symbol 4 is nan, not a finite number"),
    (lambda: encode(build_code(algebra.catalog_entry(1), "B2"), [1] * 15 + [-np.inf]),
     "symbol 16 is -inf, not a finite number"),
    (lambda: codebook._symbols_to_coefficients(algebra.catalog_entry(1), make_basis(FieldContext(3, 1), "B2"),
                                               [0.0] * 8 + [np.float32(np.inf)] + [0.0] * 7),
     "symbol 9 is inf, not a finite number"),
], ids=["encode-15-symbols", "witness-of-no-slices", "encode-a-nan", "encode-an-infinity", "pack-a-float32-infinity"])
def test_codebook_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_build_code_rejects_bad_variant():
    with pytest.raises(ValueError, match=re.escape("unknown variant 'alamouti'")):
        build_code(algebra.catalog_entry(1), "B2", variant="alamouti")


def test_built_code_is_frozen():
    code = build_code(algebra.catalog_entry(1), "B2")
    assert code.block_scale == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.generators = np.zeros((16, 4, 4), dtype=complex)


# sha256 of generators.tobytes() for every (catalog entry, basis, variant) that
# build_code accepts: any change to the representation, its rescalings or the
# derived parameters that moves a single bit of a generator shows here.
GENERATORS_SHA256 = {
    (1, "B1", "plain"): "e106278b2fe7a0cdaca4cea67862abc40874af399ecaf5ce8baafa6d8ce3ba44",
    (1, "B1", "C4"): "9642f6482702a2777a77b854c98c734dc577daf93f6c4cbf216e121bb1b1fe47",
    (1, "B2", "plain"): "efcb56c5befe4424ed754c2cdad08cd6d15c34a9bef8c0ac36357e547801d3d5",
    (1, "B2", "C4"): "37cab9edb85f8210fd642f873dad7f832a32435bd860269b60bb9c6b38875900",
    (1, "B3", "plain"): "f9b5463845280e28da2758a5f41c96c7bd9594055af2e099397fca3775b8d3d6",
    (1, "B3", "C4"): "72337e266b4cba05f4a8b11ed85ac5ee9d027471e334b45da64a1c1f667b9025",
    (2, "B1", "plain"): "8addbe6d6ab16a49c9d945c186b109a7752e1fe4d9be022aa28c59df351ea2fd",
    (2, "B2", "plain"): "8addbe6d6ab16a49c9d945c186b109a7752e1fe4d9be022aa28c59df351ea2fd",
    (3, "B1", "plain"): "bbb768d2c8a65076846e733765f52cff8507f7f39042d045e7bd33c3ae0cdfcb",
    (3, "B2", "plain"): "fedb4f98215a1be45ee8e6c408abaf9d1391a9ad6038734b7d2dc8ffc9d03722",
    (4, "B2", "plain"): "d49a335023f5a6a49f82e9121c3699288fa3b7c7e8b070768f4845449d6c2795",
    (5, "B1", "plain"): "e03ea619cb8385e3f8bc2a9b09be5952c9d7d9dbf94e3a2a4079dde6d0173678",
    (5, "B2", "plain"): "88f0cc3c28670057772b5cecf85e92323722ef5f68aa8f3c906072620ff214f9",
    (5, "B3", "plain"): "dbf471046fc5d572245a79516fe5f5da294df544738d75473d328f8c78f09917",
}


@pytest.mark.parametrize("entry, basis, variant",
                         list(itertools.product(range(1, 6), ("B1", "B2", "B3"), ("plain", "C4"))))
def test_generators_are_pinned(entry, basis, variant):
    key = (entry, basis, variant)
    if key not in GENERATORS_SHA256:
        with pytest.raises(ValueError, match=" is defined .* only"):
            build_code(algebra.catalog_entry(entry), basis, variant)
        return
    code = build_code(algebra.catalog_entry(entry), basis, variant)
    assert hashlib.sha256(code.generators.tobytes()).hexdigest() == GENERATORS_SHA256[key]


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


def _catalog_codes():
    """Entries 1-5 on every basis each supports, and C4 on each basis of entry 1: the pinned builds."""
    return [build_code(algebra.catalog_entry(n), basis, variant) for n, basis, variant in GENERATORS_SHA256]


def test_generators_are_the_codewords_of_unit_symbols():
    # build_code places slot images, encode packs symbols: one codeword path
    for code in _catalog_codes():
        for i, unit in enumerate(np.eye(16)):
            assert encode(code, unit).tobytes() == code.generators[i].tobytes(), (code.name, i)


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
    code = build_code(algebra.catalog_entry(1), "B2", "C4")
    p = code.params
    assert p.scale_k == F(4, 7) and p.scale_lprime == F(4, 7)
    # |a| = |4/7 * embed(w)| = 4*sqrt(3)/7, close to 1 by design
    mod_a = abs(p.a.embed())
    assert mod_a == pytest.approx(4 * math.sqrt(3) / 7, rel=1e-12)
    assert code.block_scale == pytest.approx(mod_a ** 0.25, rel=1e-12)
    assert code.variant == "C4"
    assert code.name == "example1-B2-C4"


def test_c4_rejected_off_catalog():
    with pytest.raises(ValueError, match=re.escape(
            "the C4 renormalization is defined for the first reference code only")):
        build_code(algebra.catalog_entry(2), "B2", "C4")


def test_c4_preserves_determinants():
    # the off-diagonal block scaling multiplies det by lambda^2 / lambda^2 = 1
    rng = random.Random(14)
    c4 = build_code(algebra.catalog_entry(1), "B2", "C4")
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
    c4 = build_code(algebra.catalog_entry(1), "B2", "C4")
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
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        min_det_search(code, "random", n=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        min_det_search(code, "random", seed=-1)


def sparse_difference_vectors():
    """The whole sparse set as a (39360, 16) array, built independently of
    codebook._sparse_difference: per coefficient pair j < k, the (81, 81)
    grid of PAM differences on x_j against x_k, row-major, without the zero cell."""
    deltas = np.array(list(itertools.product((-2, 0, 2), repeat=4)))
    out = []
    for j, k in itertools.combinations(range(4), 2):
        block = np.zeros((81, 81, 16), dtype=int)
        block[:, :, 4 * j: 4 * j + 4] = deltas[:, None]
        block[:, :, 4 * k: 4 * k + 4] = deltas[None, :]
        block = block.reshape(-1, 16)
        out.append(block[np.any(block != 0, axis=1)])
    return np.concatenate(out)


def test_sparse_differences_are_decoded_from_their_index():
    sparse = sparse_difference_vectors()
    assert sparse.shape == (39360, 16)
    assert [codebook._sparse_difference(i) for i in range(len(sparse))] == [tuple(row) for row in sparse.tolist()]


def test_min_det_search_repeats_on_one_code():
    code = build_code(algebra.catalog_entry(1), "B2")
    assert min_det_search(code) == min_det_search(code)


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
    codes = _catalog_codes()
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


# the seven codes mindet certifies: C2, C3, C4, C5, entry 1 on B1, entries 2 and 3
CERTIFIED = ((1, "B2", "plain"), (1, "B3", "plain"), (1, "B2", "C4"), (5, "B2", "plain"),
             (1, "B1", "plain"), (2, "B2", "plain"), (3, "B2", "plain"))


def abs_leibniz(M):
    """Sum of the absolute Leibniz terms of det over a stack of 4x4 matrices."""
    X = np.abs(M)
    return sum(X[:, 0, p[0]] * X[:, 1, p[1]] * X[:, 2, p[2]] * X[:, 3, p[3]]
               for p in itertools.permutations(range(4)))


def lapack_witness(code):
    """The first sparse difference whose LAPACK |det| lies within the tie
    tolerance of the minimum, and whether any other lies within 100 times it."""
    sparse = sparse_difference_vectors()
    M = np.einsum("ni,ijk->njk", sparse, code.generators / code.energy_scale)
    dets, tol = np.abs(np.linalg.det(M)), codebook._TIE * abs_leibniz(M)
    ties = dets <= dets.min() + tol
    return tuple(int(v) for v in sparse[np.argmax(ties)]), np.any(~ties & (dets <= dets.min() + 100 * tol))


@pytest.mark.parametrize("n, basis, variant", CERTIFIED)
def test_min_det_witness_does_not_depend_on_the_determinant_formula(n, basis, variant):
    # LAPACK's determinants as the reference: the witness is their first
    # difference within the tie tolerance of the minimum, and nothing lies
    # near the edge of that tolerance, where two formulas could disagree
    code = build_code(algebra.catalog_entry(n), basis, variant)
    witness, near_edge = lapack_witness(code)
    assert not near_edge
    assert min_det_search(code).witness == witness


@pytest.mark.parametrize("n, basis, variant", CERTIFIED)
def test_min_det_witness_does_not_depend_on_the_slice_size(n, basis, variant):
    # min_det_search ranks the sparse set in one slice; cut into slices of 1000 it keeps its witness
    dets, perms = codebook._sparse_determinants(build_code(algebra.catalog_entry(n), basis, variant))
    index = np.arange(len(dets))
    sliced = [(index[lo:lo + 1000], dets[lo:lo + 1000], perms[lo:lo + 1000]) for lo in range(0, len(dets), 1000)]
    assert codebook._witness(sliced) == codebook._witness([(index, dets, perms)])


def test_a_later_slice_replaces_the_witness_by_its_minimum():
    # the second slice's minimum 1.0 undercuts the first slice's 5.0 by far
    # more than its own tolerance, although its first tie, 4.5 with a
    # tolerance of 4.0, does not: the witness moves to that first tie, and
    # the third slice's 9.0 leaves it there
    rows = sparse_difference_vectors()[:12]
    slices = [(rows[:4], np.array([5.0] * 4), np.array([1.0] * 4)),
              (rows[4:8], np.array([4.5, 1.0, 9.0, 9.0]), np.array([4.0 / codebook._TIE, 1.0, 1.0, 1.0])),
              (rows[8:], np.array([9.0] * 4), np.array([1.0] * 4))]
    witness, candidates = codebook._witness(slices)
    assert tuple(witness) == tuple(rows[4]) and candidates == 12


@pytest.mark.parametrize("k", [F(1), F(1, 10 ** 100)])
def test_sparse_determinants_factor_into_two_minors(k):
    # every coefficient's generators live on pi_j(r) = S[S[r] XOR j], and over
    # the whole sparse set the two-minor product and its permanent agree with
    # det_exact's Laplace expansion of the (4, 4, N) differences; away from
    # k = 1 the plain codes of entry 1's unit (C4 fixes its own k)
    S = algebra._SWAP
    entry = algebra.catalog_entry(1)
    codes = _catalog_codes() if k == 1 else [
        build_code(algebra.build_params(entry.ctx, entry.u, k=k), basis) for basis in ("B1", "B2", "B3")]
    for code in codes:
        A = code.generators / code.energy_scale
        for j in range(4):
            off = np.ones((4, 4), dtype=bool)
            off[range(4), [S[S[r] ^ j] for r in range(4)]] = False
            assert not np.any(A[4 * j: 4 * j + 4][:, off]), (code.name, j)
        M = np.einsum("ni,ijk->jkn", sparse_difference_vectors(), A)
        dets, perms = codebook._sparse_determinants(code)
        assert dets.shape == perms.shape == (39360,)
        assert np.all(np.abs(dets - np.abs(algebra.det_exact(M))) <= 1e-12 * perms), code.name
        assert np.all(np.abs(perms - algebra.det_exact(np.abs(M), operator.add)) <= 1e-12 * perms), code.name


@pytest.mark.parametrize("k, lprime", [("1e60", "1"), ("1e100", "1"), ("1e120", "1"), ("1", "1e160"),
                                       ("1e60", "1e120"), ("1e-100", "1e160"), ("1e30", "1e60")])
@pytest.mark.parametrize("basis", ["B1", "B2", "B3"])
def test_min_det_at_extreme_scales_is_refused_or_matches_lapack(basis, k, lprime):
    # where a term of the closed-form determinant overflows a double the
    # search refuses, with no numpy warning (those fail the suite); elsewhere
    # its witness is LAPACK's
    entry = algebra.catalog_entry(1)
    try:
        code = build_code(algebra.build_params(entry.ctx, entry.u, k=F(k), lprime=F(lprime)), basis)
        res = min_det_search(code)
    except ValueError as exc:
        assert "the parameters leave double precision" in str(exc)
        return
    assert res.witness == lapack_witness(code)[0]


def test_min_det_refuses_a_determinant_term_that_overflows():
    # entries span 1e-100 to 1e130: the energy is a double, but terms of
    # four entries are not, nor are LAPACK's determinants
    entry = algebra.catalog_entry(1)
    code = build_code(algebra.build_params(entry.ctx, entry.u, k=F(1, 10 ** 100), lprime=F(10 ** 160)))
    with pytest.raises(ValueError, match="a determinant term overflows a double: the parameters leave double"):
        min_det_search(code)


def test_min_det_tolerance_tells_a_tiny_minimum_apart():
    # at k = 1e-100 determinants span 200 orders of magnitude: a tolerance
    # scaled by the largest |det| would tie 2.4e-199 with 3.072e-197
    entry = algebra.catalog_entry(1)
    code = build_code(algebra.build_params(entry.ctx, entry.u, k=Fraction(1, 10 ** 100)))
    assert min_det_search(code).min_abs_det == 2.4e-199


@settings(max_examples=60, deadline=None, derandomize=True)
@given(parts=hnp.arrays(np.int64, st.tuples(st.integers(1, 40), st.just(4), st.just(4), st.just(2)),
                        elements=st.integers(-10 ** 6, 10 ** 6)),
       exponent=st.integers(-30, 30))
def test_closed_form_determinant_equals_lapack(parts, exponent):
    # the random min_det_search ranks by algebra.det_exact over (4, 4, N) float arrays,
    # with ties judged against its permanent (operator.add) of |M|; the error is
    # relative to the Hadamard bound, which caps |det|.  Entries lie in
    # [-10, 10] in steps of 1e-5, so no product of four leaves the normal range
    M = (parts[..., 0] + 1j * parts[..., 1]) * 1e-5 * 2.0 ** exponent
    got = algebra.det_exact(np.moveaxis(M, 0, -1))
    want = np.linalg.det(M)
    bound = np.prod(np.linalg.norm(M, axis=2), axis=1)
    assert np.all(np.abs(got - want) <= 1e-12 * bound)
    leibniz = abs_leibniz(M)
    assert np.all(np.abs(algebra.det_exact(np.abs(np.moveaxis(M, 0, -1)), operator.add) - leibniz) <= 1e-12 * leibniz)
