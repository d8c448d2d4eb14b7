"""Exact arithmetic in the biquadratic field Q(w', w)."""

import dataclasses
import math
import operator
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midostc.numberfield import ContextMismatchError, FieldContext, FieldElement


def random_element(ctx, rng, span=6):
    return ctx.element(*[Fraction(rng.randint(-span, span), rng.randint(1, 4))
                         for _ in range(4)])


def test_context_validation():
    ctx = FieldContext(3, 1)
    FieldContext(5, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.c = 5
    with pytest.raises(ValueError):
        FieldContext(4, 1)      # not squarefree
    with pytest.raises(ValueError):
        FieldContext(12, 1)     # 4 | 12
    with pytest.raises(ValueError):
        FieldContext(3, 0)
    with pytest.raises(ValueError):
        FieldContext(-3, 1)
    with pytest.raises(ValueError):
        FieldContext(3, 3)      # distinct c, c' keep the field biquadratic


def test_defining_relations():
    ctx = FieldContext(3, 1)
    wp, w, wpw = ctx.omega_prime(), ctx.omega(), ctx.omega_product()
    assert wp * wp == -1
    assert w * w == -3
    assert wpw * wpw == 3           # (w'w)^2 = c*c'
    assert wp * w == wpw
    assert w * wp == wpw
    assert wp * wpw == -w           # w' * w'w = -c' * w
    assert w * wpw == -3 * wp       # w  * w'w = -c  * w'
    ctx2 = FieldContext(5, 2)
    assert ctx2.omega_prime() * ctx2.omega_prime() == -2
    assert ctx2.omega() * ctx2.omega() == -5
    assert ctx2.omega_product() * ctx2.omega_product() == 10


def test_product_expansion_example():
    ctx = FieldContext(3, 1)
    x = ctx.element(1, 1, 0, 0)     # 1 + w'
    y = ctx.element(1, 0, 1, 0)     # 1 + w
    assert x * y == ctx.element(1, 1, 1, 1)
    # (1 + w')(1 - w') = 1 - w'^2 = 2
    assert x * ctx.element(1, -1, 0, 0) == 2


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for c, cp in ((3, 1), (6, 1), (5, 2), (11, 1)):
        ctx = FieldContext(c, cp)
        for _ in range(40):
            x = random_element(ctx, rng)
            y = random_element(ctx, rng)
            z = random_element(ctx, rng)
            assert x + y == y + x
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x - x == ctx.zero()
            assert x * ctx.one() == x
            if x:
                assert x * x.inverse() == ctx.one()
                assert (x / x) == ctx.one()


def test_scalar_mixing():
    ctx = FieldContext(3, 1)
    x = ctx.element(1, 2, 3, 4)
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert 1 + x == x + 1 == ctx.element(2, 2, 3, 4)
    assert 1 - x == -(x - 1)
    assert x / 2 == x * Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        x / 0


@pytest.mark.parametrize("call, error, message", [
    (lambda: FieldElement(FieldContext(3, 1), (1, 2)), ValueError, "need exactly four coordinates"),
    (lambda: FieldContext(3, 1).zero().inverse(), ZeroDivisionError, "zero has no inverse"),
], ids=["two-coordinates", "inverse-of-zero"])
def test_numberfield_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_galois_action_table():
    ctx = FieldContext(3, 1)
    x = ctx.element(1, 2, 3, 4)
    assert x.sigma() == ctx.element(1, -2, 3, -4)
    assert x.tau() == ctx.element(1, 2, -3, -4)
    assert x.sigma_tau() == ctx.element(1, -2, -3, 4)
    # each is an involution and sigma*tau = sigma_tau
    assert x.sigma().sigma() == x
    assert x.tau().tau() == x
    assert x.sigma().tau() == x.sigma_tau()


def test_galois_respects_multiplication():
    rng = random.Random(1)
    ctx = FieldContext(5, 2)
    for _ in range(30):
        x = random_element(ctx, rng)
        y = random_element(ctx, rng)
        assert (x * y).sigma() == x.sigma() * y.sigma()
        assert (x * y).tau() == x.tau() * y.tau()
        assert (x * y).sigma_tau() == x.sigma_tau() * y.sigma_tau()


def test_norm_examples_and_multiplicativity():
    ctx = FieldContext(3, 1)
    assert ctx.element(1, 0, 1, 0).norm() == 16      # N(1+w) = (1+c)^2
    assert ctx.element(0, 1, 0, 0).norm() == 1       # N(w') = c'^2
    assert ctx.element(0, 0, 1, 0).norm() == 9       # N(w) = c^2
    assert ctx.element(Fraction(5, 3)).norm() == Fraction(625, 81)
    rng = random.Random(2)
    for _ in range(25):
        x = random_element(ctx, rng)
        y = random_element(ctx, rng)
        assert (x * y).norm() == x.norm() * y.norm()


def test_subfield_predicates():
    ctx = FieldContext(3, 1)
    assert ctx.element(2).is_rational()
    assert ctx.element(1, 0, 0, 7).is_conjugation_fixed()
    assert not ctx.element(1, 0, 1, 7).is_conjugation_fixed()


def test_real_sign_exact():
    ctx = FieldContext(3, 1)
    assert ctx.element(1, 0, 0, 1).real_sign() == -1    # 1 - sqrt(3) < 0
    assert ctx.element(2, 0, 0, 1).real_sign() == 1     # 2 - sqrt(3) > 0
    assert ctx.element(-2, 0, 0, -1).real_sign() == -1
    assert ctx.element(0, 0, 0, -1).real_sign() == 1    # +sqrt(3)
    assert ctx.zero().real_sign() == 0
    # c*c' is never a square for distinct squarefree c, c', so a nonzero
    # conjugation-fixed element never embeds to exactly zero
    ctx2 = FieldContext(5, 2)
    assert ctx2.element(3, 0, 0, 1).real_sign() == -1   # 3 - sqrt(10) < 0
    assert ctx2.element(4, 0, 0, 1).real_sign() == 1    # 4 - sqrt(10) > 0
    with pytest.raises(ValueError):
        ctx.element(0, 1, 0, 0).real_sign()


_sign = st.sampled_from((-1, 0, 1))
_magnitude = st.integers(1, 10 ** 12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=st.sampled_from(((3, 1), (6, 1), (11, 1), (5, 2), (7, 2), (2, 3), (1, 2), (15, 7))),
       s1=_sign, s4=_sign, m1=_magnitude, m4=_magnitude, near=st.integers(-2, 2) | st.none(),
       d1=st.integers(1, 10 ** 6), d4=st.integers(1, 10 ** 6))
def test_real_sign_matches_decimal_reference(pair, s1, s4, m1, m4, near, d1, d4):
    # every sign quadrant and both axes; `near` puts |a1| within 2/d4 of
    # |a4|*sqrt(c*c'), where the two terms come closest to cancelling
    ctx = FieldContext(*pair)
    q = ctx.c * ctx.cprime
    if near is not None:
        m1, d1 = max(1, math.isqrt(m4 * m4 * q) + near), d4
    a1, a4 = Fraction(s1 * m1, d1), Fraction(s4 * m4, d4)
    with localcontext() as dc:
        dc.prec = 60
        value = (Decimal(a1.numerator) / a1.denominator
                 - Decimal(a4.numerator) / a4.denominator * Decimal(q).sqrt())
    assert ctx.element(a1, 0, 0, a4).real_sign() == (value > 0) - (value < 0)


def test_embed_basis_values():
    ctx = FieldContext(3, 1)
    assert ctx.omega_prime().embed() == pytest.approx(1j)
    assert ctx.omega().embed() == pytest.approx(math.sqrt(3) * 1j)
    # product convention: embed(w'w) = embed(w') * embed(w) exactly
    assert ctx.omega_product().embed() == pytest.approx(-math.sqrt(3))


def test_embed_is_a_homomorphism():
    rng = random.Random(3)
    for c, cp in ((3, 1), (11, 1), (5, 2)):
        ctx = FieldContext(c, cp)
        for _ in range(30):
            x = random_element(ctx, rng)
            y = random_element(ctx, rng)
            assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-12
            prod = (x * y).embed()
            assert abs(prod - x.embed() * y.embed()) <= 1e-12 * max(1.0, abs(prod))
            # sigma_tau is complex conjugation under the embedding
            assert abs(x.sigma_tau().embed() - x.embed().conjugate()) < 1e-12


def test_str_format():
    ctx = FieldContext(3, 1)
    x = ctx.element(Fraction(-1, 2), Fraction(3, 4), 0, 2)
    assert str(x) == "-1/2 + 3/4*w' + 0*w + 2*w'w"


def test_context_mismatch_raises():
    x = FieldContext(3, 1).element(1)
    y = FieldContext(6, 1).element(1)
    with pytest.raises(ContextMismatchError):
        x + y
    with pytest.raises(ContextMismatchError):
        x * y
    # equal rationals are one number in either field; an irrational element is not
    assert x == y
    assert FieldContext(3, 1).element(0, 1) != FieldContext(6, 1).element(0, 1)


def test_equality_and_hash():
    ctx = FieldContext(3, 1)
    a = ctx.element(1, 2, 3, 4)
    b = ctx.element(1, 2, 3, 4)
    assert a == b and hash(a) == hash(b)
    assert ctx.element(2) == 2 and ctx.element(2) == Fraction(2)
    assert len({a, b, ctx.one()}) == 2
    assert bool(ctx.zero()) is False and bool(a) is True


@pytest.mark.parametrize("value", [0, 1, -7, 10 ** 30, Fraction(3), Fraction(1, 2), Fraction(-5, 6)])
def test_a_rational_element_hashes_as_its_value(value):
    # equal objects must hash equal, so a set or dict key cannot tell them apart
    for ctx in (FieldContext(3, 1), FieldContext(5, 2)):
        x = ctx.element(value)
        assert x == value and hash(x) == hash(value)
        assert len({x, value}) == 1 and {value: 1}[x] == 1
    assert FieldContext(3, 1).element(Fraction(1, 2)).den == 2


def test_rational_elements_compare_by_value_across_contexts():
    # equality is transitive, so each insertion order gives one set member
    a, b = FieldContext(3, 1).element(1), FieldContext(5, 2).element(1)
    assert a == b == 1 and a == 1 == b
    for members in ([a, 1, b], [1, a, b], [b, a, 1]):
        assert len(set(members)) == 1
        assert len(set(reversed(members))) == 1
    half = Fraction(1, 2)
    assert FieldContext(3, 1).element(half) == FieldContext(5, 2).element(half) != a
    # an irrational element belongs to its field: equal coordinates elsewhere are another number
    assert FieldContext(3, 1).element(0, 0, 1) != FieldContext(5, 2).element(0, 0, 1)
    assert FieldContext(3, 1).element(0, 0, 1) == FieldContext(3, 1).element(0, 0, 1)


# ----------------------------------------------------------------------
# properties of the integer-numerator form against a Fraction reference

PAIRS = ((3, 1), (6, 1), (11, 1), (5, 2), (7, 2), (2, 3))
_rational = st.fractions(min_value=-40, max_value=40, max_denominator=36)
_coords = st.tuples(_rational, _rational, _rational, _rational)


def ref_mul(ctx, a, b):
    """The multiplication table on Fraction coordinates."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    c, cp = ctx.c, ctx.cprime
    return (a1 * b1 - cp * a2 * b2 - c * a3 * b3 + c * cp * a4 * b4,
            a1 * b2 + a2 * b1 - c * (a3 * b4 + a4 * b3),
            a1 * b3 + a3 * b1 - cp * (a2 * b4 + a4 * b2),
            a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2)


def ref_conjugates(a):
    """(sigma, tau, sigma_tau) of Fraction coordinates."""
    a1, a2, a3, a4 = a
    return (a1, -a2, a3, -a4), (a1, a2, -a3, -a4), (a1, -a2, -a3, a4)


def in_lowest_terms(x):
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=st.sampled_from(PAIRS), a=_coords, b=_coords)
def test_arithmetic_matches_fraction_reference(pair, a, b):
    ctx = FieldContext(*pair)
    x, y = ctx.element(*a), ctx.element(*b)
    sa, ta, sta = ref_conjugates(a)
    conj_prod = ref_mul(ctx, ref_mul(ctx, sa, ta), sta)
    norm = ref_mul(ctx, a, conj_prod)
    assert norm[1:] == (0, 0, 0)
    cases = [
        (x, a), (y, b),
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (x * y, ref_mul(ctx, a, b)),
        (-x, tuple(-p for p in a)),
        (x * b[0], tuple(p * b[0] for p in a)),
        (x.sigma(), sa), (x.tau(), ta), (x.sigma_tau(), sta),
    ]
    if norm[0]:
        cases.append((x.inverse(), tuple(p / norm[0] for p in conj_prod)))
    for got, expected in cases:
        assert got.coords == expected
        assert in_lowest_terms(got)
    assert x.norm() == norm[0]
    assert bool(x) is any(a)
    assert x.is_rational() is (a[1:] == (0, 0, 0))


_fraction = st.fractions(min_value=-40, max_value=40, max_denominator=36).filter(lambda f: f.denominator > 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=st.sampled_from(PAIRS), a=st.tuples(_fraction, _rational, _rational, _rational),
       b=st.tuples(_rational, _rational, _rational, _fraction))
def test_fast_paths_across_equal_contexts(pair, a, b):
    # x and y live in two equal contexts that are not the same object, with
    # den > 1: each operation combines them and lands on the Fraction
    # reference in lowest terms; a different context refuses in each one
    ctx, twin = FieldContext(*pair), FieldContext(*pair)
    x, y = ctx.element(*a), twin.element(*b)
    assert twin is not ctx and x.den > 1 and y.den > 1
    sa, ta, sta = ref_conjugates(a)
    cases = [
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (y - x, tuple(q - p for p, q in zip(a, b))),
        (x * y, ref_mul(ctx, a, b)),
        (-x, tuple(-p for p in a)),
        (x.sigma(), sa), (x.tau(), ta), (x.sigma_tau(), sta),
    ]
    for got, expected in cases:
        assert got.coords == expected and got.ctx == ctx
        assert in_lowest_terms(got)
    other = FieldContext(*pair[::-1]).element(*b)
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(ContextMismatchError):
                op(left, right)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pair=st.sampled_from(PAIRS), a=_coords, b=_coords, k=st.integers(1, 30))
def test_equal_values_by_different_routes_compare_and_hash_equal(pair, a, b, k):
    ctx = FieldContext(*pair)
    x, y = ctx.element(*a), ctx.element(*b)
    routes = [x, (x * k) / k, x + y - y, (x * Fraction(k, 7)) * Fraction(7, k)]
    if y:
        routes.append(x * y / y)
    for z in routes:
        assert z == x and hash(z) == hash(x)
        assert (z.nums, z.den) == (x.nums, x.den)
    assert ctx.element(Fraction(2, 4)) == ctx.element(Fraction(1, 2))
    assert hash(ctx.element(Fraction(2, 4))) == hash(ctx.element(Fraction(1, 2)))
    assert ctx.element(Fraction(2, 4)) == Fraction(1, 2) and ctx.element(6, 0, 0, 0) / 3 == 2
    assert ctx.element(Fraction(1, 2)) != Fraction(1, 3) and ctx.element(Fraction(1, 2)) != 1


_scalar = st.one_of(st.integers(-10 ** 20, 10 ** 20), _rational)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=st.sampled_from(PAIRS), a=_coords, r=_scalar)
def test_scalar_addition_matches_the_element_route(pair, a, r):
    # int and Fraction operands skip the element construction, and must land
    # on the same lowest-terms form as adding the element ctx.element(r)
    ctx = FieldContext(*pair)
    x, e = ctx.element(*a), ctx.element(r)
    for got, via in ((x + r, x + e), (r + x, e + x), (x - r, x - e), (r - x, e - x)):
        assert (got.nums, got.den) == (via.nums, via.den)
        assert got == via and hash(got) == hash(via) and in_lowest_terms(got)
    assert (x + r).coords == (a[0] + r, *a[1:])
    n = r.numerator
    for coords in ((n,), (0, n, 0, -n), (n, 1, -2, 3)):
        whole, frac = ctx.element(*coords), ctx.element(*map(Fraction, coords))
        assert (whole.nums, whole.den) == (frac.nums, frac.den) and whole == frac
        assert hash(whole) == hash(frac) and in_lowest_terms(whole)
