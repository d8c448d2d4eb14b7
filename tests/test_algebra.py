"""Crossed-product algebra parameters, conditions, division verdicts."""

import dataclasses
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midostc import algebra
from midostc.algebra import (
    ConditionsReport,
    DegenerateAlgebraError,
    UnsupportedBranchError,
    UnsupportedFormError,
    build_params,
    catalog_entry,
    derive_ab,
    division_check,
    division_table,
    representable,
)
from midostc.cli import main
from midostc.numberfield import FieldContext

F = Fraction

# Frozen reference values for the five catalog entries: coordinates are
# over the basis {1, w', w, w'w}.
CATALOG_EXPECTED = {
    "example1": dict(
        c=3, cprime=1,
        u=(F(-1, 2), F(-1, 2), F(-1, 2), F(1, 2)),
        a=(0, 0, 1, 0), b=(F(1, 2), F(1, 2), 0, 0), eps=(0, -1, 0, 0),
        usu=(-1, 0, 0, 0), utu=(0, -1, 0, 0), abtu=(F(-3, 2), 0, 0, F(-1, 2)),
        alpha=(3 - math.sqrt(3)) / 2, division=True,
    ),
    "example2": dict(
        c=6, cprime=1,
        u=(-1, -1, F(-1, 2), F(1, 2)),
        a=(0, 0, 1, 0), b=(F(1, 2), F(1, 2), 0, 0), eps=(0, -1, 0, 0),
        usu=(-1, 0, 0, 0), utu=(0, -1, 0, 0), abtu=(-3, 0, 0, -1),
        alpha=3 - math.sqrt(6), division=True,
    ),
    "example3": dict(
        c=11, cprime=1,
        u=(F(-3, 2), F(-3, 2), F(-1, 2), F(1, 2)),
        a=(0, 0, 1, 0), b=(F(1, 2), F(1, 2), 0, 0), eps=(0, -1, 0, 0),
        usu=(-1, 0, 0, 0), utu=(0, -1, 0, 0), abtu=(F(-11, 2), 0, 0, F(-3, 2)),
        alpha=(11 - 3 * math.sqrt(11)) / 2, division=True,
    ),
    "example4": dict(
        c=5, cprime=2,
        u=(3, 0, 0, 1),
        a=(0, 0, 1, 0), b=(0, 1, 0, 0), eps=(-1, 0, 0, 0),
        usu=(-1, 0, 0, 0), utu=(-1, 0, 0, 0), abtu=(-10, 0, 0, 3),
        alpha=10 + 3 * math.sqrt(10), division=True,
    ),
    "example5": dict(
        c=3, cprime=1,
        u=(0, F(1, 2), 0, F(-1, 2)),
        a=(F(1, 2), 0, F(-1, 2), 0), b=(0, 1, 0, 0), eps=(-1, 0, 0, 0),
        usu=(F(-1, 2), 0, F(-1, 2), 0), utu=(-1, 0, 0, 0), abtu=(-1, 0, 0, 0),
        alpha=1.0, division=False,
    ),
}

DIVISION_TABLE_EXPECTED = [
    (2, -1, False, "2 = 1 + 1"),
    (3, -1, True, None),
    (5, -1, False, "5 = 1 + 4"),
    (6, -1, True, None),
    (7, -1, True, None),
    (10, -1, False, "10 = 9 + 1"),
    (11, -1, True, None),
    (13, -1, False, "13 = 9 + 4"),
    (2, -2, False, "2 = 0 + 2"),
    (3, -2, False, "3 = 1 + 2"),
    (5, -2, True, None),
    (6, -2, False, "6 = 4 + 2"),
    (7, -2, True, None),
    (10, -2, True, None),
    (11, -2, False, "11 = 9 + 2"),
    (13, -2, True, None),
]


def coords(x):
    return tuple(x.coords)


@pytest.mark.parametrize("name", sorted(CATALOG_EXPECTED))
def test_catalog_exact_values(name):
    exp = CATALOG_EXPECTED[name]
    p = catalog_entry(int(name[-1]))
    assert p.name == name
    assert (p.ctx.c, p.ctx.cprime) == (exp["c"], exp["cprime"])
    assert coords(p.u) == tuple(F(v) for v in exp["u"])
    assert coords(p.a) == tuple(F(v) for v in exp["a"])
    assert coords(p.b) == tuple(F(v) for v in exp["b"])
    assert coords(p.epsilon) == tuple(F(v) for v in exp["eps"])
    rep = p.conditions
    assert rep.norm_u == 1
    assert coords(rep.u_sigma_u) == tuple(F(v) for v in exp["usu"])
    assert coords(rep.u_tau_u) == tuple(F(v) for v in exp["utu"])
    assert coords(rep.ab_tau_u) == tuple(F(v) for v in exp["abtu"])
    assert rep.ok
    assert rep.alpha == pytest.approx(exp["alpha"], abs=1e-12)
    assert p.division.is_division is exp["division"]


def test_catalog_example5_is_trace_form():
    p = catalog_entry(5)
    d = p.division
    assert d.branch == "trace_form"
    assert d.detail == "2 + t = 1 is a norm from Q(sqrt(-1)): 1 = 1 + 0"
    # u*sigma(u) is an eighth root of unity, not -1; the conditions pass anyway
    assert not p.conditions.u_sigma_u_is_minus_one
    assert p.conditions.ok


def test_catalog_rejects_unknown_entry():
    with pytest.raises(ValueError):
        catalog_entry(0)
    with pytest.raises(ValueError):
        catalog_entry(6)


def test_derive_ab_reproduces_catalog():
    for p in map(catalog_entry, range(1, 5)):   # entry 5 supplies a and b instead
        a, b = derive_ab(p.ctx, p.u)
        assert a == p.a and b == p.b and p.epsilon == p.u * p.u.tau()


def test_derive_ab_scaling():
    p = catalog_entry(1)
    a, b = derive_ab(p.ctx, p.u, k=F(4, 7), lprime=F(4, 7))
    assert a == p.a * F(4, 7)
    assert b == p.b * F(4, 7)


def test_derive_ab_rejects_wrong_branch():
    ctx = FieldContext(3, 1)
    with pytest.raises(UnsupportedBranchError):
        derive_ab(ctx, ctx.one())            # u*sigma(u) = 1, not -1


def test_derive_ab_rejects_degenerate():
    # u = w has u*sigma(u) = -c... choose c = 1? not allowed; use c' = 2, c = 1.
    ctx = FieldContext(1, 2)
    u = ctx.omega()                          # u*sigma(u) = w^2 = -1
    assert (u * u.sigma()) == -1
    with pytest.raises(DegenerateAlgebraError):
        derive_ab(ctx, u)                    # u*tau(u) = +1 makes 1 + u*tau(u) vanish... or b = 0


def test_derive_ab_rejects_norm_not_one():
    ctx = FieldContext(3, 1)
    with pytest.raises(ValueError, match="norm 1"):
        derive_ab(ctx, ctx.element(2))


def test_representable_witnesses():
    assert representable(F(5), 1) == (1, 2)
    assert representable(F(10), 1) == (3, 1)
    assert representable(F(3), 2) == (1, 1)
    assert representable(F(7), 1) is None
    assert representable(F(1, 2), 1) == (F(1, 2), F(1, 2))
    s1, s2 = representable(F(5), 1)
    assert s1 * s1 + 1 * s2 * s2 == 5


def test_is_representable_criterion():
    # x^2 + y^2 misses exactly the numbers with a prime factor 3 mod 4
    # appearing to an odd power in the squarefree part
    for q, exp in ((2, True), (3, False), (5, True), (6, False), (7, False),
                   (10, True), (11, False), (13, True), (F(1, 2), True),
                   (F(3, 4), False), (F(9, 2), True)):
        assert (representable(F(q), 1) is not None) is exp, q
    # x^2 + 2 y^2 misses primes 5, 7 mod 8
    for q, exp in ((2, True), (3, True), (5, False), (6, True), (7, False),
                   (10, False), (11, True), (13, False)):
        assert (representable(F(q), 2) is not None) is exp, q


def prime_criterion(n: int, cprime: int) -> bool:
    """Classical test for n >= 0 being x^2 + cprime*y^2 over Q: no prime
    3 mod 4 (cprime = 1), or 5 or 7 mod 8 (cprime = 2), divides n to an
    odd power."""
    bad = (3,) if cprime == 1 else (5, 7)
    p = 2
    while n and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2 and p % (4 * cprime) in bad:
            return False
        p += 1
    return n % (4 * cprime) not in bad


def test_representable_matches_prime_criterion():
    # the integer search is complete (Davenport-Cassels), so its verdict
    # must agree with the prime criterion on every rational
    for cprime in (1, 2):
        for n in range(200):
            for d in range(1, 60):
                if math.gcd(n, d) != 1:
                    continue
                wit = representable(F(n, d), cprime)
                assert (wit is not None) is prime_criterion(n * d, cprime), (n, d, cprime)
                if wit is not None:
                    assert wit[0] ** 2 + cprime * wit[1] ** 2 == F(n, d)


def test_representable_rejects_other_forms():
    with pytest.raises(UnsupportedFormError):
        representable(F(5), 3)
    # refused before u is looked at: 2 is not a norm-one unit
    ctx = FieldContext(5, 3)
    with pytest.raises(UnsupportedFormError):
        division_check(ctx, ctx.element(2))


@pytest.mark.parametrize("call, message", [
    (lambda: main(["analyze", "--c", "2", "--cprime", "1", "--u", "0,0,1/2,1/2"]),
     "error: shaping conditions failed, cannot build codewords\n"),
    (lambda: division_check(FieldContext(3, 1), FieldContext(3, 1).element(2)), "u must have norm 1"),
], ids=["analyze-failed-shaping", "division-check-norm-2"])
def test_algebra_refusals(capsys, call, message):
    # a refusal raises ValueError, which main prints to stderr with exit code 1
    try:
        rc = call()
    except ValueError as exc:
        assert str(exc) == message
    else:
        assert rc == 1 and capsys.readouterr().err == message


def test_division_table_frozen():
    assert division_table() == DIVISION_TABLE_EXPECTED


def test_division_check_catalog_details():
    p1 = catalog_entry(1)
    assert p1.division.branch == "norm_form"
    assert p1.division.tested_value == 3
    assert p1.division.witness is None
    p4 = catalog_entry(4)
    assert p4.division.detail == "5 is not represented by x^2 + 2*y^2"


def test_trace_form_value_lies_strictly_between_0_and_4():
    # u*sigma(u) = x + y*w lies in Q(w) and has x^2 + c*y^2 = N(u) = 1, so
    # 2 + t = 2 + 2x is in [0, 4]; the ends are u*sigma(u) = -1 (norm_form)
    # and +1 (degenerate), the only rational values, and never reach this branch
    rng = random.Random(11)
    values = []
    for c, cprime in ((2, 1), (3, 1), (6, 1), (11, 1), (3, 2), (5, 2), (7, 2)):
        ctx = FieldContext(c, cprime)
        for _ in range(40):
            z = ctx.element(*[rng.randint(-3, 3) for _ in range(4)])
            if z == ctx.zero():
                continue
            for u in (z / z.tau(), z / z.sigma(), z / z.sigma_tau()):
                cert = division_check(ctx, u)
                u_sigma = u * u.sigma()
                assert u_sigma.coords[1] == u_sigma.coords[3] == 0
                assert (cert.branch == "degenerate") == (u_sigma == 1)
                assert (cert.branch == "norm_form") == (u_sigma == -1)
                if cert.branch == "trace_form":
                    values.append(cert.tested_value)
    assert len(values) > 300
    assert all(0 < q < 4 for q in values), min(values, key=lambda q: min(q, 4 - q))


def test_trace_form_norm_search_is_bounded():
    # the search for 2 + t = n/d runs about sqrt(n*d) steps: n*d = 3.4e9
    # still gets a verdict, n*d = 1.9e16 (about a minute unbounded) is refused
    ctx = FieldContext(3, 1)
    z = ctx.element(7, 11, 13, 17)
    cert = division_check(ctx, z / z.tau())
    assert cert.branch == "trace_form" and cert.is_division is False
    q = cert.tested_value
    assert 10 ** 9 < q.numerator * q.denominator <= algebra.MAX_NORM_SEARCH
    z = ctx.element(101, 103, 107, 109)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_NORM_SEARCH"):
        division_check(ctx, z / z.tau())
    assert time.perf_counter() - start < 1.0


def test_build_params_does_not_raise_on_condition_failure():
    ctx = FieldContext(2, 1)
    u = ctx.element(0, 0, F(1, 2), F(1, 2))
    p = build_params(ctx, u)
    assert not p.conditions.ok
    assert not p.conditions.ab_tau_u_negative
    flipped = build_params(ctx, u, k=-1)
    assert flipped.conditions.ok


def test_conditions_report_derives_its_verdicts_from_four_values():
    for entry in range(1, 6):
        c = catalog_entry(entry).conditions
        assert ConditionsReport(c.norm_u, c.u_sigma_u, c.u_tau_u, c.ab_tau_u) == c
        with pytest.raises(TypeError):
            ConditionsReport(c.norm_u, c.u_sigma_u, c.u_tau_u, c.ab_tau_u, ok=not c.ok)
    # construct prints these keys in this order
    assert [f.name for f in dataclasses.fields(ConditionsReport)] == [
        "norm_u", "u_sigma_u", "u_tau_u", "ab_tau_u", "norm_ok", "u_sigma_u_is_minus_one",
        "epsilon_ok", "ab_tau_u_real", "ab_tau_u_negative", "alpha", "ok"]


def test_build_params_needs_both_generators_or_neither():
    p = catalog_entry(5)
    for kwargs in ({"a": p.a}, {"b": p.b}):
        with pytest.raises(ValueError, match="supply both a and b or neither"):
            build_params(p.ctx, p.u, **kwargs)
    # supplied generators take epsilon = u*tau(u) from the conditions report
    assert build_params(p.ctx, p.u, a=p.a, b=p.b).epsilon == p.u * p.u.tau() == p.conditions.u_tau_u


def test_code_params_are_frozen():
    p = catalog_entry(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a = p.b
    assert hash(p) == hash(catalog_entry(1))
    # the representation's table is built once per parameter set and leaves
    # equality and hashing alone
    assert p.representation_table is p.representation_table
    assert p == catalog_entry(1) and hash(p) == hash(catalog_entry(1))


def test_representation_of_one_is_identity():
    p = catalog_entry(1)
    one = p.ctx.one()
    zero = p.ctx.zero()
    m = algebra.representation(p, (one, zero, zero, zero))
    assert np.allclose(m, np.eye(4), atol=1e-14)
    n = algebra.normalized_codeword(p, (one, zero, zero, zero))
    assert np.allclose(n, np.eye(4), atol=1e-14)


def test_representation_generator_determinants():
    # exact rational determinants of the basis representations; consistency:
    # det(rep(ef)) = det(rep(e)) * det(rep(f)) since rep is multiplicative
    p = catalog_entry(1)
    one = p.ctx.one()
    zero = p.ctx.zero()
    d_1 = algebra.representation_det_exact(p, (one, zero, zero, zero))
    d_e = algebra.representation_det_exact(p, (zero, one, zero, zero))
    d_f = algebra.representation_det_exact(p, (zero, zero, one, zero))
    d_ef = algebra.representation_det_exact(p, (zero, zero, zero, one))
    assert d_1 == 1
    assert d_e == 3
    assert d_f == F(1, 2)
    assert d_ef == d_e * d_f == F(3, 2)


def test_determinant_chain_exact_vs_numeric():
    rng = random.Random(7)
    for n in (1, 2, 4, 5):
        p = catalog_entry(n)
        for _ in range(10):
            xs = tuple(p.ctx.element(*[F(rng.randint(-2, 2), rng.randint(1, 2))
                                       for _ in range(4)]) for _ in range(4))
            d_exact = algebra.representation_det_exact(p, xs)
            for builder in (algebra.representation,
                            algebra.normalized_codeword):
                d_num = np.linalg.det(builder(p, xs))
                assert abs(d_num - float(d_exact)) <= 1e-9 * max(1.0, abs(float(d_exact)))


def test_normalized_generator_is_monomial():
    # with only x1 = 1 the normalized codeword is a monomial matrix whose
    # nonzero entries multiply to |det| = 3 = det(rep(e))
    p = catalog_entry(1)
    one = p.ctx.one()
    zero = p.ctx.zero()
    m = algebra.normalized_codeword(p, (zero, one, zero, zero))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 1j
    expected[1, 2] = 1.0
    expected[2, 1] = -1j * math.sqrt(3)
    expected[3, 0] = math.sqrt(3)
    assert np.allclose(m, expected, atol=1e-12)
    assert abs(np.linalg.det(m)) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("n", range(1, 6))
def test_coefficient_at_is_the_normalized_layout(n):
    # with only x_j nonzero, the normalized codeword is nonzero exactly on the
    # entries that COEFFICIENT_AT gives j: one per row and one per column
    p = catalog_entry(n)
    table = np.array(algebra.COEFFICIENT_AT)
    for x in (p.ctx.one(), p.ctx.element(F(2, 3), -1, F(1, 2), 3)):
        for j in range(4):
            xs = tuple(x if i == j else p.ctx.zero() for i in range(4))
            on_j = algebra.normalized_codeword(p, xs) != 0
            assert np.array_equal(on_j, table == j), (n, j)
            assert (on_j.sum(axis=0) == 1).all() and (on_j.sum(axis=1) == 1).all()


@pytest.mark.parametrize("n, block_scale", [(1, 1.0), (1, 1.3), (2, 1.0), (4, 1.0), (5, 0.7)])
def test_stacked_normalization_equals_each_codeword(n, block_scale):
    # the swap and scalings on a (2, 3, 4, 4) stack of representations give
    # normalized_codeword of each quadruple bit for bit, as a C-contiguous stack
    p = catalog_entry(n)
    rng = random.Random(n)
    quads = [tuple(p.ctx.element(*[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])
                   for _ in range(4)) for _ in range(6)]
    stack = algebra._normalize(p, np.stack([algebra.representation(p, xs) for xs in quads]).reshape(2, 3, 4, 4),
                               block_scale)
    each = np.stack([algebra.normalized_codeword(p, xs, block_scale) for xs in quads]).reshape(2, 3, 4, 4)
    assert stack.flags.c_contiguous
    assert stack.tobytes() == each.tobytes()


def test_det_exact_matches_numpy_on_random_grids():
    rng = random.Random(9)
    ctx = FieldContext(3, 1)
    for _ in range(10):
        grid = [[ctx.element(*[rng.randint(-3, 3) for _ in range(4)])
                 for _ in range(4)] for _ in range(4)]
        d = algebra.det_exact(grid)
        num = np.linalg.det(np.array([[e.embed() for e in row] for row in grid]))
        assert abs(num - d.embed()) <= 1e-8 * max(1.0, abs(num))


def reference_det(grid):
    """The Leibniz sum over the 24 permutations of the columns (72 products)."""
    acc = grid[0][0].ctx.zero()
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = grid[0][perm[0]] * grid[1][perm[1]] * grid[2][perm[2]] * grid[3][perm[3]]
        acc = acc + term * (-1 if inversions % 2 else 1)
    return acc


CATALOG_CONTEXTS = [catalog_entry(n).ctx for n in range(1, 6)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ctx=st.sampled_from(CATALOG_CONTEXTS),
       coords=st.lists(st.integers(-3, 3), min_size=64, max_size=64))
def test_det_exact_equals_the_leibniz_sum(ctx, coords):
    grid = [[ctx.element(*coords[16 * r + 4 * c:16 * r + 4 * c + 4]) for c in range(4)] for r in range(4)]
    assert algebra.det_exact(grid) == reference_det(grid)


def test_params_json_shape(capsys):
    assert main(["construct", "--example", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "example1"
    assert doc["c"] == 3 and doc["cprime"] == 1
    assert doc["u"] == ["-1/2", "-1/2", "-1/2", "1/2"]
    assert doc["conditions"]["ok"] is True
    assert doc["division"]["is_division"] is True
    assert doc["conditions"]["alpha"] == pytest.approx((3 - math.sqrt(3)) / 2)
