"""Crossed-product algebra parameters and codeword matrices.

The algebra is built on the biquadratic field L = Q(w', w) with two
generators e, f satisfying e^2 = a, f^2 = b and fe = ef*u, where u is a
norm-one unit of L.  This module derives (a, b) from u, certifies the
conditions that make the 4x4 codeword unitary-friendly, decides whether
the algebra is division (the full diversity certificate), and builds the
left regular representation together with its normalized form, whose
layout of field coefficients COEFFICIENT_AT records.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from math import isqrt

import numpy as np

from .numberfield import FieldContext, FieldElement, mul_nums, mul_omega, norm_sigma, norm_tau


# ----------------------------------------------------------------------
# parameter derivation and condition checks


def derive_ab(ctx: FieldContext, u: FieldElement, k=1, lprime=1):
    """Derive the generator squares (a, b) from a norm-one unit u.

    Implements the branch u*sigma(u) = -1, where a = k*w.  The second
    generator depends on epsilon = u*tau(u), which N(u) = 1 keeps
    irrational unless it is +-1:

      epsilon == -1      ->  b = lprime * w'
      epsilon irrational ->  b = lprime / (1 + epsilon)

    Returns (a, b).  A unit with u*sigma(u) != -1 is refused with "only
    the u*sigma(u) = -1 branch is constructed", and epsilon == +1, which
    collapses the second generator, with "u*tau(u) = 1 leaves no valid
    second generator" (both ValueError).
    """
    k = Fraction(k)
    lprime = Fraction(lprime)
    n = u.norm()
    if n != 1:
        raise ValueError(f"u must have norm 1, got {n}")
    u_sigma = u * u.sigma()
    if u_sigma != -1:
        raise ValueError(f"only the u*sigma(u) = -1 branch is constructed, got u*sigma(u) = {u_sigma}")
    epsilon = u * u.tau()
    if epsilon == 1:
        raise ValueError("u*tau(u) = 1 leaves no valid second generator")
    b = ctx.omega_prime() * lprime if epsilon == -1 else ctx.element(lprime) / (ctx.one() + epsilon)
    return ctx.omega() * k, b


@dataclass(frozen=True)
class ConditionsReport:
    """Exact record of the codeword-shaping conditions for (u, a, b): built from its four exact
    values, it derives its verdicts and refuses (ValueError) an alpha that leaves double
    precision.  Its field names are the keys of the "conditions" object that construct prints."""

    norm_u: Fraction
    u_sigma_u: FieldElement
    u_tau_u: FieldElement
    ab_tau_u: FieldElement
    norm_ok: bool = field(init=False)                   # N(u) == 1
    u_sigma_u_is_minus_one: bool = field(init=False)    # u*sigma(u) == -1 (informational, see below)
    epsilon_ok: bool = field(init=False)                # u*tau(u) in {-1, i, -i}
    ab_tau_u_real: bool = field(init=False)             # a*b*tau(u) fixed by conjugation
    ab_tau_u_negative: bool = field(init=False)         # embedded a*b*tau(u) strictly negative
    alpha: float | None = field(init=False)             # -embed(a*b*tau(u)) when real and negative
    ok: bool = field(init=False)

    def __post_init__(self):
        ctx, u_tau, ab_tau = self.u_tau_u.ctx, self.u_tau_u, self.ab_tau_u
        # w' is a genuine imaginary unit only when c' = 1, so only then may epsilon be +-w'.
        epsilon_ok = u_tau == -1 or (ctx.cprime == 1 and u_tau in (ctx.omega_prime(), -ctx.omega_prime()))
        real_ok = ab_tau.is_conjugation_fixed()
        negative_ok = real_ok and ab_tau.real_sign() < 0
        alpha = -ab_tau.embed().real if negative_ok else None
        if alpha is not None and not 0.0 < alpha < math.inf:
            raise ValueError(f"alpha = -a*b*tau(u) is positive but its double is {abs(alpha)}: "
                             "the parameters leave double precision")
        # The sigma branch is not part of the gate: the generic a = k*w derivation
        # needs it, but a directly supplied a = l*(1 + u*sigma(u)) does not, and
        # the shaping conditions below are what the normalized codeword requires.
        norm_ok = self.norm_u == 1
        verdicts = (norm_ok, self.u_sigma_u == -1, epsilon_ok, real_ok, negative_ok, alpha,
                    norm_ok and epsilon_ok and real_ok and negative_ok)
        for f, verdict in zip(fields(self)[4:], verdicts):        # the verdict fields, in order
            object.__setattr__(self, f.name, verdict)


# ----------------------------------------------------------------------
# division certification


# Largest n*d searched for q = n/d: about sqrt(n*d) = 10^6 steps, under half a second.
MAX_NORM_SEARCH = 10 ** 12


def representable(q: Fraction, cprime: int):
    """Witness (s1, s2) with q = s1^2 + cprime*s2^2 over the rationals, or None.

    With q = n/d in lowest terms the search runs over integer decompositions
    n*d = s1^2 + cprime*s2^2 and returns (s1/d, s2/d).  It is complete: by
    the Davenport-Cassels lemma (Serre, A Course in Arithmetic, ch. IV,
    appendix) an integer that x^2 + y^2 or x^2 + 2y^2 represents over Q it
    also represents over Z, so q is represented exactly when n*d is.  Among
    integer decompositions the canonical pick prefers an odd first component
    and then the largest first component, which matches the reference
    table's printed forms.  n*d above MAX_NORM_SEARCH raises ValueError.
    """
    if cprime not in (1, 2):
        raise ValueError(f"norm-form test implemented for cprime in {{1, 2}}, got {cprime}")
    q = Fraction(q)
    nd = q.numerator * q.denominator
    if nd > MAX_NORM_SEARCH:
        raise ValueError(f"norm search for q = {q}: n*d exceeds MAX_NORM_SEARCH = {MAX_NORM_SEARCH}")
    best, s2 = None, 0
    while cprime * s2 * s2 <= nd:
        rest = nd - cprime * s2 * s2
        s1 = isqrt(rest)
        if s1 * s1 == rest and (best is None or (s1 % 2, s1) > (best[0] % 2, best[0])):
            best = (s1, s2)
        s2 += 1
    return None if best is None else (Fraction(best[0], q.denominator), Fraction(best[1], q.denominator))


def _norm_text(q: Fraction, cprime: int, witness) -> str | None:
    """'q = s1^2 + cprime*s2^2' for a witness of representable, None for none."""
    return None if witness is None else f"{q} = {witness[0] ** 2} + {cprime * witness[1] ** 2}"


@dataclass(frozen=True)
class DivisionCertificate:
    is_division: bool | None      # None means degenerate (no verdict)
    branch: str                   # "norm_form" or "trace_form" or "degenerate"
    tested_value: Fraction | None
    witness: tuple | None
    detail: str


def division_check(ctx: FieldContext, u: FieldElement) -> DivisionCertificate:
    """Decide whether the crossed product built on u is a division algebra.

    sigma is an involution, so u*sigma(u) is fixed by sigma: it lies in
    Q(w) = Q(sqrt(-c)), say x + y*w, with x^2 + c*y^2 = N(u) = 1, and if
    rational it is -1 or 1.  At -1 the question reduces to the quaternion
    algebra (c, -c') over Q: division exactly when c is not represented by
    x^2 + c'*y^2.  At 1 there is no verdict (degenerate).  Otherwise the
    test moves to the quaternion algebra (-c', 2 + t) over Q with t = 2x
    the rational trace of u*sigma(u), and y != 0 puts the tested value
    2 + 2x strictly between 0 and 4.
    """
    if ctx.cprime not in (1, 2):
        raise ValueError(f"division test implemented for cprime in {{1, 2}}, got {ctx.cprime}")
    if u.norm() != 1:
        raise ValueError("u must have norm 1")
    u_sigma = u * u.sigma()
    if u_sigma == -1:
        branch, q, subject = "norm_form", Fraction(ctx.c), str(ctx.c)
    elif u_sigma == 1:
        return DivisionCertificate(None, "degenerate", None, None,
                                   "u*sigma(u) is not a proper element of Q(sqrt(-c))")
    else:
        q = 2 + 2 * u_sigma.coords[0]  # 2 + the trace of u*sigma(u) down to Q
        branch, subject = "trace_form", f"2 + t = {q}"
    wit = representable(q, ctx.cprime)
    detail = (f"{subject} is not represented by x^2 + {ctx.cprime}*y^2" if wit is None
              else f"{subject} is a norm from Q(sqrt(-{ctx.cprime})): {_norm_text(q, ctx.cprime, wit)}")
    return DivisionCertificate(wit is None, branch, q, wit, detail)


def division_table():
    """Reference grid of division verdicts for c in {2,3,5,6,7,10,11,13}, c' in {1,2}.

    These all sit in the u*sigma(u) = -1 branch, so the verdict only
    depends on (c, c').  Returns rows (c, -c', is_division, witness_string).
    """
    rows = []
    for cprime in (1, 2):
        for c in (2, 3, 5, 6, 7, 10, 11, 13):
            wit = representable(c, cprime)
            rows.append((c, -cprime, wit is None, _norm_text(c, cprime, wit)))
    return rows


# ----------------------------------------------------------------------
# parameter bundle


@dataclass(frozen=True)
class CodeParams:
    """Everything needed to build codewords for one algebra instance; the
    values derived from (u, a, b) live on the conditions report."""

    ctx: FieldContext
    u: FieldElement
    a: FieldElement
    b: FieldElement
    scale_k: Fraction
    scale_lprime: Fraction
    conditions: ConditionsReport
    division: DivisionCertificate
    name: str | None = None

    @property
    def epsilon(self) -> FieldElement:
        """u*tau(u), which picks the second generator in derive_ab."""
        return self.conditions.u_tau_u

    @cached_property
    def representation_table(self) -> tuple:
        """K of representation_elements, built once per parameter set; None is 1."""
        a, b, u, ta = self.a, self.b, self.u, self.a.tau()
        return ((None, a, b, self.conditions.ab_tau_u), (None, None, b, b * u.tau()),
                (None, ta * u, None, ta), (None, u, None, None))


def build_params(ctx: FieldContext, u: FieldElement, k=1, lprime=1, *,
                 a: FieldElement | None = None, b: FieldElement | None = None,
                 name: str | None = None) -> CodeParams:
    """Assemble CodeParams, deriving (a, b) unless they are supplied.

    Condition failures do not raise; they are recorded on the report and
    alpha stays None (the normalized codeword then refuses to build).  An
    alpha that is positive but 0 or infinite as a double raises ValueError,
    and so does a supplied a that sigma does not fix or b that tau does not
    fix: e*e^2 = e^2*e forces sigma(a) = a and f*f^2 = f^2*f forces tau(b) = b.
    """
    k = Fraction(k)
    lprime = Fraction(lprime)
    if (a is None) != (b is None):
        raise ValueError("supply both a and b or neither")
    if a is None:
        a, b = derive_ab(ctx, u, k, lprime)
    elif a.sigma() != a:
        raise ValueError(f"a = {a} is not fixed by sigma, so no crossed product has e^2 = a")
    elif b.tau() != b:
        raise ValueError(f"b = {b} is not fixed by tau, so no crossed product has f^2 = b")
    conditions = ConditionsReport(u.norm(), u * u.sigma(), u * u.tau(), a * b * u.tau())
    return CodeParams(ctx, u, a, b, k, lprime, conditions, division_check(ctx, u), name)


# ----------------------------------------------------------------------
# representations


def representation_elements(p: CodeParams, xs):
    """The left regular representation as a 4x4 grid of exact field elements.

    xs is the quadruple (x0, x1, x2, x3) of coefficients over {1, e, f, ef}.
    Entry (r, c) is K[r][c] * g_c(x_{r XOR c}), g = (identity, sigma, tau, sigma*tau),
    K = ((1, a, b, a*b*tau(u)), (1, 1, b, b*tau(u)), (1, tau(a)*u, 1, tau(a)), (1, u, 1, 1)).
    """
    K = p.representation_table
    gx = [(x, x.sigma(), x.tau(), x.sigma_tau()) for x in _coefficients(p, xs)]       # gx[j][c] = g_c(x_j)
    return [[gx[r ^ c][c] if K[r][c] is None else K[r][c] * gx[r ^ c][c] for c in range(4)] for r in range(4)]


def representation(p: CodeParams, xs) -> np.ndarray:
    """Embedded 4x4 codeword matrix of the left regular representation."""
    return np.array([[e.embed() for e in row] for row in representation_elements(p, xs)], dtype=complex)


_SWAP = (0, 3, 2, 1)  # rows/columns 2 and 4 exchanged
# Entry (r, c) of every normalized codeword carries x_{COEFFICIENT_AT[r][c]}:
# the representation's x_{r XOR c}, moved by the swap.
COEFFICIENT_AT = tuple(tuple(_SWAP[r] ^ _SWAP[c] for c in range(4)) for r in range(4))
# pi_j(r) = SUPPORT[j][r], the column of x_j's entry in row r; an involution, so also the row of its entry in column r.
SUPPORT = tuple(tuple(_SWAP[_SWAP[r] ^ j] for r in range(4)) for j in range(4))


def normalized_codeword(p: CodeParams, xs, block_scale: float = 1.0) -> np.ndarray:
    """Representation with rows and columns 2 and 4 swapped, which keeps the
    determinant and exposes four 2x2 generalized Alamouti blocks, then scaled.

    Row 1 is divided by sqrt(alpha), column 1 multiplied by sqrt(alpha),
    column 4 multiplied by sqrt(alpha/c) and row 4 divided by sqrt(alpha/c);
    then the top-right 2x2 block is multiplied by block_scale (1 for plain
    codes, |embed(a)|^(1/4) for C4) and the bottom-left one divided by it.
    Each is a real diagonal similarity, so the determinant is preserved
    exactly while every block becomes unitary-friendly.  Failed shaping raises.
    """
    return _normalize(p, representation(p, xs), block_scale)


def _normalize(p: CodeParams, m: np.ndarray, block_scale: float) -> np.ndarray:
    """normalized_codeword's swap and scalings on a (..., 4, 4) stack of representations."""
    if p.conditions.alpha is None:
        raise ValueError("shaping conditions failed, cannot build codewords")
    # a fresh C-contiguous stack: the energy sum over it is pinned bit for bit
    m = np.ascontiguousarray(m[..., _SWAP, :][..., _SWAP])
    ra = math.sqrt(p.conditions.alpha)
    rc = math.sqrt(p.ctx.c)
    m[..., 0, :] /= ra
    m[..., :, 0] *= ra
    m[..., :, 3] *= ra / rc
    m[..., 3, :] *= rc / ra
    m[..., 0:2, 2:4] *= block_scale
    m[..., 2:4, 0:2] /= block_scale
    return m


def det_exact(grid, op=operator.sub) -> FieldElement:
    """Exact determinant of a 4x4 grid of field elements, by Laplace expansion along the 2x2 minors
    of rows 1-2 against those of rows 3-4 (30 products).  Its callers are the tests and min_det_search,
    whose (4, 4, N) float slices give N determinants; op=operator.add gives the permanent, which for
    a grid |M| is the absolute Leibniz sum of det(M)."""
    def minors(r, s):
        return {(j, k): op(r[j] * s[k], r[k] * s[j]) for j, k in itertools.combinations(range(4), 2)}
    top, bottom = minors(grid[0], grid[1]), minors(grid[2], grid[3])
    return (op(op(top[0, 1] * bottom[2, 3], top[0, 2] * bottom[1, 3]) + top[0, 3] * bottom[1, 2]
               + top[1, 2] * bottom[0, 3], top[1, 3] * bottom[0, 2]) + top[2, 3] * bottom[0, 1])


def _coefficients(p: CodeParams, xs):
    if not (isinstance(xs, (tuple, list)) and len(xs) == 4
            and all(isinstance(x, FieldElement) and x.ctx == p.ctx for x in xs)):
        raise ValueError(f"xs must be four FieldElements of {p.ctx!r}, got {xs!r}")
    return xs


def _block_det(p: CodeParams, xs) -> tuple:
    """(numerators, denominator) of the determinant in L, nothing brought to lowest terms.

    By K the grid is M = [[P, b*tau(R)], [R, tau(P)]], P = [[x0, a*sigma(x1)], [x1, sigma(x0)]],
    R = [[x2, tau(a)u*sigma(x3)], [x3, u*sigma(x2)]]: rows 1-2 are tau of rows 3-4, column blocks
    swapped, the right one times b, so the Laplace expansion along rows 1-2 collapses to
        det M = N(det P) + b^2*N(det R) + b*(Tr(tau(m02)*m13) - N(m12) - N(m03)),
    N(y) = y*tau(y), Tr(y) = y + tau(y), m_jk the minor of rows 3-4 on columns j, k (0-based), where
    m13 = -tau(a)u*sigma(m02), and m03 and m12 share x2*sigma(tau(x0)) and x3*sigma(tau(x1)).  Each norm
    is taken in the subfield that holds it, x*sigma(x) in Q(w), N(y) in Q(w') and tau(m02)*sigma(m02) in
    Q(w'w), and mul_nums takes the rest.  All four numerators return, as tau need not fix b.
    """
    c, cp, K = p.ctx.c, p.ctx.cprime, p.representation_table
    ys = (*_coefficients(p, xs), K[0][1], K[0][2], K[2][3], K[2][1], K[3][1])   # x0..x3, a, b, tau(a), tau(a)u, u
    d = math.lcm(*(y.den for y in ys))
    X0, X1, X2, X3, A, B, tA, T, U = (y.nums if y.den == d else [n * (d // y.den) for n in y.nums] for y in ys)
    (x1, x2, x3, x4), (y1, y2, y3, y4), (t1, t2, t3, t4), (r, s) = X0, X1, T, norm_sigma(c, cp, X0)
    a1, a2, a3, a4 = mul_omega(c, A, norm_sigma(c, cp, X1))
    e, f = mul_omega(c, U, norm_sigma(c, cp, X2)), mul_omega(c, T, norm_sigma(c, cp, X3))
    P = norm_tau(c, cp, (d * r - a1, -a2, d * s - a3, -a4))                      # d^6 N(det P)
    R = norm_tau(c, cp, (e[0] - f[0], e[1] - f[1], e[2] - f[2], e[3] - f[3]))    # d^6 N(det R)
    e, f = mul_nums(c, cp, X2, (y1, y2, -y3, -y4)), mul_nums(c, cp, (x1, x2, -x3, -x4), X3)
    m1, m2, m3, m4 = e[0] - f[0], e[1] - f[1], e[2] - f[2], e[3] - f[3]           # d^2 m02
    n1, n4 = m1 * m1 + cp * m2 * m2 + c * (m3 * m3 + cp * m4 * m4), 2 * (m2 * m3 - m1 * m4)  # d^4 tau(m02)sigma(m02)
    p1, p2, p3, p4 = mul_nums(c, cp, X2, (x1, -x2, -x3, x4))                      # d^2 x2*sigma(tau(x0))
    q1, q2, q3, q4 = xq = mul_nums(c, cp, X3, (y1, -y2, -y3, y4))                 # d^2 x3*sigma(tau(x1))
    e, f, g = mul_nums(c, cp, tA, xq), mul_nums(c, cp, T, (q1, -q2, q3, -q4)), mul_nums(c, cp, U, (p1, -p2, p3, -p4))
    h1, h2 = norm_tau(c, cp, (d * p1 - e[0], d * p2 - e[1], d * p3 - e[2], d * p4 - e[3]))          # d^6 N(m03)
    k1, k2 = norm_tau(c, cp, (f[0] - g[0], f[1] - g[1], f[2] - g[2], f[3] - g[3]))                # d^6 N(m12)
    b1, b2, b3, b4 = mul_nums(c, cp, B, (*R, 0, 0))                                # d^7 b*N(det R)
    e = mul_nums(c, cp, B, (b1 - d * (2 * d * (t1 * n1 + c * cp * t4 * n4) + h1 + k1),
                            b2 - d * (2 * d * (t2 * n1 - c * t3 * n4) + h2 + k2), b3, b4))
    return (d * d * P[0] + e[0], d * d * P[1] + e[1], e[2], e[3]), d ** 8


def representation_det_exact(p: CodeParams, xs) -> Fraction:
    """Exact determinant of the representation, which is always rational: _block_det's element of L,
    with an irrational one refused as an arithmetic bug."""
    nums, den = _block_det(p, xs)
    if any(nums[1:]):
        raise ArithmeticError("representation determinant came out irrational, arithmetic bug")
    return Fraction(nums[0], den)


# ----------------------------------------------------------------------
# catalog of the five worked examples


def catalog_entry(n: int) -> CodeParams:
    """Reference parameter set n of five, built by symbolic expansion.

    Entries 1 to 4 run through derive_ab with k = lprime = 1.  Entry 5
    uses the second construction branch, a = 1 + u*sigma(u) and b = w',
    and is the one non-division entry (good shaping, unit |a| = |b| = 1).
    """
    half = Fraction(1, 2)
    if n == 1:
        ctx = FieldContext(3, 1)
        u = (ctx.one() + ctx.omega_prime()) * half * (ctx.omega_product() - ctx.one())
    elif n == 2:
        ctx = FieldContext(6, 1)
        u = (ctx.one() + ctx.omega_prime()) * (ctx.omega_product() * half - ctx.one())
    elif n == 3:
        ctx = FieldContext(11, 1)
        u = (ctx.one() + ctx.omega_prime()) * half * (ctx.omega_product() - ctx.element(3))
    elif n == 4:
        ctx = FieldContext(5, 2)
        u = ctx.element(3) + ctx.omega_product()
    elif n == 5:
        ctx = FieldContext(3, 1)
        # u is the primitive 12th root of unity (sqrt(3) + w')/2 with sqrt(3) = -w'w.
        u = (ctx.omega_prime() - ctx.omega_product()) * half
        return build_params(ctx, u, a=ctx.one() + u * u.sigma(), b=ctx.omega_prime(), name="example5")
    else:
        raise ValueError(f"catalog entries are numbered 1 to 5, got {n}")
    return build_params(ctx, u, name=f"example{n}")

