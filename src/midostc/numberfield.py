"""Exact arithmetic in the biquadratic field L = Q(w', w).

Here w'^2 = -c' and w^2 = -c for positive squarefree integers c != c'.
Elements have four rational coordinates over the basis {1, w', w, w'w},
stored as integer numerators over one positive common denominator, so
every ring operation is exact integer arithmetic.  Floating point
enters only through embed(), which sends w' to i*sqrt(c') and w to
i*sqrt(c) (hence w'w to -sqrt(c*c')).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction


# Largest c or c' accepted: the squarefree test and the norm-form search
# each run up to sqrt(MAX_C), about 31,600 steps.
MAX_C = 10 ** 9


def _is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, slots=True)
class FieldContext:
    """The field Q(sqrt(-c'), sqrt(-c)).

    c and c' must be positive, squarefree and distinct, which keeps the
    four embeddings of L pairwise distinct (c*c' is then never a square),
    and at most MAX_C.
    """

    c: int
    cprime: int

    def __post_init__(self):
        for name in ("c", "cprime"):       # a numpy integer becomes an int, so L's products never wrap
            if not isinstance(value := getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.c > MAX_C or self.cprime > MAX_C:
            raise ValueError(f"c and cprime must be at most MAX_C = {MAX_C}, got c={self.c}, cprime={self.cprime}")
        if not _is_squarefree(self.c) or not _is_squarefree(self.cprime):
            raise ValueError(f"c and cprime must be positive squarefree, got c={self.c}, cprime={self.cprime}")
        if self.c == self.cprime:
            raise ValueError("c and cprime must be distinct")

    def element(self, a1=0, a2=0, a3=0, a4=0) -> "FieldElement":
        return FieldElement(self, (a1, a2, a3, a4))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def omega_prime(self) -> "FieldElement":
        """w', a square root of -c'."""
        return self.element(0, 1)

    def omega(self) -> "FieldElement":
        """w, a square root of -c."""
        return self.element(0, 0, 1)

    def omega_product(self) -> "FieldElement":
        """w'w, whose square is c*c' and whose embedding is -sqrt(c*c')."""
        return self.element(0, 0, 0, 1)


def mul_nums(c: int, cprime: int, a, b) -> tuple:
    """Numerators of the product of numerators a and b, no gcd taken: L's one multiplication table,
    from w'^2 = -c', w^2 = -c, (w'w)^2 = c*c', w'*w = w'w, w'*(w'w) = -c'*w and w*(w'w) = -c*w'."""
    (a1, a2, a3, a4), (b1, b2, b3, b4) = a, b
    return (a1 * b1 - cprime * a2 * b2 - c * a3 * b3 + c * cprime * a4 * b4,
            a1 * b2 + a2 * b1 - c * (a3 * b4 + a4 * b3),
            a1 * b3 + a3 * b1 - cprime * (a2 * b4 + a4 * b2),
            a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2)


def norm_sigma(c: int, cprime: int, x) -> tuple:
    """(r, s) with x*sigma(x) = r + s*w, which lies in Q(w): mul_nums(c, cprime, x, sigma(x)) in 6 products."""
    x1, x2, x3, x4 = x
    return x1 * x1 - c * x3 * x3 + cprime * (x2 * x2 - c * x4 * x4), 2 * (x1 * x3 + cprime * x2 * x4)


def norm_tau(c: int, cprime: int, x) -> tuple:
    """(r, s) with x*tau(x) = r + s*w', which lies in Q(w'): mul_nums(c, cprime, x, tau(x)) in 6 products."""
    x1, x2, x3, x4 = x
    return x1 * x1 - cprime * x2 * x2 + c * (x3 * x3 - cprime * x4 * x4), 2 * (x1 * x2 + c * x3 * x4)


def mul_omega(c: int, x, q) -> tuple:
    """Numerators of x*(q1 + q2*w), an element of L times one of Q(w), in 8 products."""
    (x1, x2, x3, x4), (q1, q2) = x, q
    return x1 * q1 - c * x3 * q2, x2 * q1 - c * x4 * q2, x1 * q2 + x3 * q1, x2 * q2 + x4 * q1


def _new(ctx: FieldContext, nums: tuple, den: int) -> "FieldElement":
    """The element nums / den, which must already be in lowest terms with den > 0."""
    x = object.__new__(FieldElement)
    x.ctx, x.nums, x.den = ctx, nums, den
    return x


def _element(ctx: FieldContext, n1: int, n2: int, n3: int, n4: int, den: int) -> "FieldElement":
    """(n1 + n2*w' + n3*w + n4*w'w) / den for den > 0, brought to lowest terms by one gcd."""
    g = math.gcd(n1, n2, n3, n4, den)
    if g != 1:
        n1, n2, n3, n4, den = n1 // g, n2 // g, n3 // g, n4 // g, den // g
    x = object.__new__(FieldElement)
    x.ctx, x.nums, x.den = ctx, (n1, n2, n3, n4), den
    return x


class FieldElement:
    """a1 + a2*w' + a3*w + a4*w'w, stored as integer numerators `nums` over one
    denominator `den` in lowest terms (den > 0, gcd(den, *nums) == 1), a unique
    form; `coords` gives the rational coordinates a1..a4 as Fractions."""

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: FieldContext, coords):
        if len(coords) != 4:
            raise ValueError("need exactly four coordinates")
        if not all(isinstance(a, numbers.Rational) for a in coords):
            raise TypeError(f"coordinates must be exact rationals (int, Fraction or a numpy integer), got {coords!r}")
        self.ctx, self.den = ctx, math.lcm(*(int(a.denominator) for a in coords))   # int(): no numpy int64
        self.nums = tuple(int(a.numerator) * (self.den // int(a.denominator)) for a in coords)

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    # ------------------------------------------------------------------
    # ring structure

    def _check(self, other: "FieldElement") -> None:
        if self.ctx != other.ctx:
            raise ValueError(f"cannot combine {self.ctx!r} with {other.ctx!r}")

    def __add__(self, other):
        if other.__class__ is not FieldElement:
            if other.__class__ is int:       # gcd(n1 + n*den, n2, n3, n4, den) is gcd(n1, ..., den) = 1
                n1, n2, n3, n4 = self.nums
                return _new(self.ctx, (n1 + other * self.den, n2, n3, n4), self.den)
            if isinstance(other, (int, Fraction)):
                n1, n2, n3, n4, q = *self.nums, other.denominator
                return _element(self.ctx, n1 * q + other.numerator * self.den, n2 * q, n3 * q, n4 * q, self.den * q)
            if not isinstance(other, FieldElement):
                return NotImplemented
        if self.ctx is not other.ctx:
            self._check(other)
        a1, a2, a3, a4 = self.nums
        b1, b2, b3, b4 = other.nums
        da, db = self.den, other.den
        return _element(self.ctx, a1 * db + b1 * da, a2 * db + b2 * da, a3 * db + b3 * da, a4 * db + b4 * da, da * db)

    __radd__ = __add__

    def __neg__(self):
        n1, n2, n3, n4 = self.nums
        return _new(self.ctx, (-n1, -n2, -n3, -n4), self.den)     # a sign flip keeps lowest terms

    def __sub__(self, other):
        return self + -other if isinstance(other, (int, Fraction, FieldElement)) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not FieldElement:
            if other.__class__ is int:       # nums are coprime to den, so only gcd(n, den) can cancel
                g = math.gcd(other, self.den)
                p, n1, n2, n3, n4 = other // g, *self.nums
                return _new(self.ctx, (n1 * p, n2 * p, n3 * p, n4 * p), self.den // g)
            if isinstance(other, (int, Fraction)):
                p = other.numerator
                n1, n2, n3, n4 = self.nums
                return _element(self.ctx, n1 * p, n2 * p, n3 * p, n4 * p, self.den * other.denominator)
            if not isinstance(other, FieldElement):
                return NotImplemented
        if self.ctx is not other.ctx:
            self._check(other)
        return _element(self.ctx, *mul_nums(self.ctx.c, self.ctx.cprime, self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return (self.sigma() * self.tau() * self.sigma_tau()) * (1 / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return not any(self.nums[1:]) and self.nums[0] * other.denominator == other.numerator * self.den
        if not isinstance(other, FieldElement):
            return NotImplemented
        # a rational element is the same number in every field, as its hash says
        return self.nums == other.nums and self.den == other.den and (self.ctx == other.ctx or self.is_rational())

    def __hash__(self) -> int:
        # a rational element equals its int or Fraction value, so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.ctx, self.nums, self.den))

    def __bool__(self) -> bool:
        return any(self.nums)

    # ------------------------------------------------------------------
    # Galois action and invariants

    def sigma(self) -> "FieldElement":
        """The automorphism fixing w and negating w' (and hence w'w)."""
        n1, n2, n3, n4 = self.nums
        return _new(self.ctx, (n1, -n2, n3, -n4), self.den)

    def tau(self) -> "FieldElement":
        """The automorphism fixing w' and negating w (and hence w'w)."""
        n1, n2, n3, n4 = self.nums
        return _new(self.ctx, (n1, n2, -n3, -n4), self.den)

    def sigma_tau(self) -> "FieldElement":
        """sigma composed with tau; under embed() this is complex conjugation."""
        n1, n2, n3, n4 = self.nums
        return _new(self.ctx, (n1, -n2, -n3, n4), self.den)

    def norm(self) -> Fraction:
        """Product of the four Galois conjugates: with x*sigma(x) = r + s*w, it is (r + s*w)(r - s*w)."""
        r, s = norm_sigma(self.ctx.c, self.ctx.cprime, self.nums)
        return Fraction(r * r + self.ctx.c * s * s, self.den ** 4)

    # ------------------------------------------------------------------
    # subfields and sign tests

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def is_conjugation_fixed(self) -> bool:
        """True when the element is fixed by sigma_tau, i.e. embeds to a real number."""
        return self.nums[1] == 0 and self.nums[2] == 0

    def real_sign(self) -> int:
        """Exact sign of the (real) embedded value a1 - a4*sqrt(c*c').

        Only defined for conjugation-fixed elements.  The larger of the two
        terms decides; they never tie unless both are 0, as c*c' is never a square.
        """
        if not self.is_conjugation_fixed():
            raise ValueError("element does not embed to a real number")
        a1, a4 = self.nums[0], self.nums[3]    # den > 0 keeps every sign below
        s = a1 if a1 * a1 > a4 * a4 * self.ctx.c * self.ctx.cprime else -a4
        return (s > 0) - (s < 0)

    # ------------------------------------------------------------------
    # embedding and text form

    def embed(self) -> complex:
        """Complex value under w' -> i*sqrt(c'), w -> i*sqrt(c); ValueError if a coordinate overflows."""
        # n / den is the correctly rounded float(Fraction(n, den))
        try:
            a1, a2, a3, a4 = (n / self.den for n in self.nums)
        except OverflowError:
            raise ValueError("a field element overflows a double when embedded: "
                             "the parameters leave double precision") from None
        rc = math.sqrt(self.ctx.c)
        rcp = math.sqrt(self.ctx.cprime)
        return complex(a1 - a4 * rcp * rc, a2 * rcp + a3 * rc)

    def __str__(self) -> str:
        a1, a2, a3, a4 = self.coords
        return f"{a1} + {a2}*w' + {a3}*w + {a4}*w'w"

    def __repr__(self) -> str:
        return f"FieldElement({self.ctx!r}, {self.coords})"
