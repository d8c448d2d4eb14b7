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
from dataclasses import dataclass
from fractions import Fraction


class ContextMismatchError(ValueError):
    """Raised when elements of different field contexts are combined."""


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
        fs = [a if isinstance(a, (int, Fraction)) else Fraction(a) for a in coords]
        self.ctx, self.den = ctx, math.lcm(*(f.denominator for f in fs))
        self.nums = tuple(f.numerator * (self.den // f.denominator) for f in fs)

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    # ------------------------------------------------------------------
    # ring structure

    def _check(self, other: "FieldElement") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"cannot combine {self.ctx!r} with {other.ctx!r}")

    def __add__(self, other):
        if other.__class__ is not FieldElement:
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
        if other.__class__ is not FieldElement:
            if isinstance(other, (int, Fraction)):
                n1, n2, n3, n4, q = *self.nums, other.denominator
                return _element(self.ctx, n1 * q - other.numerator * self.den, n2 * q, n3 * q, n4 * q, self.den * q)
            if not isinstance(other, FieldElement):
                return NotImplemented
        if self.ctx is not other.ctx:
            self._check(other)
        a1, a2, a3, a4 = self.nums
        b1, b2, b3, b4 = other.nums
        da, db = self.den, other.den
        return _element(self.ctx, a1 * db - b1 * da, a2 * db - b2 * da, a3 * db - b3 * da, a4 * db - b4 * da, da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not FieldElement:
            if isinstance(other, (int, Fraction)):
                p = other.numerator
                n1, n2, n3, n4 = self.nums
                return _element(self.ctx, n1 * p, n2 * p, n3 * p, n4 * p, self.den * other.denominator)
            if not isinstance(other, FieldElement):
                return NotImplemented
        if self.ctx is not other.ctx:
            self._check(other)
        a1, a2, a3, a4 = self.nums
        b1, b2, b3, b4 = other.nums
        c = self.ctx.c
        cp = self.ctx.cprime
        # Multiplication table of the basis: w'^2 = -c', w^2 = -c,
        # (w'w)^2 = c*c', w'*w = w'w, w'*(w'w) = -c'*w, w*(w'w) = -c*w'.
        return _element(self.ctx,
                        a1 * b1 - cp * a2 * b2 - c * a3 * b3 + c * cp * a4 * b4,
                        a1 * b2 + a2 * b1 - c * (a3 * b4 + a4 * b3),
                        a1 * b3 + a3 * b1 - cp * (a2 * b4 + a4 * b2),
                        a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2,
                        self.den * other.den)

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
        """Product of the four Galois conjugates, always a rational number."""
        p = self * self.sigma() * self.tau() * self.sigma_tau()
        if not p.is_rational():
            raise ArithmeticError("norm came out irrational, arithmetic bug")
        return Fraction(p.nums[0], p.den)

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
