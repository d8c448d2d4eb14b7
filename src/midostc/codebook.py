"""Linear dispersion codebooks over the normalized codeword map.

A code is defined by a parameter set, a symbol basis for packing four
complex (QAM) symbols into each field coefficient, and an optional
renormalization variant.  Sixteen real PAM symbols enter per codeword:
four per field coefficient x_j, real and imaginary parts on each of the
two basis elements.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import CodeParams, build_params, normalized_codeword
from .numberfield import FieldContext, FieldElement


class UnsupportedBasisError(ValueError):
    """The requested symbol basis is not defined for this field."""


class UnsupportedVariantError(ValueError):
    """The requested code variant is not defined for these parameters."""


TARGET_ENERGY = 16.0  # average squared Frobenius norm per codeword
_SAMPLE_SLICE = 1 << 14  # random differences drawn and evaluated at a time


@dataclass(frozen=True)
class SymbolBasis:
    id: str
    beta1: FieldElement
    beta2: FieldElement


def make_basis(ctx: FieldContext, basis_id: str) -> SymbolBasis:
    """Build one of the three symbol bases.

    B2 = {1, w} always works.  B1 is the integral basis {1, (1+w)/2} when
    -c = 1 mod 4 (else it falls back to {1, w}) and needs c' = 1.  B3 is
    the rebalanced basis {2, w}, defined only for c = 3.
    """
    if basis_id == "B2":
        b1, b2 = ctx.one(), ctx.omega()
    elif basis_id == "B1":
        if ctx.cprime != 1:
            raise UnsupportedBasisError("B1 is defined over Q(i, sqrt(-c)) only (c' = 1)")
        if (-ctx.c) % 4 == 1:
            b1, b2 = ctx.one(), (ctx.one() + ctx.omega()) * Fraction(1, 2)
        else:
            b1, b2 = ctx.one(), ctx.omega()
    elif basis_id == "B3":
        if ctx.c != 3:
            raise UnsupportedBasisError("B3 = {2, w} is defined for c = 3 only")
        b1, b2 = ctx.element(2), ctx.omega()
    else:
        raise UnsupportedBasisError(f"unknown basis id {basis_id!r}")
    return SymbolBasis(basis_id, b1, b2)


@dataclass(frozen=True)
class DispersionCode:
    """A fully built linear dispersion code with its sixteen generators."""

    params: CodeParams
    basis: SymbolBasis
    variant: str                  # "plain" or "C4"
    generators: np.ndarray        # (16, 4, 4) complex, energy scale applied
    energy_scale: float
    block_scale: float            # 1 for plain, |embed(a)|^(1/4) for C4

    @property
    def name(self) -> str:
        base = self.params.name or f"c{self.params.ctx.c}cp{self.params.ctx.cprime}"
        return f"{base}-{self.basis.id}" + ("" if self.variant == "plain" else f"-{self.variant}")


def _symbols_to_coefficients(params: CodeParams, basis: SymbolBasis, s) -> tuple:
    """Pack sixteen real symbols into the four field coefficients.

    x_j = (s[4j] + s[4j+1]*w')*beta1 + (s[4j+2] + s[4j+3]*w')*beta2.
    For c' = 1 the unit w' is literally i, which is the QAM packing; for
    other c' it plays the role of the imaginary unit inside L.
    """
    ctx = params.ctx
    wp = ctx.omega_prime()
    if len(s) != 16:
        raise ValueError(f"need 16 real symbols, got {len(s)}")
    # numpy integers would overflow in the exact layer's int arithmetic
    vals = [Fraction(int(x)) if isinstance(x, numbers.Integral) else Fraction(x) for x in s]
    xs = []
    for j in range(4):
        s1, s2, s3, s4 = vals[4 * j: 4 * j + 4]
        xs.append((ctx.element(s1) + wp * s2) * basis.beta1
                  + (ctx.element(s3) + wp * s4) * basis.beta2)
    return tuple(xs)


def _encode_unscaled(params: CodeParams, basis: SymbolBasis, block_scale: float, s) -> np.ndarray:
    # block_scale is 1.0 for plain codes, where the scalings change no value
    m = normalized_codeword(params, _symbols_to_coefficients(params, basis, s))
    m[0:2, 2:4] *= block_scale
    m[2:4, 0:2] /= block_scale
    return m


def encode(code: DispersionCode, s) -> np.ndarray:
    """Energy-normalized 4x4 codeword for sixteen real symbols."""
    return _encode_unscaled(code.params, code.basis, code.block_scale, s) * code.energy_scale


def build_code(params: CodeParams, basis_id: str = "B2", variant: str = "plain") -> DispersionCode:
    """Assemble a DispersionCode and fix its energy normalization.

    The scale is chosen in closed form so that uniform unit PAM symbols
    (the 4-QAM real components, +-1) give E||X||_F^2 = TARGET_ENERGY:
    with zero-mean uncorrelated symbols that expectation is simply the
    sum of squared generator norms.

    The "C4" variant is defined for the first reference code only: it
    rebuilds the parameters with k = lprime = 4/7 and compensates the
    off-diagonal blocks by |embed(a)|^(1/4) (top-right multiplied,
    bottom-left divided), which leaves every determinant unchanged.
    """
    if variant not in ("plain", "C4"):
        raise UnsupportedVariantError(f"unknown variant {variant!r}")
    if params.conditions.alpha is None:
        raise ValueError("shaping conditions failed, cannot build codewords")
    basis = make_basis(params.ctx, basis_id)
    block_scale = 1.0
    if variant == "C4":
        if (params.ctx.c, params.ctx.cprime) != (3, 1) or params.name != "example1":
            raise UnsupportedVariantError("the C4 renormalization is defined for the first reference code only")
        params = build_params(params.ctx, params.u, k=Fraction(4, 7), lprime=Fraction(4, 7), name=params.name)
        block_scale = abs(params.a.embed()) ** 0.25
    gens = np.stack([_encode_unscaled(params, basis, block_scale, unit) for unit in np.eye(16)])
    scale = math.sqrt(TARGET_ENERGY / float(np.sum(np.abs(gens) ** 2)))
    return DispersionCode(params, basis, variant, gens * scale, scale, block_scale)


def c4_transform(code: DispersionCode) -> DispersionCode:
    """The "C4" variant of a code built on the first reference parameters."""
    return build_code(code.params, code.basis.id, "C4")


# ----------------------------------------------------------------------
# minimum determinant search


@dataclass(frozen=True)
class MinDetResult:
    strategy: str
    candidates: int
    min_abs_det: float            # with the energy scale factored out
    witness: tuple                # the 16 symbol differences


def _sparse_difference_vectors() -> np.ndarray:
    """All difference vectors supported on at most two field coefficients.

    PAM differences per real symbol are {-2, 0, 2}; each field coefficient
    owns four consecutive symbols.  Duplicates across coefficient pairs are
    harmless for a minimum.
    """
    deltas = (-2, 0, 2)
    combos = np.array(list(itertools.product(deltas, repeat=8)), dtype=float)
    combos = combos[np.any(combos != 0, axis=1)]
    out = []
    for j, k in itertools.combinations(range(4), 2):
        block = np.zeros((len(combos), 16))
        block[:, 4 * j: 4 * j + 4] = combos[:, :4]
        block[:, 4 * k: 4 * k + 4] = combos[:, 4:]
        out.append(block)
    return np.concatenate(out)


def min_det_search(code: DispersionCode, strategy: str = "sparse_exhaustive",
                   n: int = 1000, seed: int = 0) -> MinDetResult:
    """Minimum |det| over codeword differences, energy scale factored out.

    "sparse_exhaustive" enumerates every difference supported on at most
    two field coefficients; "random" samples n full-width differences from
    {-2, 0, 2}^16, n at least 1.  Either set is evaluated _SAMPLE_SLICE
    differences at a time, so that memory stays flat in n.  A strictly
    positive minimum over the sparse set is the evidence expected from a
    division algebra (nonvanishing determinants).
    """
    if strategy == "sparse_exhaustive":
        sparse = _sparse_difference_vectors()
        n, draw = len(sparse), lambda lo, m: sparse[lo:lo + m]
    elif strategy == "random":
        if n < 1:
            raise ValueError(f"samples must be at least 1, got {n}")
        rng = np.random.default_rng(seed)
        draw = lambda lo, m: (rng.integers(-1, 2, size=(m, 16)) * 2).astype(float)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    # sum_i s_i A_i as two real products, since the differences are real
    A = (code.generators / code.energy_scale).reshape(16, 16)
    candidates, best = 0, None
    for lo in range(0, n, _SAMPLE_SLICE):
        S = draw(lo, min(_SAMPLE_SLICE, n - lo))
        S = S[np.any(S != 0, axis=1)]
        if len(S):
            M = np.empty((len(S), 16), dtype=complex)
            M.real = S @ A.real
            M.imag = S @ A.imag
            dets = np.linalg.det(M.reshape(-1, 4, 4))
            i = int(np.argmin(np.abs(dets)))
            candidates += len(S)
            if best is None or abs(dets[i]) < abs(best[1]):     # the first minimum wins
                best = (S[i], dets[i])
    if best is None:
        raise ValueError("every sampled difference is zero")
    witness, det = best
    return MinDetResult(strategy, candidates, float(abs(det)), tuple(int(v) for v in witness))

