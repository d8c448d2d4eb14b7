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
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (COEFFICIENT_AT, SUPPORT, CodeParams, _normalize, build_params, det_exact,
                      normalized_codeword, representation, representation_det_exact)
from .numberfield import FieldContext, FieldElement


TARGET_ENERGY = 16.0  # average squared Frobenius norm per codeword
_SAMPLE_SLICE = 1 << 14  # random differences drawn and evaluated at a time
_TIE = 1e-9             # ties: |det| within _TIE * its absolute Leibniz sum, far above rounding


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
            raise ValueError("B1 is defined over Q(i, sqrt(-c)) only (c' = 1)")
        if (-ctx.c) % 4 == 1:
            b1, b2 = ctx.one(), (ctx.one() + ctx.omega()) * Fraction(1, 2)
        else:
            b1, b2 = ctx.one(), ctx.omega()
    elif basis_id == "B3":
        if ctx.c != 3:
            raise ValueError("B3 = {2, w} is defined for c = 3 only")
        b1, b2 = ctx.element(2), ctx.omega()
    else:
        raise ValueError(f"unknown basis id {basis_id!r}")
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


def _slots(params: CodeParams, basis: SymbolBasis) -> tuple:
    """(beta1, w'*beta1, beta2, w'*beta2): real symbol 4j + t enters x_j times slots[t].
    w' is i for c' = 1, the QAM packing, and stands in for i inside L otherwise."""
    wp = params.ctx.omega_prime()
    return (basis.beta1, wp * basis.beta1, basis.beta2, wp * basis.beta2)


def _symbols_to_coefficients(params: CodeParams, basis: SymbolBasis, s) -> tuple:
    """Pack sixteen real symbols into the four field coefficients (see _slots).

    A finite float symbol keeps its exact binary value (0.1 is 3602879701896397 / 2^55),
    which keeps the packing linear; a NaN or infinite one is refused (ValueError)."""
    if len(s) != 16:
        raise ValueError(f"need 16 real symbols, got {len(s)}")
    for i, x in enumerate(s):
        if isinstance(x, float | np.floating) and not math.isfinite(x):
            raise ValueError(f"symbol {i + 1} is {x}, not a finite number")
    # numpy integers would overflow in the exact layer's int arithmetic
    vals = [Fraction(int(x)) if isinstance(x, numbers.Integral) else Fraction(x) for x in s]
    slots = _slots(params, basis)
    return tuple(sum(map(operator.mul, slots, vals[4 * j: 4 * j + 4]), params.ctx.zero()) for j in range(4))


def encode(code: DispersionCode, s) -> np.ndarray:
    """Energy-normalized 4x4 codeword for sixteen real symbols."""
    xs = _symbols_to_coefficients(code.params, code.basis, s)
    return normalized_codeword(code.params, xs, code.block_scale) * code.energy_scale


def build_code(params: CodeParams, basis_id: str = "B2", variant: str = "plain") -> DispersionCode:
    """Assemble a DispersionCode and fix its energy normalization.

    The scale is chosen in closed form so that uniform unit PAM symbols
    (the 4-QAM real components, +-1) give E||X||_F^2 = TARGET_ENERGY:
    with zero-mean uncorrelated symbols that expectation is simply the
    sum of squared generator norms.

    The "C4" variant is defined for the first reference code only: it
    rebuilds the parameters with k = lprime = 4/7 and passes normalized_codeword
    the block scale |embed(a)|^(1/4), which leaves every determinant unchanged.
    """
    if variant not in ("plain", "C4"):
        raise ValueError(f"unknown variant {variant!r}")
    basis = make_basis(params.ctx, basis_id)
    block_scale = 1.0
    if variant == "C4":
        if (params.ctx.c, params.ctx.cprime) != (3, 1) or params.name != "example1":
            raise ValueError("the C4 renormalization is defined for the first reference code only")
        params = build_params(params.ctx, params.u, k=Fraction(4, 7), lprime=Fraction(4, 7), name=params.name)
        block_scale = abs(params.a.embed()) ** 0.25
    # generator 4j + t: slot t's normalized codeword on (slot,) * 4, kept where COEFFICIENT_AT is j
    reps = np.stack([representation(params, (slot,) * 4) for slot in _slots(params, basis)])
    on_j = np.array(COEFFICIENT_AT) == np.arange(4)[:, None, None]
    with np.errstate(over="ignore"):        # an overflow shows as an infinite energy
        gens = np.where(on_j[:, None], _normalize(params, reps, block_scale), 0).reshape(16, 4, 4)
        energy = float(np.sum(np.abs(gens) ** 2))
    if not 0.0 < energy < math.inf:
        raise ValueError(f"the generators' energy is {energy} as a double: the parameters leave double precision")
    scale = math.sqrt(TARGET_ENERGY / energy)
    return DispersionCode(params, basis, variant, gens * scale, scale, block_scale)


def c4_transform(code: DispersionCode) -> DispersionCode:
    """The "C4" variant of a code on the first reference parameters, kept for bench/ (elsewhere build_code)."""
    return build_code(code.params, code.basis.id, "C4")


# ----------------------------------------------------------------------
# minimum determinant search


@dataclass(frozen=True)
class MinDetResult:
    strategy: str
    candidates: int
    min_abs_det: float            # exact |det| at the witness, energy scale factored out
    witness: tuple                # the 16 symbol differences


_DELTAS = np.array(list(itertools.product((-2, 0, 2), repeat=4)), dtype=float)  # one coefficient's 81 PAM differences
_ZERO_CELL = 40 * 81 + 40     # the (zero, zero) cell of a coefficient pair's (81, 81) grid: row 40 is zero
_PAIRS = tuple(itertools.combinations(range(4), 2))
# sparse index of each sign class's representative: per pair, rows 0..40 against rows 0..40, less the zero cell
_REPRESENTATIVES = (np.arange(6)[:, None] * 6560 + (81 * np.arange(41)[:, None] + np.arange(41)).ravel()[:-1]).ravel()
_REPRESENTATIVES.flags.writeable = False


def _sparse_difference(index: int) -> tuple:
    """The sparse difference at position index: the sparse set holds every
    difference supported on at most two field coefficients.

    PAM differences per real symbol are {-2, 0, 2}; each field coefficient
    owns four consecutive symbols.  Per coefficient pair j < k, in
    combinations order, the set runs over the (81, 81) grid of _DELTAS on x_j
    against _DELTAS on x_k, row-major, without the zero cell: 6 * 6560 = 39,360
    differences.  Duplicates across coefficient pairs are harmless for a minimum.
    """
    pair, cell = divmod(index, 81 * 81 - 1)
    d, e = divmod(cell + (cell >= _ZERO_CELL), 81)
    (j, k), s = _PAIRS[pair], [0] * 16
    s[4 * j: 4 * j + 4], s[4 * k: 4 * k + 4] = _DELTAS[d], _DELTAS[e]
    return tuple(int(v) for v in s)


def _sparse_determinants(code: DispersionCode) -> tuple:
    """|det| and the permanent of |M| for one sparse difference M of each
    sign class, in _REPRESENTATIVES order, energy scale factored out.

    Coefficient j's part X_j of the normalized codeword is monomial on the
    entries (r, pi_j(r)), pi_j(r) = SUPPORT[j][r].  For j != k, pi_j pi_k is
    conjugate to XOR by j XOR k: two 2-cycles {r, r'} with r' = pi_j(pi_k(r)).
    On each, X_j(d) + X_k(e) is a 2x2 block with determinant P(d) - Q(e),
    P = X_j[r, pi_j(r)] X_j[r', pi_j(r')] and Q the same product over X_k, and
    permanent |P| + |Q|; det and permanent of M are the products over the two.
    As P(-d) = P(d), Q(-e) = Q(e) and row 80 - i of _DELTAS is -row i, each pair's
    rows 0..40, less the last, zero, cell, rank every sign class (+-d, +-e) by its first.
    """
    A = (code.generators / code.energy_scale).reshape(4, 4, 4, 4)      # [j, t, r, c]
    X = [_DELTAS[:41] @ A[j][:, range(4), SUPPORT[j]] for j in range(4)]   # X[j][:, r] = X_j[r, pi_j(r)] on rows 0..40
    dets, perms = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for j, k in _PAIRS:
            det = perm = 1.0
            partner = [SUPPORT[j][SUPPORT[k][r]] for r in range(4)]
            for r in (r for r in range(4) if r < partner[r]):         # one row of each 2-cycle
                P, Q = X[j][:, r] * X[j][:, partner[r]], X[k][:, r] * X[k][:, partner[r]]
                det = det * np.abs(P[:, None] - Q)
                perm = perm * (np.abs(P)[:, None] + np.abs(Q))
            dets.append(det.ravel()[:-1])
            perms.append(perm.ravel()[:-1])
    return np.concatenate(dets), np.concatenate(perms)


def _random_slices(code: DispersionCode, n: int, seed: int):
    """n random differences from {-2, 0, 2}^16, zero ones dropped, in slices of
    at most _SAMPLE_SLICE: (differences, |det|, permanent of |M|) by det_exact."""
    rng = np.random.default_rng(seed)
    # entry (r, c) of sum_i s_i A_i over a slice is row 4r + c of a (16, m) array
    A = (code.generators / code.energy_scale).reshape(16, 16)
    for lo in range(0, n, _SAMPLE_SLICE):
        S = (rng.integers(-1, 2, size=(min(_SAMPLE_SLICE, n - lo), 16)) * 2).astype(float)
        S = S[np.any(S != 0, axis=1)]
        if len(S):
            M = np.empty((16, len(S)), dtype=complex)
            M.real = A.real.T @ S.T
            M.imag = A.imag.T @ S.T
            M = M.reshape(4, 4, -1)
            with np.errstate(over="ignore", invalid="ignore"):
                dets, perms = np.abs(det_exact(M)), det_exact(np.abs(M), operator.add)
            yield S, dets, perms


def _witness(slices) -> tuple:
    """The witness and the candidate count over (differences, |det|, permanent)
    slices, where a difference may also be its index in the sparse set; a
    copy with equal |det| and permanent after a difference never moves the witness.

    The witness is the first difference whose |det| lies within _TIE times its
    permanent, its own absolute Leibniz sum, of its slice's minimum; a later
    slice replaces it only with a minimum smaller by more than that minimum's
    margin.  The margin is far above rounding, so ties and exact zeros do not
    depend on the determinant formula.  A value that is not finite refuses.
    """
    candidates, best = 0, None
    for S, dets, perms in slices:
        tol = _TIE * perms
        if not np.isfinite(dets + tol).all():
            raise ValueError("a determinant term overflows a double: the parameters leave double precision")
        candidates += len(S)
        i, j = int(np.argmax(dets <= dets.min() + tol)), int(np.argmin(dets))
        if best is None or dets[j] < best[1] - tol[j]:     # best holds the witness and its slice's minimum
            best = (S[i], dets[j])
    if best is None:
        raise ValueError("every sampled difference is zero")
    return best[0], candidates


def min_det_search(code: DispersionCode, strategy: str = "sparse_exhaustive",
                   n: int = 1000, seed: int = 0) -> MinDetResult:
    """Minimum |det| over codeword differences, energy scale factored out.

    "sparse_exhaustive" certifies all 39,360 differences supported on at most
    two field coefficients by ranking the 10,080 first in their sign class with
    the product of two 2x2 minors (_sparse_determinants) in one _witness slice;
    "random" samples n full-width differences from {-2, 0, 2}^16, integers n >= 1
    and seed >= 0, drops the zero ones and ranks them by det_exact's Laplace
    expansion, _SAMPLE_SLICE differences at a time, so its memory stays flat
    in n.  The minimum is the exact determinant at the witness; a strictly
    positive one over the sparse set is the nonvanishing determinant
    expected from a division algebra.
    """
    if strategy == "sparse_exhaustive":
        slices = [(_REPRESENTATIVES, *_sparse_determinants(code))]     # the sparse set has no zero difference
    elif strategy == "random":
        for name, value in (("samples", n), ("seed", seed)):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if n < 1:
            raise ValueError(f"samples must be at least 1, got {n}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        slices = _random_slices(code, n, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    witness, candidates = _witness(slices)
    if strategy == "sparse_exhaustive":     # every copy of a sign class is certified by its first
        witness, candidates = _sparse_difference(int(witness)), len(_PAIRS) * (81 * 81 - 1)
    witness = tuple(int(v) for v in witness)
    exact = abs(representation_det_exact(code.params, _symbols_to_coefficients(code.params, code.basis, witness)))
    if exact and float(exact) < sys.float_info.min:
        raise ValueError("the exact minimum determinant is nonzero but not a normal double: "
                         "the parameters leave double precision")
    return MinDetResult(strategy, candidates, float(exact), witness)
