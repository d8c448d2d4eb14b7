"""Fast decodability analysis and maximum likelihood decoding.

The mutual-orthogonality structure of a linear dispersion code is read
off the matrix b[l, m] = ||A_l A_m^H + A_m A_l^H||_F.  A structural zero
there makes the corresponding real-channel columns orthogonal for every
channel realization, which is what allows conditioning on a subset of
symbols and decoding the rest in independent groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_VISIT_BUDGET = 1 << 20
STRUCTURAL_ZERO_RTOL = 1e-9
ORTHOGONALITY_TOL = 1e-8


class BudgetExceededError(ValueError):
    """Exhaustive enumeration would exceed the visit budget."""


class StructureInvalidError(ValueError):
    """The supplied group structure is not orthogonal for this channel."""


def pam_levels(m: int) -> tuple:
    """The m-PAM alphabet, odd integers centered on zero ({-1, 1} for m=2)."""
    if m < 2 or m % 2:
        raise ValueError("PAM size must be a positive even integer")
    return tuple(float(v) for v in range(-(m - 1), m, 2))


def hurwitz_radon(code) -> np.ndarray:
    """The 16x16 quadratic-form matrix of the code's generators."""
    A = code.generators
    n = len(A)
    b = np.zeros((n, n))
    for l in range(n):
        for m in range(l, n):
            v = np.linalg.norm(A[l] @ A[m].conj().T + A[m] @ A[l].conj().T)
            b[l, m] = b[m, l] = v
    return b


def adjacency(b: np.ndarray) -> np.ndarray:
    """Boolean coupling matrix; entries below STRUCTURAL_ZERO_RTOL * max(b) are structural zeros."""
    thresh = STRUCTURAL_ZERO_RTOL * float(b.max())
    adj = b > thresh
    np.fill_diagonal(adj, False)
    return adj


@dataclass(frozen=True)
class GroupStructure:
    """A conditioning set plus independently decodable groups (0-based indices)."""

    conditioned: tuple
    groups: tuple
    exponent: int

    @property
    def trivial(self) -> bool:
        return not self.conditioned and len(self.groups) == 1


def _trivial_structure(n: int) -> GroupStructure:
    return GroupStructure((), (tuple(range(n)),), n)


def detect_groups(b: np.ndarray, target_conditioned: int | None = None) -> GroupStructure:
    """Find a conditioning set whose removal splits the coupling graph.

    Scans conditioning sets exhaustively with bitmask flood fills (pruned
    by the best exponent found so far), so the result is deterministic and
    invariant under symbol permutations.  The exponent is |conditioned|
    plus the size of the largest remaining group: enumerating M^exponent
    candidates dominates the conditional decoder's complexity.  With
    target_conditioned given, only sets of that size are considered.
    Returns the trivial structure when nothing splits.
    """
    n = b.shape[0]
    if n > 20:
        raise ValueError("bitmask search is sized for small generator sets")
    adjm = adjacency(b)
    adj = [int(sum(1 << m for m in range(n) if adjm[l, m])) for l in range(n)]
    full = (1 << n) - 1
    best = None  # (exponent, conditioned size, mask, components)
    for mask in range(1 << n):
        t = mask.bit_count()
        if target_conditioned is not None:
            if t != target_conditioned:
                continue
        elif best is not None and t + 1 >= best[0]:
            continue
        rem = full & ~mask
        if rem == 0:
            continue
        comps = []
        r = rem
        while r:
            comp = r & -r
            frontier = comp
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    v = (f & -f).bit_length() - 1
                    f &= f - 1
                    nxt |= adj[v]
                nxt &= rem & ~comp
                comp |= nxt
                frontier = nxt
            comps.append(comp)
            r &= ~comp
        if len(comps) < 2:
            continue
        expo = t + max(cm.bit_count() for cm in comps)
        key = (expo, t, mask)
        if best is None or key < best[:3]:
            best = (expo, t, mask, comps)
    if best is None:
        return _trivial_structure(n)
    expo, _, mask, comps = best
    cond = tuple(i for i in range(n) if mask >> i & 1)
    groups = tuple(tuple(i for i in range(n) if cm >> i & 1) for cm in comps)
    groups = tuple(sorted(groups, key=lambda g: g[0]))
    return GroupStructure(cond, groups, expo)


# ----------------------------------------------------------------------
# real equivalent channel


@dataclass
class RealChannel:
    """Real-valued equivalent of y = vec(H X) with X = sum_i s_i A_i."""

    G: np.ndarray   # (16, 16) real


def stack_real(Y: np.ndarray) -> np.ndarray:
    """Stack a complex 2x4 matrix as 16 reals (row-major, then imaginary part)."""
    flat = np.asarray(Y).ravel()
    return np.concatenate([flat.real, flat.imag])


def _real_channel(generators: np.ndarray, H: np.ndarray) -> RealChannel:
    cols = [stack_real(H @ A) for A in generators]
    return RealChannel(np.stack(cols, axis=1))


def real_channel(code, H: np.ndarray) -> RealChannel:
    """Columns are the stacked images of each generator through H."""
    return _real_channel(code.generators, H)


@dataclass(frozen=True)
class DecodeResult:
    symbols: np.ndarray
    metric: float
    visits: int


@lru_cache(maxsize=32)
def _candidate_grid(levels: tuple, k: int) -> np.ndarray:
    """All |levels|^k symbol vectors in lexicographic order (levels ascending)."""
    grid = np.array(list(itertools.product(sorted(levels), repeat=k)), dtype=float)
    grid.setflags(write=False)
    return grid


def ml_exhaustive(y: np.ndarray, ch: RealChannel, pam: tuple) -> DecodeResult:
    """Brute-force maximum likelihood over the full symbol hypercube.

    Ties are broken toward the lexicographically smallest symbol vector
    (argmin hits the first minimum and candidates are enumerated in
    lexicographic order).
    """
    n = ch.G.shape[1]
    m = len(pam)
    count = m ** n
    if count > DEFAULT_VISIT_BUDGET:
        raise BudgetExceededError(f"{m}^{n} = {count} exceeds the visit budget {DEFAULT_VISIT_BUDGET}")
    S = _candidate_grid(tuple(pam), n)
    D = y[:, None] - ch.G @ S.T
    metrics = np.einsum("ij,ij->j", D, D)
    i = int(np.argmin(metrics))
    return DecodeResult(S[i].copy(), float(metrics[i]), count)


def _verify_structure(G: np.ndarray, gs: GroupStructure) -> None:
    norms = np.linalg.norm(G, axis=0)
    scale = np.outer(norms, norms) + 1e-300
    dots = np.abs(G.T @ G) / scale
    for gi, gj in itertools.combinations(gs.groups, 2):
        block = dots[np.ix_(gi, gj)]
        if block.max() > ORTHOGONALITY_TOL:
            raise StructureInvalidError(
                f"groups {gi} and {gj} are not orthogonal for this channel "
                f"(max normalized inner product {block.max():.3e})")


def conditional_group_decode(y: np.ndarray, ch: RealChannel, gs: GroupStructure,
                             pam: tuple) -> DecodeResult:
    """Conditional ML decoding over a verified group structure.

    For every assignment of the conditioned symbols the residual metric
    separates over the groups (their real-channel columns are orthogonal),
    so each group is minimized independently.  Cross-group orthogonality
    is re-verified for the given channel before any decoding happens, so a
    wrong structure fails loudly instead of degrading to a heuristic.
    Visits count the per-assignment candidate enumerations,
    M^|conditioned| * sum_i M^|group_i|.
    """
    G = ch.G
    _verify_structure(G, gs)
    levels = tuple(pam)
    m = len(levels)
    cond = list(gs.conditioned)
    # Residuals for every conditioned assignment (16 x m^|cond|).
    Tc = _candidate_grid(levels, len(cond))
    R = y[:, None] - (G[:, cond] @ Tc.T if cond else np.zeros((len(y), 1)))
    total = np.einsum("ij,ij->j", R, R)
    picks = []
    for g in gs.groups:
        Sg = _candidate_grid(levels, len(g))
        Cg = G[:, list(g)] @ Sg.T                    # 16 x m^|g|
        quad = np.einsum("ij,ij->j", Cg, Cg)         # ||Cg s||^2
        obj = quad[None, :] - 2.0 * (R.T @ Cg)       # per assignment x candidate
        idx = np.argmin(obj, axis=1)
        total = total + obj[np.arange(len(total)), idx]
        picks.append((g, Sg, idx))
    t_star = int(np.argmin(total))
    s = np.zeros(G.shape[1])
    if cond:
        s[cond] = Tc[t_star]
    for g, Sg, idx in picks:
        s[list(g)] = Sg[idx[t_star]]
    resid = y - G @ s
    metric = float(resid @ resid)
    visits = m ** len(cond) * sum(m ** len(g) for g in gs.groups)
    return DecodeResult(s, metric, visits)
