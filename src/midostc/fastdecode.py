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
    target_conditioned given, only sets of that size are considered; it
    must lie in 0..n-1.  Returns the trivial structure when nothing splits.
    """
    n = b.shape[0]
    if n > 20:
        raise ValueError("bitmask search is sized for small generator sets")
    if target_conditioned is not None and not 0 <= target_conditioned < n:
        raise ValueError(f"target_conditioned must be in 0..{n - 1}, got {target_conditioned}")
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


def stack_real(Y: np.ndarray) -> np.ndarray:
    """Stack a complex 2x4 matrix, or each of a (..., 2, 4) stack, as 16 reals
    (row-major, then imaginary part)."""
    flat = np.reshape(Y, (*np.shape(Y)[:-2], -1))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _real_channel(generators: np.ndarray, H: np.ndarray) -> np.ndarray:
    n, r, c = generators.shape
    # One GEMM: H (..., 2, 4) times every generator side by side (4, 16 * 4).
    HA = (H @ generators.transpose(1, 0, 2).reshape(r, n * c)).reshape(*H.shape[:-1], n, c)
    return stack_real(HA.swapaxes(-2, -3)).swapaxes(-1, -2)   # column i: H A_i stacked


def real_channel(code, H: np.ndarray) -> np.ndarray:
    """The real equivalent G of y = vec(H X) with X = sum_i s_i A_i: its
    columns are the stacked images of each generator through H.

    H is one 2x4 channel or a (B, 2, 4) stack; G is then (16, 16) or (B, 16, 16).
    """
    return _real_channel(code.generators, H)


@dataclass(frozen=True)
class DecodeResult:
    symbols: np.ndarray
    metric: float | np.ndarray
    visits: int


@lru_cache(maxsize=32)
def _candidate_grid(levels: tuple, k: int) -> np.ndarray:
    """All |levels|^k symbol vectors in lexicographic order (levels ascending)."""
    grid = np.array(list(itertools.product(sorted(levels), repeat=k)), dtype=float)
    grid.setflags(write=False)
    return grid


def ml_exhaustive(y: np.ndarray, G: np.ndarray, pam: tuple) -> DecodeResult:
    """Brute-force maximum likelihood over the full symbol hypercube.

    Ties are broken toward the lexicographically smallest symbol vector
    (argmin hits the first minimum and candidates are enumerated in
    lexicographic order).
    """
    n = G.shape[1]
    m = len(pam)
    count = m ** n
    if count > DEFAULT_VISIT_BUDGET:
        raise BudgetExceededError(f"{m}^{n} = {count} exceeds the visit budget {DEFAULT_VISIT_BUDGET}")
    S = _candidate_grid(tuple(pam), n)
    D = y[:, None] - G @ S.T
    metrics = np.einsum("ij,ij->j", D, D)
    i = int(np.argmin(metrics))
    return DecodeResult(S[i].copy(), float(metrics[i]), count)


# Arrays built per block of trials (each group's candidate terms, and
# each group's objective over candidates x trials x conditioned
# assignments) hold about this many values.
_BLOCK_VALUES = 1 << 16


def _verify_structure(K: np.ndarray, gs: GroupStructure) -> None:
    """Raise unless every cross-group block of every trial's K is (numerically) zero."""
    label = np.full(K.shape[-1], -1)
    for i, g in enumerate(gs.groups):
        label[list(g)] = i
    cross = (label[:, None] != label) & (label[:, None] >= 0) & (label >= 0)
    d = np.sqrt(np.einsum("bii->bi", K))
    dots = np.abs(K) / (d[:, :, None] * d[:, None, :] + 1e-300)
    bad = np.flatnonzero(np.where(cross, dots, 0.0).max(axis=(1, 2)) > ORTHOGONALITY_TOL)
    if len(bad):
        b = bad[0]
        for gi, gj in itertools.combinations(gs.groups, 2):
            worst = dots[b][np.ix_(gi, gj)].max()
            if worst > ORTHOGONALITY_TOL:
                raise StructureInvalidError(
                    f"trial {b} of the batch: groups {gi} and {gj} are not orthogonal for "
                    f"this channel (max normalized inner product {worst:.3e})")


def _quadratic(T: np.ndarray, K: np.ndarray, z: np.ndarray) -> np.ndarray:
    """t^T K t - 2 z^T t for every row t of T and every K, z: (..., len(T))."""
    return (((T @ K) - 2.0 * z[..., None, :]) * T).sum(axis=-1)


def _decode_block(K: np.ndarray, z: np.ndarray, a: np.ndarray, b: np.ndarray, classes: list,
                  Ta: np.ndarray, Tb: np.ndarray, step: int) -> np.ndarray:
    """Minimize s^T K s - 2 z^T s per trial; (B, n) symbols.

    The conditioned symbols split into a prefix a and a suffix b, so the
    assignment with flat index ia * len(Tb) + ib is Ta[ia] followed by
    Tb[ib] and argmin keeps the lexicographic tie-break.  Each group g
    adds the minimum over its candidates s of
    s^T K_gg s - 2 (z_g - K_ga a - K_gb b)^T s, split into an a-part ua
    and a b-part vb with candidates on the leading axis.  ``classes``
    holds the groups of one size as rows of an index array, handled
    together; the objectives are built per group, ``step`` trials at a
    time.
    """
    B = len(K)
    terms = []
    for g, Sg in classes:                                             # g: (groups, k)
        lin = _quadratic(Sg, K[:, g[:, :, None], g[:, None, :]], z[:, g])        # (B, groups, S)
        ua = lin[:, :, None, :] + 2.0 * (Ta @ K[:, a[:, None], g[:, None, :]] @ Sg.T)
        vb = 2.0 * (Tb @ K[:, b[:, None], g[:, None, :]] @ Sg.T)       # (B, groups, B_, S)
        terms.append([ua, vb])
    # The conditioned part t^T K t - 2 z^T t rides on the first group's terms.
    terms[0][0][:, 0] += _quadratic(Ta, K[:, a[:, None], a], z[:, a])[:, :, None]
    terms[0][1][:, 0] += _quadratic(Tb, K[:, b[:, None], b], z[:, b])[:, :, None]
    terms = [(ua.transpose(1, 3, 0, 2).copy(), vb.transpose(1, 3, 0, 2).copy())
             for ua, vb in terms]                                     # (groups, S, B, A)
    Kab = K[:, a[:, None], b]
    best = np.empty(B, dtype=int)
    for lo in range(0, B, step):
        hi = min(lo + step, B)
        total = 2.0 * (Ta @ Kab[lo:hi] @ Tb.T)                       # (trials, A, B_)
        for ua, vb in terms:
            for uag, vbg in zip(ua, vb):
                total += (uag[:, lo:hi, :, None] + vbg[:, lo:hi, None, :]).min(axis=0)
        best[lo:hi] = total.reshape(hi - lo, -1).argmin(axis=1)
    ia, ib = np.divmod(best, len(Tb))
    s = np.empty(K.shape[:2])
    s[:, a] = Ta[ia]
    s[:, b] = Tb[ib]
    trials = np.arange(B)
    for (g, Sg), (ua, vb) in zip(classes, terms):
        pick = (ua[:, :, trials, ia] + vb[:, :, trials, ib]).argmin(axis=1)     # (groups, B)
        s[:, g] = Sg[pick].transpose(1, 0, 2)
    return s


def conditional_group_decode(y: np.ndarray, G: np.ndarray, gs: GroupStructure,
                             pam: tuple) -> DecodeResult:
    """Conditional ML decoding over a verified group structure.

    Works on one trial (y of shape (16,), G of shape (16, 16)) or on a
    batch (y of shape (B, 16), G of shape (B, 16, 16)), in the Gram
    domain K = G^T G, z = G^T y where the ML metric is s^T K s - 2 z^T s
    up to ||y||^2.  For every assignment of the conditioned symbols the
    metric separates over the groups (their real-channel columns are
    orthogonal), so each group is minimized independently.  Cross-group
    orthogonality is re-verified on K for every trial before any decoding
    happens, so a wrong structure fails loudly instead of degrading to a
    heuristic; the error names the first failing trial of the batch.

    Returns the symbols and the residual metric ||y - G s||^2 per trial,
    shaped like y's batch (a float for a single trial).  Visits are per
    trial: M^|conditioned| * sum_i M^|group_i| candidate enumerations.
    """
    y = np.asarray(y, dtype=float)
    G = np.asarray(G)
    if y.ndim not in (1, 2) or G.shape[:-1] != y.shape or y.size == 0:
        raise ValueError(f"y of shape {y.shape} does not match G of shape {G.shape}: need "
                         "y (16,) with G (16, 16), or y (B, 16) with G (B, 16, 16) and B >= 1")
    Yb, Gb = y.reshape(-1, y.shape[-1]), G.reshape(-1, *G.shape[-2:])
    Gt = Gb.swapaxes(-1, -2)
    K = Gt @ Gb
    z = (Gt @ Yb[..., None])[..., 0]
    _verify_structure(K, gs)
    levels = tuple(pam)
    m = len(levels)
    cond = np.array(gs.conditioned, dtype=np.intp)
    a, b = np.split(cond, [len(cond) // 2])
    Ta, Tb = _candidate_grid(levels, len(a)), _candidate_grid(levels, len(b))
    classes = [(np.array([g for g in gs.groups if len(g) == k]), _candidate_grid(levels, k))
               for k in sorted({len(g) for g in gs.groups})]
    # Values per trial: the groups' terms with their largest intermediate,
    # and the largest group objective.
    term_values = sum(g.shape[0] * len(Sg) * (len(Ta) + len(Tb) + g.shape[1]) for g, Sg in classes)
    objective_values = len(Ta) * len(Tb) * len(classes[-1][1])
    outer = max(1, _BLOCK_VALUES // term_values)
    inner = max(1, _BLOCK_VALUES // objective_values)
    s = np.empty((len(Gb), Gb.shape[-1]))
    for lo in range(0, len(K), outer):
        s[lo:lo + outer] = _decode_block(K[lo:lo + outer], z[lo:lo + outer], a, b, classes,
                                         Ta, Tb, inner)
    resid = Yb - (Gb @ s[..., None])[..., 0]
    metric = np.einsum("bi,bi->b", resid, resid)
    visits = m ** len(cond) * sum(m ** len(g) for g in gs.groups)
    if y.ndim == 1:
        return DecodeResult(s[0], float(metric[0]), visits)
    return DecodeResult(s, metric, visits)
