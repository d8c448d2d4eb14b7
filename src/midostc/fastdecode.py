"""Fast decodability analysis and maximum likelihood decoding.

The mutual-orthogonality structure of a linear dispersion code is read
off the matrix b[l, m] = ||A_l A_m^H + A_m A_l^H||_F.  A structural zero
there makes the corresponding real-channel columns orthogonal for every
channel realization, which is what allows conditioning on a subset of
symbols and decoding the rest in independent groups.  One scale-free rule,
_coupled, judges b and every trial's Gram matrix alike.  The conditional
decoder plans each structure once and decodes same-size groups as a stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_VISIT_BUDGET = 1 << 20
_NEAR_TIE_RTOL = 1e-10  # ml_exhaustive's pruning slack; its split scores measured within 2.93 eps (6.5e-16)
ORTHOGONALITY_TOL = 1e-8


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
    P = A[:, None] @ A.conj().transpose(0, 2, 1)        # P[l, m] = A_l A_m^H
    return np.linalg.norm(P + P.swapaxes(0, 1), axis=(2, 3))


def _coupled(M: np.ndarray, pairs: np.ndarray | None = None) -> np.ndarray:
    """|M_lm| > ORTHOGONALITY_TOL * sqrt(M_ll M_mm), for one matrix or a (..., n, n) stack: at every
    (l, m), (..., n, n), or at the index pairs (2, P) given alone, (..., P)."""
    d = np.sqrt(np.einsum("...ii->...i", M))
    l, m = np.indices(M.shape[-2:]) if pairs is None else pairs
    return np.abs(M[..., l, m]) > ORTHOGONALITY_TOL * (d[..., l] * d[..., m])


def adjacency(b: np.ndarray) -> np.ndarray:
    """Boolean coupling matrix of b under _coupled's rule, diagonal False.  A zero or
    non-finite self-coupling has left double precision, and is refused (ValueError)."""
    diag = np.diagonal(b)
    lost = np.flatnonzero(~(np.isfinite(diag) & (diag > 0)))
    if len(lost):
        i = lost[0]
        raise ValueError(f"symbol {i + 1} has self-coupling b = {diag[i]:.3e}, not a positive finite double: "
                         "the parameters leave double precision and its couplings cannot be decided")
    adj = _coupled(b)
    np.fill_diagonal(adj, False)
    return adj


@dataclass(frozen=True)
class GroupStructure:
    """A conditioning set plus independently decodable groups (0-based indices)."""

    conditioned: tuple
    groups: tuple
    exponent: int

    def __post_init__(self):
        expected = len(self.conditioned) + max(map(len, self.groups), default=0)
        if self.exponent != expected:
            raise ValueError(f"exponent {self.exponent} contradicts the structure, whose conditioned "
                             f"symbols and largest group give {expected}")

    @property
    def trivial(self) -> bool:
        return not self.conditioned and len(self.groups) == 1


def _components(coupled: np.ndarray, rem: np.ndarray):
    """Flood-fill every bitmask in rem at once, one component per round: yield the
    indices into rem that still have bits left and, for each, the component of its
    lowest remaining bit (so components come in order of their lowest symbol)."""
    idx, r = np.arange(len(rem)), rem
    while len(idx):
        rest = rem[idx]
        comp = frontier = r & -r
        while frontier.any():
            frontier = coupled[frontier] & rest & ~comp
            comp = comp | frontier
        yield idx, comp
        r = r & ~comp
        idx, r = idx[r != 0], r[r != 0]


def detect_groups(b: np.ndarray, target_conditioned: int | None = None) -> GroupStructure:
    """Find a conditioning set whose removal splits the coupling graph.

    Decides the proper conditioning sets at once, flooding their complements
    as uint32 bitmask columns, and takes the least (exponent, |set|, mask)
    among those that leave two or more components, so the result is
    deterministic and invariant under symbol permutations.  Swapping twins
    u < v (equal open or equal closed adjacency rows) is a graph automorphism;
    it maps a set holding v but not u to one with the same |set|, the same
    component sizes and a smaller mask, so the least set never holds v without
    u.  Twinship is an equivalence, so only the sets meeting each twin class in
    a prefix are decided.  The exponent is |conditioned| plus the size of the
    largest remaining group: enumerating M^exponent candidates dominates the
    conditional decoder's complexity.
    With target_conditioned given, only sets of that size are considered; it
    must lie in 0..n-1.  Groups come out in order of their lowest symbol.
    Returns the trivial structure when nothing splits.
    """
    n = b.shape[0]
    if n > 20:
        raise ValueError("bitmask search is sized for small generator sets")
    if target_conditioned is not None and not 0 <= target_conditioned < n:
        raise ValueError(f"target_conditioned must be in 0..{n - 1}, got {target_conditioned}")
    bit = 1 << np.arange(n, dtype=np.uint32)
    adj = adjacency(b) @ bit
    # coupled[mask]: the symbols coupled to any symbol in mask; size[mask]: its popcount;
    # keep[mask]: mask holds each symbol only beside its nearest lower twin
    coupled, size = np.zeros(1 << n, dtype=np.uint32), np.zeros(1 << n, dtype=np.uint8)
    keep = np.ones(1 << n, dtype=bool)
    for v in range(n):
        coupled[1 << v:2 << v] = coupled[:1 << v] | adj[v]
        size[1 << v:2 << v] = size[:1 << v] + 1
        keep[1 << v:2 << v] = keep[:1 << v]
        twins = np.flatnonzero((adj[:v] == adj[v]) | (adj[:v] | bit[:v] == adj[v] | bit[v]))
        if len(twins):
            keep[1 << v:2 << v].reshape(-1, 2, 1 << twins[-1])[:, 0] = False
    full = (1 << n) - 1
    keep[full] = False
    if target_conditioned is not None:
        keep &= size == target_conditioned
    masks = np.flatnonzero(keep).astype(np.uint32)
    count, largest = np.zeros(len(masks), dtype=np.uint8), np.zeros(len(masks), dtype=np.uint8)
    for idx, comp in _components(coupled, full ^ masks):
        count[idx] += 1
        largest[idx] = np.maximum(largest[idx], size[comp])
    t = size[masks].astype(np.uint16)
    expo = t + largest
    # masks ascend, so the first least (exponent, |set|) is also the least mask
    key = np.where(count >= 2, expo * (n + 1) + t, np.iinfo(np.uint16).max)
    best = int(np.argmin(key))
    if count[best] < 2:
        return GroupStructure((), (tuple(range(n)),), n)
    mask = int(masks[best])
    comps = [int(comp[0]) for _, comp in _components(coupled, np.array([full ^ mask], dtype=np.uint32))]
    cond = tuple(i for i in range(n) if mask >> i & 1)
    groups = tuple(tuple(i for i in range(n) if cm >> i & 1) for cm in comps)
    return GroupStructure(cond, groups, int(expo[best]))


# ----------------------------------------------------------------------
# real equivalent channel


def stack_real(Y: np.ndarray) -> np.ndarray:
    """Stack a complex 2x4 matrix, or each of a (..., 2, 4) stack, as 16 reals
    (row-major, then imaginary part), written straight from Y's real and imaginary views."""
    Y = np.asarray(Y)
    out = np.empty((*Y.shape[:-2], 2, *Y.shape[-2:]), dtype=Y.real.dtype)
    out[..., 0, :, :], out[..., 1, :, :] = Y.real, Y.imag
    return out.reshape(*Y.shape[:-2], -1)


def _real_channel(generators: np.ndarray, H: np.ndarray) -> np.ndarray:
    n, r, c = generators.shape
    # A product per H with all generators side by side (4, 64): one GEMM on all H's rows rounds otherwise on Haswell.
    HA = (H @ generators.transpose(1, 0, 2).reshape(r, n * c)).reshape(*H.shape[:-1], n, c)
    return stack_real(HA.swapaxes(-2, -3)).swapaxes(-1, -2)   # column i: H A_i stacked


def real_channel(code, H: np.ndarray) -> np.ndarray:
    """The real equivalent G of y = vec(H X) with X = sum_i s_i A_i: its
    columns are the stacked images of each generator through H.

    H is one 2x4 channel or a (B, 2, 4) stack; G is then (16, 16) or (B, 16, 16).
    Kept for bench/, which calls it by name; src/ calls _real_channel.
    """
    return _real_channel(code.generators, H)


@dataclass(frozen=True)
class DecodeResult:
    symbols: np.ndarray
    metric: float | np.ndarray
    visits: int


def _check_symmetric(levels) -> None:
    """Raise unless the alphabet is two or more distinct finite levels symmetric about zero, so that
    candidate -1-j of its lexicographic grid is minus candidate j; both decoders pair candidates that way."""
    if len(levels) < 2 or len(set(levels)) < len(levels) or not np.isfinite(levels).all():
        raise ValueError(f"the alphabet must hold two or more distinct finite levels, got {levels}")
    if sorted(levels) != sorted(-v for v in levels):
        raise ValueError(f"the alphabet must be symmetric about zero, got {levels}")


def _real_trials(y, G, batched: bool) -> tuple:
    """y and G as float arrays, the one input check of both decoders: one trial, y (r,) with
    G (r, n), or with batched also y (B, r) with G (B, r, n) for B >= 1, all real and finite."""
    y, G = np.asarray(y), np.asarray(G)
    if y.ndim not in ((1, 2) if batched else (1,)) or G.shape[:-1] != y.shape or y.size == 0:
        need = "y (r,) with G (r, n)" + (", or y (B, r) with G (B, r, n) and B >= 1" if batched else "")
        raise ValueError(f"y of shape {y.shape} does not match G of shape {G.shape}: need {need}")
    if np.iscomplexobj(y) or np.iscomplexobj(G):
        raise ValueError(f"y and G must be real, got {y.dtype} y and {G.dtype} G")
    y, G = y.astype(float, copy=False), G.astype(float, copy=False)
    if not (np.isfinite(y).all() and np.isfinite(G).all()):
        raise ValueError("y and G must be finite")
    return y, G


@lru_cache(maxsize=32)
def _candidate_grid(levels: tuple, k: int) -> np.ndarray:
    """All |levels|^k symbol vectors in lexicographic order (levels ascending)."""
    grid = np.array(list(itertools.product(sorted(levels), repeat=k)), dtype=float)
    grid.setflags(write=False)
    return grid


def ml_exhaustive(y: np.ndarray, G: np.ndarray, pam: tuple) -> DecodeResult:
    """Brute-force maximum likelihood over the full symbol hypercube.

    One trial, y of shape (r,) and G of shape (r, n); _real_trials and
    _check_symmetric refuse bad input and alphabets.  Every one of the m^n
    candidates is scored, split into a prefix u of n // 2 symbols and a
    suffix v of the rest, each from its lexicographic grid U or V.  With
    a_u = y - G_u u and b_v = G_v v, candidate (u, v) scores |a_u|^2 +
    |b_v|^2 - 2 a_u^T b_v.  The alphabet is symmetric, so V[-1-j] = -V[j]:
    v and -v share |b_v|^2, and the better of (u, v_j) and (u, -v_j) scores
    |a_u|^2 - 2 (|C_ju| - |b_j|^2 / 2) with C = b^T a, b taken over the
    first half of V only (an odd grid keeps its self-paired zero row).
    Prefix u's best score is then a maximum over the rows of one (|V| / 2,
    |U|) array from one GEMM.  That score only prunes: each prefix u whose
    best score lies within _NEAR_TIE_RTOL of the overall best keeps its
    block of |V| candidates [u | V].  The slack is relative to max |a_u|^2 +
    max |b_v|^2 + |y|^2, and the split scores were measured within 2.93 eps
    of that from the rescored metric (C2 and C5, 0 to 40 dB and y = 0).  The
    surviving blocks, still in lexicographic order, are rescored as a
    residual matrix y - G S^T and its column sums of squares.  The decision
    and the reported metric ||y - G s||^2 are argmin and minimum of that
    rescoring, the arithmetic of a search over the whole grid, so ties (s
    and -s at y = 0, say) go to the lexicographically smallest symbol vector
    and the metric is that search's value bit for bit wherever BLAS gives a
    column of G S^T the same bits whatever columns stand beside it (OpenBLAS's
    SkylakeX kernels do; its Haswell ones not always).  Nothing here uses
    the Gram matrix or any group structure: this is the independent
    reference for the decoders.
    """
    y, G = _real_trials(y, G, batched=False)
    levels = tuple(pam)
    _check_symmetric(levels)
    n = G.shape[1]
    m = len(levels)
    count = m ** n
    if count > DEFAULT_VISIT_BUDGET:
        raise ValueError(f"{m}^{n} = {count} exceeds the visit budget {DEFAULT_VISIT_BUDGET}")
    h = n // 2
    U, V = _candidate_grid(levels, h), _candidate_grid(levels, n - h)
    a = y[:, None] - G[:, :h] @ U.T
    b = G[:, h:] @ V[:len(V) - len(V) // 2].T
    qa, qb = np.einsum("ij,ij->j", a, a), np.einsum("ij,ij->j", b, b)
    C = b.T @ a
    np.abs(C, out=C)
    C -= 0.5 * qb[:, None]
    best = qa - 2.0 * C.max(axis=0)                                 # per prefix u
    near = np.flatnonzero(best <= best.min() + _NEAR_TIE_RTOL * (qa.max() + qb.max() + y @ y))
    S = np.concatenate([np.repeat(U[near], len(V), axis=0), np.tile(V, (len(near), 1))], axis=1)
    D = y[:, None] - G @ S.T
    metrics = np.einsum("ij,ij->j", D, D)
    i = int(np.argmin(metrics))
    return DecodeResult(S[i], float(metrics[i]), count)


_BLOCK_VALUES = 1 << 15  # objective values built at a time: trials x assignments
_TERM_VALUES = 1 << 20   # group-term values built at a time: trials x (group candidates x terms)


@lru_cache(maxsize=32)
def _plan(gs: GroupStructure, levels: tuple, width: int) -> tuple:
    """Read-only arrays for decoding width columns over gs with the alphabet levels: conditioned prefix
    a, suffix b and their grids Ta, Tb; each symbol's group (-1 if conditioned) and the cross-group pairs
    l < m in row-major order, (2, P); same-size groups stacked as (indices (ng, k), grid, half grid H);
    each group's (stack, row); the rows per _decode_block call, at least one, whose group terms fit
    _TERM_VALUES at H ng (k + |Ta| + |Tb|) values a row per stack; visits."""
    _check_symmetric(levels)
    if sorted([*gs.conditioned, *(v for g in gs.groups for v in g)]) != list(range(width)):
        raise ValueError(f"{gs} does not partition the {width} columns of G into its conditioned set and groups")
    m, sizes = len(levels), [len(g) for g in gs.groups]
    visits = m ** len(gs.conditioned) * (sum(m ** k for k in sizes) if sizes else 1)
    if visits > DEFAULT_VISIT_BUDGET:
        raise ValueError(f"{m}^{len(gs.conditioned)} * ({' + '.join(f'{m}^{k}' for k in sizes) or 1}) = {visits} "
                         f"exceeds the visit budget {DEFAULT_VISIT_BUDGET}")
    a, b = np.split(np.array(gs.conditioned, dtype=np.intp), [len(gs.conditioned) // 2])
    label = np.array([next((i for i, g in enumerate(gs.groups) if v in g), -1) for v in range(width)])
    cross = np.array(np.nonzero(np.triu((label[:, None] != label) & (label[:, None] >= 0) & (label >= 0))))
    stacks = tuple((np.array([g for g in gs.groups if len(g) == k], dtype=np.intp), Sg, Sg[:len(Sg) - len(Sg) // 2])
                   for k in sorted(set(sizes)) for Sg in [_candidate_grid(levels, k)])
    for arr in (a, b, label, cross, *(x for stack in stacks for x in stack)):
        arr.setflags(write=False)
    Ta, Tb = _candidate_grid(levels, len(a)), _candidate_grid(levels, len(b))
    terms = sum(len(half) * (gi.size + len(gi) * (len(Ta) + len(Tb))) for gi, _, half in stacks)
    place = tuple((sorted(set(sizes)).index(k), sizes[:i].count(k)) for i, k in enumerate(sizes))
    return a, b, Ta, Tb, label, cross, stacks, place, max(1, _TERM_VALUES // max(1, terms)), visits


def _verify_structure(K: np.ndarray, gs: GroupStructure, label: np.ndarray, cross: np.ndarray) -> None:
    """Raise unless no trial's K couples two groups, under the rule of _coupled applied to _plan's cross-group
    pairs l < m alone, in row-major order: K is symmetric, so the first failing trial and pair are the stack's."""
    bad = _coupled(K, cross)
    if bad.any():
        t, p = np.argwhere(bad)[0]
        l, m = cross[:, p]
        dot = abs(K[t, l, m]) / np.sqrt(K[t, l, l]) / np.sqrt(K[t, m, m])
        raise StructureInvalidError(
            f"trial {t} of the batch: groups {gs.groups[label[l]]} and {gs.groups[label[m]]} are not "
            f"orthogonal for this channel (normalized inner product {dot:.3e})")


def _quadratic(T: np.ndarray, Kt: np.ndarray, z: np.ndarray) -> np.ndarray:
    """t^T K t - 2 z^T t for every row t of T and every trial's K, given transposed as Kt (B, n, n), and
    z (B, n): (B, len(T)).  K t - 2 z is held one coordinate per row, (n, B, len(T)), from one GEMM over
    the batch, so the sum over coordinates runs in order."""
    B, n = z.shape
    P = (Kt.swapaxes(0, 1).reshape(n * B, n) @ T.T).reshape(n, B, len(T)) - 2.0 * z.T[..., None]
    P *= T.T[:, None]
    return P.sum(axis=0)


def _stack_terms(K: np.ndarray, z: np.ndarray, a: np.ndarray, Ta: np.ndarray, b: np.ndarray, Tb: np.ndarray,
                 gi: np.ndarray, half: np.ndarray) -> tuple:
    """q, q(s_0) - q and 2 la, 2 lb of a stack gi (ng, k) of same-size groups over the half grid half
    (H, k): (B, ng, H), (B, ng, H), (B, ng, H, len(Ta)) and (B, ng, H, len(Tb)), views of (H, ng, B, ...)
    arrays.  Each is one GEMM over the batch, its operand held group coordinate first, (k, ng, B, ...)."""
    (ng, k), B, H, rows = gi.shape, len(K), len(half), gi.T.ravel()[:, None]
    Kgg = K[np.arange(B)[:, None], gi.T[:, :, None, None], gi[:, None, :]]           # (k, ng, B, k)
    q = ((half @ Kgg.reshape(k, -1)).reshape(H, ng, B, k) * half[:, None, None, :]).sum(axis=-1).T
    la = (K[:, rows, a].swapaxes(0, 1).reshape(gi.size * B, len(a)) @ Ta.T).reshape(k, ng, B, len(Ta))
    la -= z[:, gi].T[..., None]
    lb = K[:, rows, b].swapaxes(0, 1).reshape(gi.size * B, len(b)) @ Tb.T
    la, lb = ((2.0 * half @ l.reshape(k, -1)).reshape(H, ng, B, -1).transpose(2, 1, 0, 3) for l in (la, lb))
    return q, q[..., :1] - q, la, lb


def _decode_block(K: np.ndarray, z: np.ndarray, plan: tuple) -> np.ndarray:
    """Minimize s^T K s - 2 z^T s per trial; (B, n) symbols.

    The conditioned symbols split into a prefix a and a suffix b, so the
    assignment with flat index ia * len(Tb) + ib is Ta[ia] followed by
    Tb[ib] and argmin keeps the lexicographic tie-break.  Each group g, with
    candidate grid Sg, adds the minimum over its candidates s of q(s) + l(s),
    with q(s) = s^T K_gg s and l(s) = 2 (K_ga a + K_gb b - z_g)^T s split
    into an a-part la and a b-part lb, built per stack of same-size groups.

    Sg is the lexicographic grid of an alphabet symmetric about zero, so
    candidate S-1-j is minus candidate j: q is even and l odd, and the
    minimum over such a pair is q(s) - |la(s) + lb(s)|.  The group minimum
    is then built on the first half of Sg only, as q(s_0) - max_j (|la(s_j)
    + lb(s_j)| - d_j), d_j = q(s_j) - q(s_0); q(s_0) is the same for every
    assignment of a trial, so the search over assignments leaves it out.

    Trials go in blocks of about _BLOCK_VALUES assignments, and every pass
    over a block's (trials, len(Ta), len(Tb)) grid is a per-trial matrix
    product or an in-place pass, never a broadcast.  The grid starts as
    [Ta K_ab | Qa | 1] [2 Tb^T ; 1 ; Qb].  Candidate j of a group gives
    [la | 1 | -d_j] [e ; e lb ; 1] = e (la + lb) - d_j for e = 1 and -1,
    the larger of which is |la + lb| - d_j (for j = 0, where d_0 = 0, the
    e = 1 product is taken absolutely), and the grid loses each group's
    largest in the order of gs.groups.  The factors are exact and BLAS adds
    the terms in order, so the grid equals the broadcast sums bit for bit;
    at y = 0 an assignment and its negative add the same products, so their
    tie holds in any order.  A block with room to spare serves several
    groups of a stack in one pass.  Once the assignment is chosen, each
    group's symbols come from an exact argmin over all of Sg: q + l on the
    first half and q - l on the mirrored second half, in grid order.
    """
    a, b, Ta, Tb, _, _, stacks, place = plan[:8]
    B, A, B_ = len(K), len(Ta), len(Tb)
    terms = [_stack_terms(K, z, a, Ta, b, Tb, gi, half) for gi, _, half in stacks]
    Qa = _quadratic(Ta, K[:, a, a[:, None]], z[:, a])                          # (B, A)
    Qb = _quadratic(Tb, K[:, b, b[:, None]], z[:, b])                          # (B, B_)
    Kab = K[:, a[:, None], b].swapaxes(-1, -2)
    step = max(1, _BLOCK_VALUES // (A * B_))
    n = min(step, B)
    block = np.empty((n, A, B_))
    # [Ta K_ab | Qa | 1] (held transposed) and [2 Tb^T ; 1 ; Qb]
    U, V = np.ones((n, len(b) + 2, A)), np.ones((n, len(b) + 2, B_))
    np.multiply(Tb.T, 2.0, out=V[:, :len(b)])
    # per stack, for the groups one pass serves (as many as fit in _BLOCK_VALUES, at least one):
    # each candidate's [la | 1 | -d] (held transposed), [1 ; lb ; 1] and [-1 ; -lb ; 1], and x, y
    passes = []
    for _, neg_d, _, _ in terms:
        ng, H = neg_d.shape[1:]
        per = min(ng, max(1, _BLOCK_VALUES // (n * (3 * H * (A + 2 * B_) + 2 * A * B_))))
        R = np.ones((2, n, 3, per, H, B_))
        R[1, :, 0] = -1.0
        passes.append((per, np.ones((n, 3, per, H, A)), R, *np.empty((2, n, per, A, B_))))
    best = np.zeros(B, dtype=int)       # with nothing conditioned the one assignment is the argmin
    for lo in range(0, B if A * B_ > 1 else 0, step):
        hi = min(lo + step, B)
        t = hi - lo
        np.matmul(Kab[lo:hi], Ta.T, out=U[:t, :len(b)])
        U[:t, -2] = Qa[lo:hi]
        V[:t, -1] = Qb[lo:hi]
        np.matmul(U[:t].swapaxes(-1, -2), V[:t], out=block[:t])
        for si, g in place:
            per, L, R, x, y = passes[si]
            if g % per == 0:
                # x = max_j |la_j + lb_j| - d_j for groups g, g + 1, ... of the stack
                _, neg_d, la, lb = terms[si]
                m = min(per, neg_d.shape[1] - g)
                L[:t, 0, :m] = la[lo:hi, g:g + m]
                L[:t, 2, :m] = neg_d[lo:hi, g:g + m, :, None]
                R[0, :t, 1, :m] = lb[lo:hi, g:g + m]
                np.negative(lb[lo:hi, g:g + m], out=R[1, :t, 1, :m])
                Lj, Rj = L[:t, :, :m].transpose(0, 2, 3, 4, 1), R[:, :t, :, :m].transpose(0, 1, 3, 4, 2, 5)
                xg, yg = x[:t, :m], y[:t, :m]
                np.abs(np.matmul(Lj[:, :, 0], Rj[0, :, :, 0], out=xg), out=xg)
                for j in range(1, neg_d.shape[-1]):
                    for sign in Rj:
                        np.maximum(xg, np.matmul(Lj[:, :, j], sign[:, :, j], out=yg), out=xg)
            block[:t] -= x[:t, g % per]
        best[lo:hi] = block[:t].reshape(t, -1).argmin(axis=1)
    ia, ib = np.divmod(best, B_)
    s = np.empty(K.shape[:2])
    s[:, a] = Ta[ia]
    s[:, b] = Tb[ib]
    trials = np.arange(B)
    for (gi, Sg, _), (q, _, la, lb) in zip(stacks, terms):
        l = la[trials, ..., ia] + lb[trials, ..., ib]                           # (B, ng, H)
        metric = np.concatenate([q + l, (q - l)[..., :len(Sg) // 2][..., ::-1]], axis=-1)
        s[:, gi] = Sg[metric.argmin(axis=-1)]
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

    y, G and pam pass ml_exhaustive's checks (_real_trials and
    _check_symmetric).  What depends only on gs, pam and G's width is
    planned once (_plan), which raises ValueError unless gs partitions the
    columns of G within ml_exhaustive's visit budget, before any grid is
    built.  Returns the symbols and the residual metric ||y - G s||^2
    per trial, shaped like y's batch (a float for a single trial).  Visits
    are per trial: M^|conditioned| * sum_i M^|group_i| candidate
    enumerations, or M^|conditioned| with no groups.  _decode_block takes
    the rows in chunks of _plan's row bound, so memory stays flat in the
    rows; every catalog code takes a channel.BATCH_SIZE batch in one chunk.
    """
    y, G = _real_trials(y, G, batched=True)
    plan = _plan(gs, tuple(pam), G.shape[-1])
    Yb, Gb = y.reshape(-1, y.shape[-1]), G.reshape(-1, *G.shape[-2:])
    Gt = Gb.swapaxes(-1, -2)
    K = Gt @ np.ascontiguousarray(Gb)
    z = (Gt @ Yb[..., None])[..., 0]
    _verify_structure(K, gs, *plan[4:6])
    rows = plan[-2]
    s = np.concatenate([_decode_block(K[lo:lo + rows], z[lo:lo + rows], plan) for lo in range(0, len(K), rows)])
    resid = Yb - (Gb @ s[..., None])[..., 0]
    metric = np.einsum("bi,bi->b", resid, resid)
    if y.ndim == 1:
        return DecodeResult(s[0], float(metric[0]), plan[-1])
    return DecodeResult(s, metric, plan[-1])
