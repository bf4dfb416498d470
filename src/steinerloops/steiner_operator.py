"""General loop extensions through families of Latin squares.

An operator assigns to every ordered pair (P, Q) of quotient elements a
Latin square over the subloop carrier; the extension multiplies pairs by
(P,x)(Q,y) = (PQ, block[P,Q](x,y)). The required block conditions are:

  (i)   block[identity, identity] is the subloop multiplication table,
  (ii)  block[Q,P] is the transpose of block[P,Q],
  (iii) block[P,P] has identity diagonal,
  (iv)  block[P,PQ](x, block[P,Q](x,y)) = y.

A whole operator is determined by its diagonal blocks plus one block per
quotient triple, which is what complete_from_blocks reconstructs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design_core import SteinerLoop, Subloop, TripleSystem, quotient, system_from_loop
from .errors import (
    BadDiagonal,
    BadIdentityBlock,
    BadSection,
    BoundExceeded,
    DiagonalViolation,
    Incompletable,
    NotLatin,
    NotSymmetric,
    OperatorError,
    ShapeMismatch,
    TotalSymmetryViolation,
    TransposeViolation,
    ValidationError,
)


def _latin_mask(arr: np.ndarray) -> np.ndarray:
    """Per square over the last two axes: whether its rows and columns are
    permutations of 0..k-1."""
    idx = np.arange(arr.shape[-1])
    rows = (np.sort(arr, axis=-1) == idx).all(axis=(-2, -1))
    return rows & (np.sort(arr, axis=-2) == idx[:, None]).all(axis=(-2, -1))


def _first(mask: np.ndarray):
    """Index of the first True entry in row-major order, or None."""
    hits = np.argwhere(mask)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


class LatinSquare:
    """Square array whose rows and columns are permutations of 0..n-1."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        arr = np.ascontiguousarray(np.asarray(entries, dtype=np.int32))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("entries must form a square array")
        if not _latin_mask(arr):
            raise ValidationError("rows and columns must be permutations")
        arr.flags.writeable = False
        self.n = int(arr.shape[0])
        self.entries = arr

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.entries, self.entries.T))

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other):
        return isinstance(other, LatinSquare) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self):
        return f"LatinSquare(n={self.n})"


class SteinerOperator:
    """Block family indexed by ordered quotient pairs; blocks is an
    (m, m, k, k) array with m the quotient order and k the subloop order.
    Construction checks conditions (i)-(iv), so every instance is valid."""

    __slots__ = ("q", "n_loop", "blocks")

    def __init__(self, q: SteinerLoop, n_loop: SteinerLoop, blocks):
        blocks = np.ascontiguousarray(np.asarray(blocks, dtype=np.int32))
        if blocks.shape != (q.n, q.n, n_loop.n, n_loop.n):
            raise ShapeMismatch(
                f"blocks must have shape {(q.n, q.n, n_loop.n, n_loop.n)}, got {blocks.shape}"
            )
        _check_blocks(q.table, n_loop.table, blocks)
        blocks.flags.writeable = False
        self.q = q
        self.n_loop = n_loop
        self.blocks = blocks

    def __eq__(self, other):
        return (
            isinstance(other, SteinerOperator)
            and np.array_equal(self.blocks, other.blocks)
            and np.array_equal(self.q.table, other.q.table)
        )

    def __hash__(self):
        return hash(self.blocks.tobytes())

    def __repr__(self):
        return f"SteinerOperator(q_order={self.q.n}, n_order={self.n_loop.n})"


def _check_blocks(qt: np.ndarray, nt: np.ndarray, blocks: np.ndarray) -> None:
    """Conditions (i)-(iv) over the whole block array, one condition at a
    time; raises at the condition's first failing pair in row-major order."""
    m, k = blocks.shape[0], blocks.shape[2]
    idx = np.arange(k)
    hit = _first(~_latin_mask(blocks))
    if hit is not None:
        raise NotLatin(*hit)
    if not np.array_equal(blocks[0, 0], nt):
        raise BadIdentityBlock("block (0,0) is not the subloop table")
    # the mismatch mask is symmetric, so its first hit (p, r) has p <= r
    hit = _first((blocks != blocks.transpose(1, 0, 3, 2)).any(axis=(2, 3)))
    if hit is not None:
        raise TransposeViolation(*hit)
    hit = _first(np.diagonal(blocks[np.arange(m), np.arange(m)], axis1=1, axis2=2).any(axis=1))
    if hit is not None:
        raise DiagonalViolation(*hit)
    # block (P, PQ) undoes block (P, Q) row by row
    back = blocks[np.arange(m)[:, None, None, None], qt[:, :, None, None], idx[:, None], blocks]
    hit = _first((back != idx).any(axis=(2, 3)))
    if hit is not None:
        raise TotalSymmetryViolation(*hit)
    # forced consequence: multiplying by the subloop identity fixes x
    hit = _first((blocks[:, 0, :, 0] != idx).any(axis=1))
    if hit is not None:
        raise AssertionError(f"block ({hit[0]},0) does not fix x under the subloop identity")


def _extension_table(qt: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The table of (P,x)(Q,y) = (PQ, blocks[P,Q][x,y]) with (P, x)
    flattened to index P*k + x."""
    m, k = blocks.shape[0], blocks.shape[2]
    return (qt[:, :, None, None] * k + blocks).transpose(0, 2, 1, 3).reshape(m * k, m * k)


def _schreier_blocks(f) -> np.ndarray:
    """The blocks x + y + f(P,Q) of a factor system f over its 2-group."""
    size = 1 << f.t
    values = np.zeros((f.q.n, f.q.n), dtype=np.int32)
    # pair_triple is -1 on its diagonal, which reads the appended 0: f
    # vanishes on the diagonal as well as on the identity row and column
    values[1:, 1:] = np.array(f.values + (0,), dtype=np.int32)[f.q_system.pair_triple]
    xor = np.bitwise_xor.outer(np.arange(size, dtype=np.int32), np.arange(size, dtype=np.int32))
    return xor ^ values[:, :, None, None]


def build_extension(op: SteinerOperator) -> SteinerLoop:
    """Multiplication table on pairs (P, x) flattened to index P*k + x."""
    return SteinerLoop(_extension_table(op.q.table, op.blocks))


def operator_from_extension(loop: SteinerLoop, n: Subloop, section=None) -> SteinerOperator:
    """Decompose a loop with a normal subloop into a Steiner operator.

    The section maps coset index -> representative element; the default picks
    the least element of each coset, and the identity coset must map to 0.
    """
    ql = quotient(loop, n)
    m = ql.order
    if section is None:
        section = [min(c) for c in ql.cosets]
    section = [int(s) for s in section]
    if len(section) != m or section[0] != 0:
        raise BadSection("section must map the identity coset to 0")
    for i, s in enumerate(section):
        if ql.epi[s] != i:
            raise BadSection(f"representative {s} is not in coset {i}")
    n_loop, order_map = n.as_loop()
    pos = np.full(loop.n, -1, dtype=np.int32)
    pos[order_map] = np.arange(len(order_map))
    lt = loop.table
    reps = np.array(section)
    # block (P, Q) sends (x, y) to s(PQ) . ((s(P) . x) . (s(Q) . y))
    lx = lt[reps[:, None], np.array(order_map)]
    prod = lt[lx[:, None, :, None], lx[None, :, None, :]]
    blocks = pos[lt[reps[ql.loop.table][:, :, None, None], prod]]
    return SteinerOperator(ql.loop, n_loop, blocks)


def _row_inverse(block: np.ndarray, p, r) -> np.ndarray:
    """Per-row inverse permutation; Incompletable if columns break."""
    k = block.shape[0]
    out = np.empty_like(block)
    out[np.arange(k)[:, None], block] = np.broadcast_to(np.arange(k), (k, k))
    if not _latin_mask(out):
        raise Incompletable(p, r)
    return out


def complete_from_blocks(q: SteinerLoop, n_loop: SteinerLoop, diagonal, off) -> SteinerOperator:
    """Rebuild a full operator from its diagonal blocks plus one block per
    quotient triple.

    diagonal maps non-identity quotient elements to their symmetric blocks;
    off maps one ordered pair (P, Q) per quotient triple to that block.
    """
    m, k = q.n, n_loop.n
    qt = q.table
    blocks = np.full((m, m, k, k), -1, dtype=np.int32)
    blocks[0, 0] = n_loop.table
    for p in range(1, m):
        if p not in diagonal:
            raise Incompletable(p, p, "missing diagonal block")
        d = np.asarray(
            diagonal[p].entries if isinstance(diagonal[p], LatinSquare) else diagonal[p],
            dtype=np.int32,
        )
        if d.shape != (k, k) or not _latin_mask(d):
            raise NotLatin(p, p)
        if not np.array_equal(d, d.T):
            raise NotSymmetric(f"diagonal block ({p},{p}) must be symmetric")
        if (np.diagonal(d) != 0).any():
            raise BadDiagonal(f"diagonal block ({p},{p}) must have identity diagonal")
        blocks[p, p] = d
        blocks[p, 0] = _row_inverse(d, p, 0)
        blocks[0, p] = blocks[p, 0].T
    qs = q.system()
    off = {tuple(key): val for key, val in off.items()}
    for a, b, c in qs.triples:
        tri = (a + 1, b + 1, c + 1)
        supplied = [key for key in off if set(key) <= set(tri)]
        if len(supplied) != 1:
            raise Incompletable(
                tri[0], tri[1], f"need exactly one supplied block for triple {tri}"
            )
        p, r = supplied[0]
        block = np.asarray(
            off[(p, r)].entries if isinstance(off[(p, r)], LatinSquare) else off[(p, r)],
            dtype=np.int32,
        )
        if block.shape != (k, k) or not _latin_mask(block):
            raise NotLatin(p, r)
        s = int(qt[p, r])
        blocks[p, r] = block
        blocks[r, p] = block.T
        blocks[p, s] = _row_inverse(block, p, s)
        blocks[s, p] = blocks[p, s].T
        blocks[r, s] = _row_inverse(blocks[r, p], r, s)
        blocks[s, r] = blocks[r, s].T
    if (blocks < 0).any():
        raise Incompletable(0, 0, "blocks left undetermined by the supplied data")
    try:
        return SteinerOperator(q, n_loop, blocks)
    except OperatorError as exc:
        where = getattr(exc, "block", (0, 0))
        raise Incompletable(where[0], where[1], str(exc)) from exc


def double_operator(n_loop: SteinerLoop, square) -> SteinerOperator:
    """Index-two operator built from one symmetric square with identity
    diagonal; the off-diagonal blocks are forced."""
    if not isinstance(square, LatinSquare):
        square = LatinSquare(square)
    if square.n != n_loop.n:
        raise ShapeMismatch("square side must match the subloop order")
    if not square.is_symmetric():
        raise NotSymmetric("doubling square must be symmetric")
    if (np.diagonal(square.entries) != 0).any():
        raise BadDiagonal("doubling square must carry the identity on its diagonal")
    q2 = SteinerLoop(np.array([[0, 1], [1, 0]], dtype=np.int32))
    return complete_from_blocks(q2, n_loop, {1: square}, {})


def double(n_loop: SteinerLoop, square) -> TripleSystem:
    """STS(2u+1) containing the system of n_loop as a projective hyperplane."""
    return system_from_loop(build_extension(double_operator(n_loop, square)))


def enumerate_symmetric_squares(k: int):
    """All symmetric k x k Latin squares with identity diagonal, streamed in
    lexicographic order of the upper triangle."""
    cells = [(i, j) for i in range(k) for j in range(i + 1, k)]
    grid = np.zeros((k, k), dtype=np.int32)
    used = [1] * k  # bit 0: the diagonal identity

    def place(idx):
        if idx == len(cells):
            yield LatinSquare(grid.copy())
            return
        i, j = cells[idx]
        free = ~(used[i] | used[j])
        for s in range(1, k):
            bit = 1 << s
            if not free & bit:
                continue
            grid[i, j] = grid[j, i] = s
            used[i] |= bit
            used[j] |= bit
            yield from place(idx + 1)
            used[i] ^= bit
            used[j] ^= bit
        grid[i, j] = grid[j, i] = 0

    yield from place(0)


@dataclass(frozen=True)
class IsotopyFamily:
    """One carrier permutation per quotient element; the identity element
    carries the identity permutation."""

    maps: tuple

    def __post_init__(self):
        k = len(self.maps[0])
        if tuple(self.maps[0]) != tuple(range(k)):
            raise ValidationError("the identity block permutation must be the identity")
        for g in self.maps:
            if sorted(g) != list(range(k)):
                raise ValidationError("every map must be a bijection of the carrier")

    def __getitem__(self, p: int):
        return self.maps[p]


def _require_same_frame(op1: SteinerOperator, op2: SteinerOperator) -> None:
    if op1.n_loop.n != op2.n_loop.n or not np.array_equal(op1.q.table, op2.q.table):
        raise ShapeMismatch("operators live over different frames")


def verify_isotopy_family(op1: SteinerOperator, op2: SteinerOperator, gamma) -> bool:
    """True iff (gamma_P, gamma_Q, gamma_PQ) is an isotopy between the
    matching blocks for every pair, i.e. (P,x) -> (P, gamma_P(x)) is an
    equivalence of the two extensions."""
    _require_same_frame(op1, op2)
    if not isinstance(gamma, IsotopyFamily):
        gamma = IsotopyFamily(tuple(tuple(g) for g in gamma))
    m, k = op1.q.n, op1.n_loop.n
    g = np.array(gamma.maps, dtype=np.int32)
    p = np.arange(m)[:, None, None, None]
    r = np.arange(m)[None, :, None, None]
    x = np.arange(k)[:, None]
    lhs = g[op1.q.table[:, :, None, None], op1.blocks]
    rhs = op2.blocks[p, r, g[p, x], g[r, np.arange(k)]]
    return bool(np.array_equal(lhs, rhs))


def _candidate_maps(op1, op2, p, node_budget):
    """Bijections g with op2[p,p](g x, g y) = op1[p,p](x, y) and compatible
    with the identity-column blocks, found by backtracking."""
    k = op1.n_loop.n
    d1 = op1.blocks[p, p]
    d2 = op2.blocks[p, p]
    e1 = op1.blocks[p, 0]
    e2 = op2.blocks[p, 0]
    out = []
    g = [-1] * k
    taken = [False] * k

    def ok(x):
        # diagonal block maps straight through (the identity element of the
        # quotient carries the identity permutation)
        for a in range(k):
            if g[a] < 0:
                continue
            if d2[g[x], g[a]] != d1[x, a] or d2[g[a], g[x]] != d1[a, x]:
                return False
        # block (p, identity): g(e1[u, y]) = e2[g(u), y]
        for u in range(k):
            if g[u] < 0:
                continue
            for y in range(k):
                z = int(e1[u, y])
                if g[z] != -1 and e2[g[u], y] != g[z]:
                    return False
        return True

    def rec(x):
        node_budget[0] -= 1
        if node_budget[0] < 0:
            raise BoundExceeded("isotopy search exceeded its node budget")
        if x == k:
            out.append(tuple(g))
            return
        for cand in range(k):
            if taken[cand]:
                continue
            g[x] = cand
            taken[cand] = True
            if ok(x):
                rec(x + 1)
            taken[cand] = False
            g[x] = -1

    rec(0)
    return out


def find_equivalence(op1: SteinerOperator, op2: SteinerOperator, node_bound: int = 1_000_000):
    """Search for an isotopy family turning op1 into op2; None if exhaustive
    search (within the node budget) finds none."""
    _require_same_frame(op1, op2)
    m = op1.q.n
    k = op1.n_loop.n
    qt = op1.q.table
    budget = [node_bound]
    cands = [[tuple(range(k))]]
    for p in range(1, m):
        c = _candidate_maps(op1, op2, p, budget)
        if not c:
            return None
        cands.append(c)
    maps = [None] * m
    maps[0] = np.arange(k, dtype=np.int32)

    def compatible(p):
        # every ordered pair with all three of (x, y, xy) assigned and p
        # among them; this includes the pairs whose product is p, which
        # become checkable only once p itself is placed
        assigned = [a for a in range(m) if maps[a] is not None]
        for x in assigned:
            for y in assigned:
                r = int(qt[x, y])
                if maps[r] is None or p not in (x, y, r):
                    continue
                lhs = maps[r][op1.blocks[x, y]]
                rhs = op2.blocks[x, y][maps[x][:, None], maps[y][None, :]]
                if not np.array_equal(lhs, rhs):
                    return False
        return True

    def rec(p):
        budget[0] -= 1
        if budget[0] < 0:
            raise BoundExceeded("isotopy search exceeded its node budget")
        if p == m:
            return True
        for cand in cands[p]:
            maps[p] = np.array(cand, dtype=np.int32)
            if compatible(p) and rec(p + 1):
                return True
            maps[p] = None
        return False

    if rec(1):
        fam = IsotopyFamily(tuple(tuple(int(x) for x in g) for g in maps))
        if not verify_isotopy_family(op1, op2, fam):
            raise AssertionError("isotopy search returned a family that fails verification")
        return fam
    return None


def from_factor_system(f) -> SteinerOperator:
    """The operator of a Schreier extension: block (P,Q) sends (x, y) to
    x + y + f(P,Q) over the elementary abelian carrier."""
    blocks = _schreier_blocks(f)
    return SteinerOperator(f.q, SteinerLoop(blocks[0, 0]), blocks)
