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

Operator data is checked against (i)-(iv) where it enters (SteinerOperator,
complete_from_blocks, formats.parse_operator). Derived blocks skip the check:
  double_operator: loop table, symmetric square with zero diagonal, row inverse;
  operator_from_extension: products in a checked loop, block (0,0) tested;
  from_factor_system: x + y + f(P,Q), f zero off the triples, one value each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _search, design_core
from .design_core import (
    _ENDS,
    SteinerLoop,
    Subloop,
    TripleSystem,
    _derived_loop,
    quotient,
    system_from_loop,
)
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
    Construction checks conditions (i)-(iv), so every instance is valid;
    double_operator, operator_from_extension and from_factor_system skip the
    check, since their blocks meet them by construction (module docstring)."""

    __slots__ = ("q", "n_loop", "blocks")

    def __init__(self, q: SteinerLoop, n_loop: SteinerLoop, blocks):
        blocks = np.ascontiguousarray(np.asarray(blocks, dtype=np.int32))
        if blocks.shape != (q.n, q.n, n_loop.n, n_loop.n):
            raise ShapeMismatch(
                f"blocks must have shape {(q.n, q.n, n_loop.n, n_loop.n)}, got {blocks.shape}"
            )
        _check_blocks(q.table, n_loop.table, blocks)
        self._build(q, n_loop, blocks)

    def _build(self, q: SteinerLoop, n_loop: SteinerLoop, blocks: np.ndarray) -> None:
        blocks.flags.writeable = False
        self.q, self.n_loop, self.blocks = q, n_loop, blocks

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


def _derived_operator(q: SteinerLoop, n_loop: SteinerLoop, blocks) -> SteinerOperator:
    """The operator of blocks that meet (i)-(iv) by construction, unchecked."""
    op = SteinerOperator.__new__(SteinerOperator)
    op._build(q, n_loop, np.ascontiguousarray(blocks, dtype=np.int32))
    return op


def _extension_table(qt: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The table of (P,x)(Q,y) = (PQ, blocks[P,Q][x,y]) with (P, x)
    flattened to index P*k + x."""
    m, k = blocks.shape[0], blocks.shape[2]
    return (qt[:, :, None, None] * k + blocks).transpose(0, 2, 1, 3).reshape(m * k, m * k)


def _factor_table(f) -> np.ndarray:
    """The (m, m) table of f(P,Q) over the quotient loop elements: each
    triple's value on the six ordered pairs of its loop elements, and 0 on
    the diagonal and the identity row and column."""
    values = np.zeros((f.q.n, f.q.n), dtype=np.int32)
    lines = f.q_system.lines
    ends = lines.take(_ENDS[0], axis=1), lines.take(_ENDS[1], axis=1)
    values[1:, 1:][ends] = np.array(f.values, dtype=np.int32)[:, None]  # point i is element i + 1
    return values


def _schreier_blocks(f) -> np.ndarray:
    """The blocks x + y + f(P,Q) of a factor system f over its 2-group."""
    x = np.arange(1 << f.t, dtype=np.int32)
    return x[:, None] ^ x ^ _factor_table(f)[:, :, None, None]


def build_extension(op: SteinerOperator) -> SteinerLoop:
    """Multiplication table on pairs (P, x) flattened to index P*k + x;
    conditions (i)-(iv), checked when op was built, make it a Steiner loop,
    so it is not checked again."""
    return _derived_loop(_extension_table(op.q.table, op.blocks))


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
    # n_loop comes from n.parent, the blocks from loop: only (i) can break
    if not np.array_equal(blocks[0, 0], n_loop.table):
        raise BadIdentityBlock("block (0,0) is not the subloop table")
    return _derived_operator(ql.loop, n_loop, blocks)


def _row_inverse(block: np.ndarray) -> np.ndarray:
    """Per-row inverse permutation of a Latin block, itself Latin."""
    k = block.shape[0]
    out = np.empty_like(block)
    out[np.arange(k)[:, None], block] = np.arange(k)
    return out


def _latin_block(square, k: int, p: int, r: int) -> np.ndarray:
    """A LatinSquare or array as a k x k int32 block; NotLatin(p, r) if it
    is not one."""
    block = np.asarray(getattr(square, "entries", square), dtype=np.int32)
    if block.shape != (k, k) or not _latin_mask(block):
        raise NotLatin(p, r)
    return block


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
        d = _latin_block(diagonal[p], k, p, p)
        if not np.array_equal(d, d.T):
            raise NotSymmetric(f"diagonal block ({p},{p}) must be symmetric")
        if (np.diagonal(d) != 0).any():
            raise BadDiagonal(f"diagonal block ({p},{p}) must have identity diagonal")
        blocks[p, p] = d
        blocks[p, 0] = _row_inverse(d)
        blocks[0, p] = blocks[p, 0].T
    off = {tuple(key): val for key, val in off.items()}
    for tri in map(tuple, (q.system().lines + 1).tolist()):
        supplied = [key for key in off if set(key) <= set(tri)]
        if len(supplied) != 1:
            raise Incompletable(
                tri[0], tri[1], f"need exactly one supplied block for triple {tri}"
            )
        p, r = supplied[0]
        block = _latin_block(off[(p, r)], k, p, r)
        s = int(qt[p, r])
        blocks[p, r] = block
        blocks[r, p] = block.T
        blocks[p, s] = _row_inverse(block)
        blocks[s, p] = blocks[p, s].T
        blocks[r, s] = _row_inverse(blocks[r, p])
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
    inv = _row_inverse(square.entries)
    q2 = _derived_loop(np.array([[0, 1], [1, 0]], dtype=np.int32))
    return _derived_operator(q2, n_loop, np.array([[n_loop.table, inv.T], [inv, square.entries]]))


def double(n_loop: SteinerLoop, square) -> TripleSystem:
    """STS(2u+1) containing the system of n_loop as a projective hyperplane."""
    return system_from_loop(build_extension(double_operator(n_loop, square)))


def enumerate_symmetric_squares(k: int):
    """All symmetric k x k Latin squares with identity diagonal, streamed in
    lexicographic order of the upper triangle."""
    cells = [(i, j) for i in range(k) for j in range(i + 1, k)]
    yield from _place_squares(cells, 0, np.zeros((k, k), dtype=np.int32), [1] * k)


def _place_squares(cells, idx, grid, used):
    """Every completion of grid from cells[idx] on, free symbols ascending;
    bit s of used[i] is set once row i holds s (bit 0: the diagonal). Not a
    closure, so an enumeration leaves no reference cycle."""
    if idx == len(cells):
        yield LatinSquare(grid.copy())
        return
    i, j = cells[idx]
    free = ~(used[i] | used[j])
    for s in range(1, grid.shape[0]):
        bit = 1 << s
        if not free & bit:
            continue
        grid[i, j] = grid[j, i] = s
        used[i] |= bit
        used[j] |= bit
        yield from _place_squares(cells, idx + 1, grid, used)
        used[i] ^= bit
        used[j] ^= bit
    grid[i, j] = grid[j, i] = 0


@dataclass(frozen=True)
class IsotopyFamily:
    """One carrier permutation per quotient element; the identity element
    carries the identity permutation."""

    maps: tuple

    def __post_init__(self):
        if not self.maps:
            raise ShapeMismatch("isotopy family holds no maps")
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
    if g.shape != (m, k):
        raise ShapeMismatch(f"isotopy family must hold {m} maps of {k} points")
    p = np.arange(m)[:, None, None, None]
    r = np.arange(m)[None, :, None, None]
    x = np.arange(k)[:, None]
    lhs = g[op1.q.table[:, :, None, None], op1.blocks]
    rhs = op2.blocks[p, r, g[p, x], g[r, np.arange(k)]]
    return bool(np.array_equal(lhs, rhs))


def _candidate_maps(op1, op2) -> list:
    """Per quotient element p = 1..m-1, at index p - 1: the maps g that
    carry blocks (p, identity) and (p, p) of op1 to those of op2, as the
    rows of an array in lexicographic order.

    Block (p, identity) is Latin, so g(e1[u, y]) = e2[g(u), y] fixes g once
    g(0) = c is known: row c sends e1[0, y] to e2[c, y], and the rows come
    in the order of c. By condition (iv) block (p, identity) undoes block
    (p, p) row by row, so the rest of both conditions is one check,
    d2[g(x), g(y)] = d1[x, y]. Every p's rows are built with one scatter,
    and the check is one gather over all (p, c) pairs, made in blocks of
    about 2**14 entries (at least one pair) so temporaries stay bounded."""
    m, k = op1.q.n, op1.n_loop.n
    rows = np.empty((m - 1, k, k), dtype=np.int32)
    np.put_along_axis(rows, op1.blocks[1:, 0, :1], op2.blocks[1:, 0], axis=2)
    diag = np.arange(1, m)
    d1, d2 = op1.blocks[diag, diag], op2.blocks[diag, diag]
    g, p = rows.reshape(-1, k), np.repeat(np.arange(m - 1), k)
    ok = np.empty(len(g), dtype=bool)
    step = max(1, (1 << 14) // (k * k))
    for lo in range(0, len(g), step):
        gs, ps = g[lo : lo + step], p[lo : lo + step]
        same = d2[ps[:, None, None], gs[:, :, None], gs[:, None]] == d1[ps]
        ok[lo : lo + step] = same.all(axis=(1, 2))
    return [r[o] for r, o in zip(rows, ok.reshape(m - 1, k))]


def find_equivalence(op1: SteinerOperator, op2: SteinerOperator):
    """Search for an isotopy family turning op1 into op2; None if there is
    none. Every p's candidate maps come from one gather (_candidate_maps).

    The search walks the closure plan of the quotient system (_search.Plan;
    its points are the non-identity quotient elements minus 1). It branches
    only at the plan's direct points, on their candidates in order. A step
    (x, a, c, more) forces g_x from row 0 of block (a, c),
    g_x(B1[a,c][0, w]) = B2[a,c][g_a(0), g_c(w)], and keeps it only if it
    is among x's candidates and carries block (a, c) and each pair of more
    whole; conditions (ii) and (iv) carry a triple's block to its other
    pairs. A forced map follows from direct points below it, so the first
    family found is the lexicographically least. Each placed map, branched
    or forced, is a node; BoundExceeded is raised past
    design_core._NODE_BUDGET nodes."""
    _require_same_frame(op1, op2)
    m, k = op1.q.n, op1.n_loop.n
    cands = _candidate_maps(op1, op2)
    if not all(map(len, cands)):
        return None
    # slicing the table keeps an order-1 quotient working: it has no points
    # and no system
    plan = _search.Plan((op1.q.table[1:, 1:] - 1).tolist(), [0] * (m - 1), range(m - 1))
    known = [set(map(bytes, c)) for c in cands]
    b1, b2 = op1.blocks[1:, 1:], op2.blocks[1:, 1:]
    maps = np.empty((m, k), dtype=np.int32)
    maps[0] = np.arange(k)
    g = maps[1:]  # g[x] is the map of plan point x
    budget = design_core._NODE_BUDGET  # read per call, so a patched value takes effect
    nodes = 0

    def visit():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BoundExceeded("isotopy search exceeded its node budget")

    def holds(x, a, c):
        return np.array_equal(g[x][b1[a, c]], b2[a, c][g[a][:, None], g[c]])

    def place(p, gp):
        """Give direct point p the map gp and walk p's steps; False at the
        first forced map that is no candidate or breaks a block."""
        visit()
        g[p] = gp
        for x, a, c, more in plan.steps[p]:
            visit()
            g[x][b1[a, c, 0]] = b2[a, c, g[a][0]][g[c]]
            if bytes(g[x]) not in known[x] or not all(holds(x, *ac) for ac in ((a, c), *more)):
                return False
        return True

    direct, level = plan.direct, 0
    tries = [iter(cands[p]) for p in direct]  # the untried candidates per level
    while level < len(direct):
        p = direct[level]
        if any(place(p, gp) for gp in tries[level]):  # resumes where it stopped
            level += 1
        elif level == 0:
            return None
        else:
            tries[level] = iter(cands[p])
            level -= 1
    fam = IsotopyFamily(tuple(map(tuple, maps.tolist())))
    if not verify_isotopy_family(op1, op2, fam):
        raise AssertionError("isotopy search returned a family that fails verification")
    return fam


def from_factor_system(f) -> SteinerOperator:
    """The operator of a Schreier extension: block (P,Q) sends (x, y) to
    x + y + f(P,Q) over the elementary abelian carrier."""
    blocks = _schreier_blocks(f)
    return _derived_operator(f.q, _derived_loop(blocks[0, 0]), blocks)
