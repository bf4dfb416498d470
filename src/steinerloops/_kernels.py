"""Hot table-scan kernels, one vectorized numpy implementation each. Each
object is scanned once: a SteinerLoop keeps its centre and a TripleSystem
its Pasch scan, counts and Fano planes together.

Kernel contracts (n = loop order, v = system order):

``steiner_violation(table)``
    0 if the n x n int32 table is a Steiner loop multiplication table
    (identity 0, exponent two, commutative, totally symmetric), else a
    positive code: 1 shape or range, 2 identity, 3 involution,
    4 commutativity, 5 total symmetry. An empty table has no identity
    element and gets code 2.

``center_mask(table)``
    bool[n]; entry z is True iff (a.b).z == a.(b.z) for all a, b, i.e. z is
    central (for a commutative loop the one identity implies the rest). The
    loop is associative iff every entry is True. The rows a = 0, 1, ... are
    taken in rounds, each against the surviving candidates only: a round
    compares both sides for a block of rows, every b and every survivor,
    and drops each z that fails. A round takes as many rows as keep its
    temporaries near 2^14 entries (rows x n x survivors), at least one, so
    a candidate that fails at an early row costs that row, and only a loop
    whose candidates all survive pays every row. Row 0 is compared too: it
    is the identity only in a loop, and the contract holds on any n x n
    table.

``pasch_census(third, lines)``
    (counts int64[v], closed bool[v], planes int32[k, 7]) from one scan of
    the pairs of lines above each point; ``third[a,b]`` is the third point
    on the line a,b and ``lines`` the system's (b, 3) lines, each row
    (p, q, third[p,q]) with p < q < third[p,q], in lexicographic order.
    Each Pasch configuration is found once, at its least point p, from two
    lines {p,a,b}, {p,c,d} above p: it closes straight into {a,c,e},
    {b,d,e} when e = third[a,c] > p and third[b,d] = e, and crossed into
    {a,d,f}, {b,c,f} when f = third[a,d] > p and third[b,c] = f.

    counts[p] is the number of Pasch configurations through p: each one
    found adds one to each of its six points. p, a, b, c and d lie on the
    pair's two lines, so the closings are summed per line and spread onto
    the lines' points at the end (half to p from each of the pair's two
    lines through it); only e and f are counted per pair. closed[p] is True
    iff every pair of lines through p closes both ways (the Pasch-closure
    reading of a Veblen point): the r = (v-1)/2 lines through p make
    r(r-1)/2 pairs, each closing at most two ways, so closed is
    counts == r(r-1).

    planes has one row per Fano subplane, each plane exactly once. A row is
    (p, a, b, c, d, e, f) for a pair that closes both ways and whose
    seventh line {p,e,f} closes (third[e,f] = p) and comes after {p,c,d}
    (its lesser point above c), so p is the least of the seven points.
    Rows come in increasing p, then c, then a; within a row a < b, c < d
    and a < c, and e, f are not sorted. With no subplane (as for v <= 3,
    where no two lines meet above a point) planes has shape (0, 7).

The pairs come from one enumerator, also read by
``catalog.pasch_configurations``. The lines above p are a run of rows of
``lines``, in increasing q, and each is paired with the rows of the run
before it, so pairs come in increasing p, then c, then a. Lines are taken in
consecutive blocks, and the points of a block's pairs are gathered at once
by flat ``take`` on ``third.ravel()`` into one int32 (7, pairs) array of
p, a, b, c, d, e and f: a block ends with the line whose pairs pass the
next multiple of 2^12, so each column and each other temporary holds fewer
than 2^12 + r entries.

``generator_forms(third)``
    (base, form) for the third-point table as nested lists (diagonal -1).
    base holds the points, in natural order, that lie outside the subsystem
    generated by the points before them; base[i] gets form 1 << i, and each
    other point x = third[y][w] gets form[y] ^ form[w] from the pair that
    first reaches it when the table is closed in that order. Every map h
    of the points to Z_2 with h(a) + h(b) + h(c) = 0 on each triple (a
    homomorphism of the Steiner loop onto Z_2) is then fixed by its values
    on base: h(x) is the parity of the base points in form[x] that h sends
    to 1. A proper subsystem has at most (v-1)/2 points, so base has at
    most log2(v+1) points.

``hyperplane_points(third)``
    int[h, (v-1)/2]: one row per projective hyperplane, the points that a
    nonzero homomorphism h onto Z_2 sends to 0, in increasing order, the
    rows in no set order. The homomorphisms are the nonzero vectors g over
    base (``generator_forms``) with an even overlap with form[a] ^ form[b]
    ^ form[c] for every triple, the GF(2) nullspace of the distinct such
    syndromes over len(base) columns; each is read off a parity table of
    size 2^len(base). A nonzero h is onto, so its kernel is a subloop of
    index 2 and every row has (v-1)/2 points.
"""

from __future__ import annotations

import numpy as np

from . import gf2


# entries in each temporary of the line-pair scans: at least one line per block
_BLOCK_ENTRIES = 1 << 12
# entries in each temporary of a centre round: rows x n x survivors, at least
# one row per round
_CENTRE_ENTRIES = 1 << 14


def backend_name() -> str:
    return "numpy"


def steiner_violation(table: np.ndarray) -> int:
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        return 1
    n = table.shape[0]
    if table.min(initial=0) < 0 or table.max(initial=-1) >= n:
        return 1
    if n == 0:
        return 2
    # the shapes agree, so == and all() compare without array_equal's checks
    idx = np.arange(n)
    if not ((table[0] == idx).all() and (table[:, 0] == idx).all()):
        return 2
    if table.diagonal().any():
        return 3
    if not (table == table.T).all():
        return 4
    if not (table[idx[:, None], table] == idx).all():
        return 5
    return 0


def center_mask(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    alive = np.arange(n)
    a = 0
    while a < n and len(alive):
        # cols[c, k] = c.z for the k-th survivor z
        cols = table[:, alive]
        rows = table[a : a + max(1, _CENTRE_ENTRIES // (n * len(alive)))]
        # (a.b).z against a.(b.z), both indexed [a, b, k]
        alive = alive[(cols[rows] == np.take(rows, cols, axis=1)).all(axis=(0, 1))]
        a += len(rows)
    mask = np.zeros(n, dtype=np.bool_)
    mask[alive] = True
    return mask


def _line_pairs(third: np.ndarray, lines: np.ndarray):
    """Yield blocks (li, lj, row, straight, crossed), one entry per pair of
    lines {p,a,b} = lines[li], {p,c,d} = lines[lj] above p as in the module
    docstring: row is the int32 (7, pairs) array of p, a, b, c, d,
    e = third[a,c] and f = third[a,d], and the flags mark the pairs that
    close straight and crossed into a Pasch configuration with least point
    p."""
    v = third.shape[0]
    flat = third.ravel()
    cols = lines.T.copy()  # contiguous columns for take
    point, ends = cols[0], cols[1:]
    # line L pairs with the rank[L] lines head[L] .. L-1 above its point, as
    # pairs offset[L] .. offset[L+1]-1
    head = np.searchsorted(point, np.arange(v, dtype=np.int32)).astype(np.int32).take(point)
    rank = np.arange(len(point), dtype=np.int32) - head
    offset = np.zeros(len(point) + 1, dtype=np.int32)
    np.cumsum(rank, out=offset[1:])
    shift = offset[:-1] - head

    def block(lo: int, hi: int) -> tuple:
        # in its own frame, so a block's arrays die when the caller drops them
        n = rank[lo:hi]
        lj = np.repeat(np.arange(lo, hi, dtype=np.int32), n)
        li = np.arange(offset[lo], offset[hi], dtype=np.int32) - np.repeat(shift[lo:hi], n)
        row = np.empty((7, len(li)), dtype=np.int32)
        p, a, b, c, d, e, f = row
        # every index is in range: "clip" lets take write into row unbuffered
        point.take(lj, out=p, mode="clip")
        ends.take(li, axis=1, out=row[1:3], mode="clip")
        ends.take(lj, axis=1, out=row[3:5], mode="clip")
        av, bv = a * v, b * v
        flat.take(av + c, out=e, mode="clip")
        flat.take(av + d, out=f, mode="clip")
        straight = (e > p) & (e == flat.take(bv + d))
        return li, lj, row, straight, (f > p) & (f == flat.take(bv + c))

    stops = []
    if offset[-1] >= _BLOCK_ENTRIES:
        stops = (np.flatnonzero(np.diff(offset[:-1] // _BLOCK_ENTRIES)) + 1).tolist()
    for lo, hi in zip([0, *stops], [*stops, len(point)]):
        yield block(lo, hi)


def pasch_census(third: np.ndarray, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    v, m = third.shape[0], len(lines)
    flat = third.ravel()
    # float64 so that bincount weights add in place; every count is exact
    on_line, tips = np.zeros(m), np.zeros(v)
    found = [np.empty((0, 7), dtype=np.int32)]
    for li, lj, row, straight, crossed in _line_pairs(third, lines):
        p, c, e, f = row[0], row[3], row[5], row[6]
        ways = straight.view(np.int8) + crossed.view(np.int8)
        on_line += np.bincount(li, ways, m) + np.bincount(lj, ways, m)
        tips += np.bincount(e, straight, v) + np.bincount(f, crossed, v)
        keep = np.flatnonzero(straight & crossed)
        if len(keep):
            # the seventh line {p,e,f} closes and comes after {p,c,d}: the
            # lines above p come in increasing order of their lesser point
            keep = keep[np.minimum(e[keep], f[keep]) > c[keep]]
            keep = keep[flat.take(e[keep] * v + f[keep]) == p[keep]]
            found.append(row[:, keep].T)
        del li, lj, row, p, c, e, f, straight, crossed, ways, keep  # before the next block
    # each pair's closings reach its least point through both of its lines
    counts = tips + np.bincount(lines[:, 0], on_line / 2, v)
    counts += np.bincount(lines[:, 1], on_line, v) + np.bincount(lines[:, 2], on_line, v)
    r = (v - 1) // 2
    return counts.astype(np.int64), counts == r * (r - 1), np.concatenate(found)


def generator_forms(third: list) -> tuple[list, list]:
    v = len(third)
    form, closed = [0] * v, [False] * v
    base, members = [], []
    for g in range(v):
        if closed[g]:
            continue
        form[g] = 1 << len(base)
        base.append(g)
        closed[g] = True
        new = [g]
        while new:
            x = new.pop()
            row, fx = third[x], form[x]
            for y in members:
                z = row[y]
                if not closed[z]:
                    closed[z] = True
                    form[z] = fx ^ form[y]
                    new.append(z)
            members.append(x)
    return base, form


def hyperplane_points(third: np.ndarray) -> np.ndarray:
    v = third.shape[0]
    base, form = generator_forms(third.tolist())
    k = len(base)
    form = np.array(form + [0])  # the diagonal's -1 reads the trailing 0
    # form[a] ^ form[b] ^ form[c] for every pair a, b and c = third[a, b]
    syndromes = form[:v, None] ^ form[:v] ^ form[third]
    parity = np.zeros(1, dtype=np.bool_)
    for _ in range(k):
        parity = np.concatenate([parity, ~parity])
    present = np.flatnonzero(np.bincount(syndromes.ravel(), minlength=1 << k))
    g = np.array(gf2.span(gf2.nullspace_basis(present.tolist(), k))[1:], dtype=np.intp)
    inside = ~parity[form[:v] & g[:, None]]
    return np.nonzero(inside)[1].reshape(len(g), (v - 1) // 2)
