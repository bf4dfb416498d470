"""Hot table-scan kernels, one vectorized numpy implementation each. Each
object is scanned once: a SteinerLoop keeps its centre and a TripleSystem
its Pasch scan.

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
    loop is associative iff every entry is True. Candidates z are scanned in
    blocks of k = max(1, 2^12 // n^2): one round of numpy gathers compares
    both sides for all a, b and every z of the block, so each temporary
    holds k n^2 entries, at most 2^12 unless n > 64.

``pasch_census(third)``
    (counts int64[v], closed bool[v]); ``third[a,b]`` is the third point on
    the line a,b. counts[p] is the number of Pasch configurations through
    p, closed[p] is True iff every pair of lines through p closes both ways
    (the Pasch-closure reading of a Veblen point). Each configuration is
    found once, at its least point p, from two lines {p,a,b}, {p,c,d}
    above p: it closes straight into {a,c,e}, {b,d,e} when
    e = third[a,c] > p and third[b,d] = e, and crossed into {a,d,f},
    {b,c,f} when f = third[a,d] > p and third[b,c] = f. Each configuration
    found adds one to the count of each of its six points. The r = (v-1)/2
    lines through a point make r(r-1)/2 pairs, each closing at most two
    ways, so closed is counts == r(r-1).

``fano_planes(third)``
    int32[k, 7], one row per Fano subplane, each plane exactly once. A row
    is (p, a, b, c, d, e, f): p is the least of the seven points, {p,a,b}
    and {p,c,d} are two lines through p, e = third[a,c] = third[b,d],
    f = third[a,d] = third[b,c], and {p,e,f} is the third line through p,
    its lesser point above c. Rows come in increasing p, then c, then a;
    within a row a < b, c < d and a < c, and e, f are not sorted.

Both scans take the pairs of lines above each point from one enumerator. The
lines above p are read off row p of the table, {p, q, third[p,q]} with
p < q < third[p,q], in increasing q, and each is paired with the lines
before it, so pairs come in increasing p, then c, then a. Lines are taken in
consecutive blocks, and the points of a block's pairs are gathered at once
by flat ``take`` on ``third.ravel()``: a block ends with the line whose
pairs pass the next multiple of 2^12, so each int32 temporary holds fewer
than 2^12 + r entries.
"""

from __future__ import annotations

import numpy as np


# entries in each temporary of the block scans: the line pairs of a block of
# lines, or centre candidates per block times n^2; at least one line or
# candidate per block
_BLOCK_ENTRIES = 1 << 12


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
    idx = np.arange(n)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        return 2
    if (np.diagonal(table) != 0).any():
        return 3
    if not np.array_equal(table, table.T):
        return 4
    if not np.array_equal(table[idx[:, None], table], np.broadcast_to(idx, (n, n))):
        return 5
    return 0


def center_mask(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    mask = np.empty(n, dtype=np.bool_)
    step = max(1, _BLOCK_ENTRIES // max(1, n * n))
    for start in range(0, n, step):
        # rows[k, c] = c.z for the block's k-th candidate z
        rows = np.ascontiguousarray(table[:, start : start + step].T)
        # (a.b).z indexed [k, a, b] against a.(b.z) indexed [a, k, b]
        lhs, rhs = rows[:, table], table[:, rows]
        mask[start : start + step] = (lhs == rhs.transpose(1, 0, 2)).all(axis=(1, 2))
    return mask


def _line_pairs(third: np.ndarray):
    """Yield blocks (p, a, b, c, d, e, f, straight, crossed), one entry per
    pair of lines {p,a,b}, {p,c,d} above p as in the module docstring, with
    e = third[a,c], f = third[a,d], and flags for the pairs that close
    straight and crossed into a Pasch configuration with least point p."""
    v = third.shape[0]
    flat = third.ravel()
    idx = np.arange(v, dtype=np.int32)
    # each line {p, q, third[p, q]}, p < q < third[p, q], once, at its least
    # point p, grouped by p, each group in increasing q
    point, first = (x.astype(np.int32) for x in np.nonzero((third > idx) & (idx > idx[:, None])))
    second = third[point, first]
    # line L pairs with the rank[L] lines head[L] .. L-1 above its point, as
    # pairs offset[L] .. offset[L+1]-1
    head = np.searchsorted(point, point).astype(np.int32)
    rank = np.arange(len(point), dtype=np.int32) - head
    offset = np.zeros(len(point) + 1, dtype=np.int32)
    np.cumsum(rank, out=offset[1:])
    shift = offset[:-1] - head

    def block(lo: int, hi: int) -> tuple:
        # in its own frame, so a block's arrays die when the caller drops them
        n = rank[lo:hi]
        lj = np.repeat(np.arange(lo, hi, dtype=np.int32), n)
        li = np.arange(offset[lo], offset[hi], dtype=np.int32) - np.repeat(shift[lo:hi], n)
        p, c, d = point.take(lj), first.take(lj), second.take(lj)
        a, b = first.take(li), second.take(li)
        e, f = flat.take(a * v + c), flat.take(a * v + d)
        straight = (e > p) & (e == flat.take(b * v + d))
        return p, a, b, c, d, e, f, straight, (f > p) & (f == flat.take(b * v + c))

    ends = (np.flatnonzero(np.diff(offset[:-1] // _BLOCK_ENTRIES)) + 1).tolist()
    for lo, hi in zip([0, *ends], [*ends, len(point)]):
        yield block(lo, hi)


def pasch_census(third: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = third.shape[0]
    # float64 so that bincount weights add in place; every count is exact
    counts = np.zeros(v)
    for p, a, b, c, d, e, f, straight, crossed in _line_pairs(third):
        # each configuration adds one to each of its six points
        ways = straight.view(np.int8) + crossed.view(np.int8)
        for points in (p, a, b, c, d):
            counts += np.bincount(points, ways, v)
        counts += np.bincount(e, straight, v) + np.bincount(f, crossed, v)
        del p, a, b, c, d, e, f, straight, crossed  # before the next block is built
    r = (v - 1) // 2
    return counts.astype(np.int64), counts == r * (r - 1)


def fano_planes(third: np.ndarray) -> np.ndarray:
    v = third.shape[0]
    flat = third.ravel()
    found = [np.empty((0, 7), dtype=np.int32)]
    for *row, straight, crossed in _line_pairs(third):
        keep = straight & crossed
        p, a, b, c, d, e, f = (x[keep] for x in row)
        # the seventh line {p,e,f} closes and comes after {p,c,d}: the lines
        # above p come in increasing order of their lesser point
        keep = (flat.take(e * v + f) == p) & (np.minimum(e, f) > c)
        found.append(np.stack([p, a, b, c, d, e, f], axis=1)[keep])
    return np.concatenate(found)
