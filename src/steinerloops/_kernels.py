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

``pasch_census(third, others)``
    (counts int64[v], closed bool[v]). ``others[p]`` lists the (v-1)/2
    point pairs completing the triples through p; ``third[a,b]`` is the
    third point on the line a,b. counts[p] is the number of Pasch
    configurations through p, closed[p] is True iff every pair of triples
    through p closes both ways (the Pasch-closure reading of a Veblen
    point). Points are scanned in blocks: for each block the i < j pairs
    of lines through its points are gathered at once by flat ``take`` on
    ``third.ravel()``, so each temporary holds about 2^12 entries (one
    point's r(r-1)/2 pairs when that is more), r = (v-1)/2.

``fano_planes(third, others)``
    int32[k, 7], one row per Fano subplane, each plane exactly once. A row
    is (p, a, b, c, d, e, f): p is the least of the seven points, {p,a,b}
    and {p,c,d} are two lines through p, e = third[a,c] = third[b,d],
    f = third[a,d] = third[b,c], and {p,e,f} is the third line through p,
    with a larger index in ``others[p]`` than the two chosen lines. Rows
    come in increasing p, then by the index of {p,c,d} in ``others[p]``,
    then by that of {p,a,b}; within a row the points are not sorted. Only
    the k_p lines through p above p take part. Points are scanned in blocks
    of consecutive points; the k_p(k_p-1)/2 pairs of these lines of all
    points in a block are gathered at once by flat ``take``, fewer than
    2^12 pairs plus those of the block's last point. A (v, v) table gives
    each line's index among the lines through its point.
"""

from __future__ import annotations

import numpy as np


# entries in each temporary of the block scans: the line pairs of a block of
# points, or centre candidates per block times n^2; at least one point or
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


def pasch_census(third: np.ndarray, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v, r, _ = others.shape
    counts = np.zeros(v, dtype=np.int64)
    closed = np.ones(v, dtype=np.bool_)
    if r < 2:
        return counts, closed
    flat = third.ravel()
    iu, ju = np.triu_indices(r, k=1)
    step = max(1, _BLOCK_ENTRIES // len(iu))
    for start in range(0, v, step):
        block = others[start : start + step].astype(np.intp)
        a, b = block[..., 0], block[..., 1]
        av, bv = a * v, b * v
        # lines i < j through each point: (a_i, b_i) and (a_j, b_j)
        straight = flat.take(av[:, iu] + a[:, ju]) == flat.take(bv[:, iu] + b[:, ju])
        crossed = flat.take(av[:, iu] + b[:, ju]) == flat.take(bv[:, iu] + a[:, ju])
        counts[start : start + step] = straight.sum(axis=1) + crossed.sum(axis=1)
        closed[start : start + step] = straight.all(axis=1) & crossed.all(axis=1)
    return counts, closed


def fano_planes(third: np.ndarray, others: np.ndarray) -> np.ndarray:
    v, r, _ = others.shape
    found = [np.empty((0, 7), dtype=np.int32)]
    idx = np.arange(v)
    # p is the least point, so only lines through p above p take part; they
    # go first in lines[p], each part keeping the order of others[p]
    above = others.min(axis=2) > idx[:, None]
    lines = np.take_along_axis(others, np.argsort(~above, axis=1, kind="stable")[..., None], 1)
    # position[p, q]: index in lines[p] of the line through p and q
    position = np.zeros((v, v), dtype=np.int32)
    rank = np.broadcast_to(np.arange(r), (v, r))
    position[idx[:, None], lines[..., 0]] = rank
    position[idx[:, None], lines[..., 1]] = rank
    first, second = lines[..., 0].ravel(), lines[..., 1].ravel()
    flat = third.ravel()
    # pairs i < j ordered by j, so the pairs among the first k lines are a prefix
    jj, ii = np.tril_indices(r, k=-1)
    k = above.sum(axis=1)
    count = k * (k - 1) // 2
    offset = np.cumsum(count) - count
    for block in np.split(idx, np.flatnonzero(np.diff(offset // _BLOCK_ENTRIES)) + 1):
        p = np.repeat(block, count[block])
        pair = np.arange(len(p)) - np.repeat(offset[block] - offset[block[0]], count[block])
        li, lj = p * r + ii[pair], p * r + jj[pair]
        a, b, c, d = first.take(li), second.take(li), first.take(lj), second.take(lj)
        e, f = flat.take(a * v + c), flat.take(a * v + d)
        keep = (e > p) & (f > p) & (e == flat.take(b * v + d)) & (f == flat.take(b * v + c))
        p, j, a, b, c, d, e, f = (x[keep] for x in (p, jj[pair], a, b, c, d, e, f))
        # the seventh line {p,e,f} closes and comes after both chosen lines
        keep = (third[e, f] == p) & (position[p, e] > j)
        found.append(np.stack([p, a, b, c, d, e, f], axis=1)[keep].astype(np.int32))
    return np.concatenate(found)
