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
    loop is associative iff every entry is True.

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
    come in increasing p; within a row the points are not sorted.
    Temporaries are O(r^2) per point, r = (v-1)/2.
"""

from __future__ import annotations

import numpy as np


# entries in each temporary of the Pasch block scan: points per block times
# line pairs per point, at least one point
_PASCH_BLOCK_ENTRIES = 1 << 12


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
    for z in range(n):
        mask[z] = np.array_equal(table[table, z], table[:, table[:, z]])
    return mask


def pasch_census(third: np.ndarray, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v, r, _ = others.shape
    counts = np.zeros(v, dtype=np.int64)
    closed = np.ones(v, dtype=np.bool_)
    if r < 2:
        return counts, closed
    flat = third.ravel()
    iu, ju = np.triu_indices(r, k=1)
    step = max(1, _PASCH_BLOCK_ENTRIES // len(iu))
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
    # pairs i < j ordered by j, so the pairs among the first k lines are a prefix
    jj, ii = np.tril_indices(r, k=-1)
    line_of = np.zeros(v, dtype=np.intp)
    for p in range(v):
        # p is the least point, so only lines through p above p take part
        lines = others[p][np.minimum(others[p, :, 0], others[p, :, 1]) > p]
        k = len(lines)
        if k < 3:
            continue
        a, b = lines[:, 0], lines[:, 1]
        line_of[a] = line_of[b] = np.arange(k)
        i, j = ii[: k * (k - 1) // 2], jj[: k * (k - 1) // 2]
        e = third[a[i], a[j]]
        f = third[a[i], b[j]]
        keep = (e == third[b[i], b[j]]) & (f == third[b[i], a[j]]) & (e > p) & (f > p)
        i, j, e, f = i[keep], j[keep], e[keep], f[keep]
        # the seventh line {p,e,f} closes and comes after both chosen lines
        keep = (third[e, f] == p) & (line_of[e] > j)
        i, j, e, f = i[keep], j[keep], e[keep], f[keep]
        if len(i):
            p_col = np.full(len(i), p, dtype=np.int32)
            found.append(np.stack([p_col, a[i], b[i], a[j], b[j], e, f], axis=1))
    return np.concatenate(found)
