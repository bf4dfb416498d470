"""Hot table-scan kernels, one vectorized numpy implementation each.

Kernel contracts (n = loop order, v = system order):

``steiner_violation(table)``
    0 if the n x n int32 table is a Steiner loop multiplication table
    (identity 0, exponent two, commutative, totally symmetric), else a
    positive code: 1 shape or range, 2 identity, 3 involution,
    4 commutativity, 5 total symmetry. An empty table has no identity
    element and gets code 2.

``center_mask(table)``
    bool[n]; entry z is True iff (a.b).z == a.(b.z) for all a, b, i.e. z is
    central (for a commutative loop the one identity implies the rest).

``is_associative(table)``
    True iff every element is central, with early exit.

``pasch_census(third, others)``
    (counts int64[v], closed bool[v]). ``others[p]`` lists the (v-1)/2
    point pairs completing the triples through p; ``third[a,b]`` is the
    third point on the line a,b. counts[p] is the number of Pasch
    configurations through p, closed[p] is True iff every pair of triples
    through p closes both ways (the Pasch-closure reading of a Veblen
    point).
"""

from __future__ import annotations

import numpy as np


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


def is_associative(table: np.ndarray) -> bool:
    n = table.shape[0]
    for z in range(n):
        if not np.array_equal(table[table, z], table[:, table[:, z]]):
            return False
    return True


def pasch_census(third: np.ndarray, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v, r, _ = others.shape
    counts = np.zeros(v, dtype=np.int64)
    closed = np.ones(v, dtype=np.bool_)
    if r < 2:
        return counts, closed
    iu, ju = np.triu_indices(r, k=1)
    for p in range(v):
        a = others[p, :, 0]
        b = others[p, :, 1]
        straight = third[a[:, None], a[None, :]] == third[b[:, None], b[None, :]]
        crossed = third[a[:, None], b[None, :]] == third[b[:, None], a[None, :]]
        s = straight[iu, ju]
        c = crossed[iu, ju]
        counts[p] = int(s.sum()) + int(c.sum())
        closed[p] = bool(s.all() and c.all())
    return counts, closed
