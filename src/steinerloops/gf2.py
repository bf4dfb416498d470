"""GF(2) linear algebra on int bitsets.

Rows are Python ints; bit i of a row is the coefficient of unknown i.
All routines are deterministic: pivots are chosen at the lowest free column.
"""

from __future__ import annotations


def echelonize(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form. Returns (basis rows, pivot columns).

    Basis rows are sorted by pivot column and each pivot column occurs in
    exactly one basis row.
    """
    basis: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for b, p in zip(basis, pivots):
            if (row >> p) & 1:
                row ^= b
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        for i, b in enumerate(basis):
            if (b >> p) & 1:
                basis[i] ^= row
        basis.append(row)
        pivots.append(p)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def rank(rows: list[int], n_cols: int) -> int:
    return len(echelonize(rows, n_cols)[0])


def reduce_vector(vec: int, basis: list[int], pivots: list[int]) -> int:
    """Canonical coset representative of vec modulo span(basis).

    With a reduced echelon basis this zeroes every pivot coordinate, which
    picks the lexicographically least member of the coset (earlier bits are
    more significant).
    """
    for b, p in zip(basis, pivots):
        if (vec >> p) & 1:
            vec ^= b
    return vec


def solve(rows: list[int], rhs: int, n_cols: int) -> int | None:
    """One solution x of the system rows @ x = rhs over GF(2), or None.

    Bit i of rhs is the right-hand side of row i. Works on the augmented
    matrix with the rhs stored at bit n_cols.
    """
    aug = [r | ((rhs >> i) & 1) << n_cols for i, r in enumerate(rows)]
    basis, pivots = echelonize(aug, n_cols + 1)
    x = 0
    for b, p in zip(basis, pivots):
        if p == n_cols:
            return None
        if (b >> n_cols) & 1:
            x |= 1 << p
    return x


def nullspace_basis(rows: list[int], n_cols: int) -> list[int]:
    """Basis of {x : rows @ x = 0}, one vector per non-pivot column."""
    basis, pivots = echelonize(rows, n_cols)
    pivot_set = set(pivots)
    out = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for b, p in zip(basis, pivots):
            if (b >> free) & 1:
                vec |= 1 << p
        out.append(vec)
    return out


def span(vectors: list[int]) -> list[int]:
    """All 2^k members of the span, in deterministic order."""
    out = [0]
    for v in vectors:
        out += [w ^ v for w in out]
    return out


__all__ = [
    "echelonize",
    "rank",
    "reduce_vector",
    "solve",
    "nullspace_basis",
    "span",
]
