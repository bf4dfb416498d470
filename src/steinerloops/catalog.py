"""Built-in generators and named fixtures.

Fixture labels follow the package conventions: system points are 0-based,
so a point printed as P_i in the classical presentations appears here as
i - 1, and the hex labels 0..e of the order-15 system map to 0..14 in
reading order.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import _kernels
from .design_core import (
    SteinerLoop,
    TripleSystem,
    _derived_loop,
    are_isomorphic,
)
from .errors import UnknownKey
from .schreier import FactorSystem
from .steiner_operator import LatinSquare


def pg(n: int) -> TripleSystem:
    """Point-line design of the projective space of dimension n over GF(2):
    points are the nonzero (n+1)-bit vectors, lines are the xor-triples, so
    its loop is the group of all (n+1)-bit vectors under xor."""
    if n < 1:
        raise ValueError("projective dimension must be >= 1")
    x = np.arange(1 << (n + 1), dtype=np.int32)
    return _derived_loop(x[:, None] ^ x).system()


def ag(n: int) -> TripleSystem:
    """Point-line design of the affine space of dimension n over GF(3):
    points are base-3 vectors, lines are the zero-sum triples."""
    if n < 1:
        raise ValueError("affine dimension must be >= 1")
    p = np.arange(3**n)
    third = np.zeros((3**n, 3**n), dtype=np.int64)
    for k in range(n):  # digit k of the third point is -(a_k + b_k) mod 3
        digit = p // 3**k % 3
        third += (-(digit[:, None] + digit) % 3) * 3**k
    a, b = np.nonzero((third > p) & (p > p[:, None]))  # each line a < b < c once
    return TripleSystem(3**n, np.stack([a, b, third[a, b]], axis=1))


# order-15 system #2 of the standard enumeration of the 80 order-15 systems
_STS15_2_TRIPLES = (
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (0, 9, 10), (0, 11, 12), (0, 13, 14),
    (1, 3, 5), (1, 4, 6), (1, 7, 9), (1, 8, 10), (1, 11, 13), (1, 12, 14),
    (2, 3, 6), (2, 4, 5), (2, 7, 10), (2, 8, 9), (2, 11, 14), (2, 12, 13),
    (3, 7, 11), (3, 8, 12), (3, 9, 13), (3, 10, 14),
    (4, 7, 12), (4, 8, 11), (4, 9, 14), (4, 10, 13),
    (5, 7, 14), (5, 8, 13), (5, 9, 12), (5, 10, 11),
    (6, 7, 13), (6, 8, 14), (6, 9, 11), (6, 10, 12),
)

# seven-point plane with the labeling used by the worked extension example
_FANO_LABELED_TRIPLES = (
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
)

# nine-point affine plane with the grid labeling of the worked examples
_STS9_LABELED_TRIPLES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7),
    (2, 4, 6), (1, 3, 8), (0, 5, 7),
)

# multiplication table of the order-10 loop of the labeled nine-point system
_STS9_LOOP_TABLE = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    (1, 0, 3, 2, 7, 9, 8, 4, 6, 5),
    (2, 3, 0, 1, 9, 8, 7, 6, 5, 4),
    (3, 2, 1, 0, 8, 7, 9, 5, 4, 6),
    (4, 7, 9, 8, 0, 6, 5, 1, 3, 2),
    (5, 9, 8, 7, 6, 0, 4, 3, 2, 1),
    (6, 8, 7, 9, 5, 4, 0, 2, 1, 3),
    (7, 4, 6, 5, 1, 3, 2, 0, 9, 8),
    (8, 6, 5, 4, 3, 2, 1, 9, 0, 7),
    (9, 5, 4, 6, 2, 1, 3, 8, 7, 0),
)

# chosen symmetric square with identity diagonal for the order-19 doubling
_PHI_11 = (
    (0, 7, 6, 5, 4, 9, 8, 2, 1, 3),
    (7, 0, 5, 6, 2, 8, 9, 4, 3, 1),
    (6, 5, 0, 7, 8, 2, 1, 3, 4, 9),
    (5, 6, 7, 0, 1, 3, 4, 9, 8, 2),
    (4, 2, 8, 1, 0, 5, 3, 7, 9, 6),
    (9, 8, 2, 3, 5, 0, 7, 1, 6, 4),
    (8, 9, 1, 4, 3, 7, 0, 6, 2, 5),
    (2, 4, 3, 9, 7, 1, 6, 0, 5, 8),
    (1, 3, 4, 8, 9, 6, 2, 5, 0, 7),
    (3, 1, 9, 2, 6, 4, 5, 8, 7, 0),
)

# the block forced by _PHI_11 in the order-19 doubling
_PHI_OM1 = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    (8, 9, 6, 4, 3, 7, 2, 5, 0, 1),
    (7, 4, 5, 9, 1, 2, 8, 0, 6, 3),
    (9, 8, 7, 5, 6, 3, 4, 2, 1, 0),
    (4, 7, 8, 6, 0, 9, 3, 1, 2, 5),
    (3, 2, 1, 0, 5, 4, 9, 8, 7, 6),
    (2, 3, 0, 1, 9, 8, 7, 6, 5, 4),
    (1, 0, 3, 2, 7, 6, 5, 4, 9, 8),
    (6, 5, 4, 8, 2, 1, 0, 9, 3, 7),
    (5, 6, 9, 7, 8, 0, 1, 3, 4, 2),
)

# point permutation (465)(789) of the labeled nine-point system, 0-based
_BETA_465_789 = (0, 1, 2, 5, 3, 4, 7, 8, 6)


def _sts13_cyclic() -> TripleSystem:
    """Cyclic order-13 system developed from the base blocks {0,1,4}, {0,2,7}."""
    triples = set()
    for base in ((0, 1, 4), (0, 2, 7)):
        for s in range(13):
            triples.add(tuple(sorted((x + s) % 13 for x in base)))
    return TripleSystem(13, sorted(triples))


def pasch_configurations(s: TripleSystem):
    """All Pasch configurations of s as sorted 4-tuples of triple indices,
    in lexicographic order, each found once, at its least point p: lines
    {p,a,b}, {p,c,d} closed by {a,c,e}, {b,d,e} or by {a,d,f}, {b,c,f}."""
    line = s.pair_triple
    quads = [np.empty((0, 4), dtype=line.dtype)]
    for li, lj, row, straight, crossed in _kernels._line_pairs(s.third_table, s.lines):
        _, a, b, c, d, _, _ = row
        for keep, x, y in ((straight, c, d), (crossed, d, c)):
            quads.append(np.stack([li, lj, line[a, x], line[b, y]], 1)[keep])
    quads = np.sort(np.concatenate(quads), axis=1)
    return list(map(tuple, quads[np.lexsort(quads.T[::-1])].tolist()))


def _pasch_switch(s: TripleSystem, quad) -> TripleSystem:
    """Replace the four triples of a Pasch configuration by its complement:
    swapping the two points of a diagonal (a pair on no line of the
    configuration) yields the unique other cover of the same pairs. The
    diagonal taken is the least point p and the one point on no line with p."""
    config = s.lines[list(quad)]
    p = config.min()
    near = np.zeros(s.v, dtype=np.bool_)
    near[config[(config == p).any(axis=1)]] = True
    q = config[~near[config]][0]
    swap = np.arange(s.v)
    swap[[p, q]] = q, p
    return TripleSystem(s.v, np.concatenate([np.delete(s.lines, quad, axis=0), swap[config]]))


@cache
def _sts13_pair():
    """The cyclic order-13 system and its unique non-isomorphic companion,
    reached deterministically by switching the first Pasch configuration
    that changes the isomorphism type."""
    a = _sts13_cyclic()
    for quad in pasch_configurations(a):
        b = _pasch_switch(a, quad)
        if are_isomorphic(a, b) is None:
            return a, b
    raise RuntimeError("no Pasch switch changed the isomorphism type")


def _f_support(key: str, *support) -> FactorSystem:
    """The t = 1 factor system over the loop of a fixture system that is 1
    exactly on the given triples."""
    s = fixture(key)
    values = np.zeros(s.b, dtype=np.int64)
    values[[s.pair_triple[a, b] for a, b, _ in support]] = 1
    return FactorSystem(s.loop(), 1, values)


# each fixture's provenance and builder
_FIXTURES = {
    "sts15_2": ("built-in: order-15 system #2 of the standard 80-system enumeration",
                lambda: TripleSystem(15, _STS15_2_TRIPLES)),
    "fano_labeled": ("built-in: seven-point plane, labeling of the order-15 extension example",
                     lambda: TripleSystem(7, _FANO_LABELED_TRIPLES)),
    "sts9_labeled": ("built-in: nine-point affine plane, grid labeling of the worked examples",
                     lambda: TripleSystem(9, _STS9_LABELED_TRIPLES)),
    "sts9_loop_table": ("built-in: order-10 loop of the labeled nine-point system",
                        lambda: SteinerLoop(np.array(_STS9_LOOP_TABLE, dtype=np.int32))),
    "phi_11": ("built-in: symmetric identity-diagonal square of the order-19 doubling example",
               lambda: LatinSquare(_PHI_11)),
    "phi_om1": ("built-in: derived off-diagonal block of the order-19 doubling example",
                lambda: LatinSquare(_PHI_OM1)),
    "f_sts15_example": ("built-in: factor system over the labeled plane giving order-15 system #2",
                        lambda: _f_support("fano_labeled", (2, 4, 5), (2, 3, 6))),
    "f1_sts9": ("built-in: factor system over the nine-point system, support on one triple",
                lambda: _f_support("sts9_labeled", (2, 5, 8))),
    "f2_sts9": ("built-in: image of f1_sts9 under the point map (465)(789)",
                lambda: _f_support("sts9_labeled", (2, 3, 7))),
    "beta_465_789": ("built-in: automorphism (465)(789) of the labeled nine-point system",
                     lambda: _BETA_465_789),
    "sts13_a": ("external: cyclic order-13 system from difference base blocks",
                lambda: _sts13_pair()[0]),
    "sts13_b": ("external: the second order-13 system, via a Pasch trade",
                lambda: _sts13_pair()[1]),
}


@cache
def fixture(key: str):
    """Return the named fixture object (cached; all fixtures are immutable)."""
    if key not in _FIXTURES:
        raise UnknownKey(key)
    return _FIXTURES[key][1]()


def fixture_keys():
    return tuple(sorted(_FIXTURES))


def fixture_provenance(key: str) -> str:
    if key not in _FIXTURES:
        raise UnknownKey(key)
    return _FIXTURES[key][0]


__all__ = [
    "pg",
    "ag",
    "fixture",
    "fixture_keys",
    "fixture_provenance",
    "pasch_configurations",
]
