"""Steiner triple systems and their totally symmetric loops.

Conventions used throughout the package:

* system points are labeled 0..v-1; triples are stored sorted ascending and
  the triple list is sorted lexicographically;
* the loop carrier is 0..v where 0 is the identity and point i corresponds
  to loop element i + 1, so system and loop determine each other exactly.
"""

from __future__ import annotations

import struct
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import _kernels, _search
from .errors import (
    BadTriple,
    BoundExceeded,
    ElementInsideN,
    NotAdmissible,
    NotASubloop,
    NotASubsystem,
    NotNormal,
    NotTotallySymmetric,
    PairDuplicated,
    PairMissing,
)

SCAN_ORDER_LIMIT = 1024

_VIOLATION_TEXT = {
    1: "not a square table with entries in 0..n-1",
    2: "element 0 is not an identity",
    3: "some x.x != identity",
    4: "table is not commutative",
    5: "x.(x.y) = y fails",
}


def admissible(v: int) -> bool:
    """True iff an STS(v) exists, i.e. v == 1 or 3 (mod 6)."""
    return v >= 1 and v % 6 in (1, 3)


def admissible_factorization(n: int, factors) -> bool:
    """True iff n is the product of the given loop orders and every
    factor - 1 is an admissible system order."""
    prod = 1
    for f in factors:
        prod *= f
        if not admissible(f - 1):
            return False
    return prod == n


def _sorted_triple(v: int, t) -> tuple:
    """The labels of the row t as int() reads them, sorted; BadTriple on a
    number that int() would change (1.5, not 1.0) or on a bad triple."""
    t = tuple(t)
    labels = tuple(map(int, t))
    if any(i != x for i, x in zip(labels, t) if not isinstance(x, (str, bytes))):
        raise BadTriple(t, "non-integral point label")
    labels = tuple(sorted(labels))
    if len(labels) != 3 or len(set(labels)) != 3 or labels[0] < 0 or labels[2] >= v:
        raise BadTriple(labels)
    return labels


def _triple_rows(v: int, triples) -> np.ndarray:
    """The triples as a (b, 3) int64 array, rows and labels in input order;
    BadTriple on the first bad triple, its labels sorted. Integer arrays and
    lists of integer rows are read in bulk, anything else one triple at a
    time."""
    triples = triples if isinstance(triples, np.ndarray) else list(triples)
    rows = None
    try:
        if isinstance(triples, np.ndarray):
            if triples.dtype.kind in "biu":  # a float array may hold 1.5
                rows = np.asarray(triples, dtype=np.int64)
        elif set(map(len, triples)) == {3}:  # one read of the labels; "q" takes integers only
            labels = struct.pack(f"{3 * len(triples)}q", *chain.from_iterable(triples))
            rows = np.frombuffer(labels, np.int64).reshape(-1, 3)
    except (TypeError, ValueError, struct.error):  # ragged, empty, not integers or past int64
        pass
    if rows is None or rows.shape[1:] != (3,):  # one triple at a time
        rows = np.array([_sorted_triple(v, t) for t in triples], dtype=np.int64).reshape(-1, 3)
    a, b, c = rows.T
    distinct = ((a != b) & (a != c) & (b != c)).all()
    if rows.min(initial=0) < 0 or rows.max(initial=0) >= v or not distinct:
        rows = np.sort(rows, axis=1)
        bad = (rows[:, 0] < 0) | (rows[:, 2] >= v) | (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        raise BadTriple(rows[bad.argmax()].tolist())
    return rows


# the six orientations (x, y, z) of a row: columns of x, y and z
_ENDS = np.array([[0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1], [2, 1, 2, 0, 1, 0]])


class TripleSystem:
    """A Steiner triple system on points 0..v-1, validated on construction;
    its triples are the rows of the read-only int32 (b, 3) array lines."""

    __slots__ = (
        "v", "lines", "b", "third_table", "_pair_triple", "_triples", "_loop", "_pasch", "_plan",
        "_hash", "_elimination", "_centre", "__weakref__",
    )

    def __init__(self, v: int, triples):
        if not admissible(v):
            raise NotAdmissible(v)
        rows = _triple_rows(v, triples)
        third = np.full((v, v), -1, dtype=np.int32)
        third[rows[:, _ENDS[0]], rows[:, _ENDS[1]]] = rows[:, _ENDS[2]]
        if np.count_nonzero(third >= 0) != 6 * len(rows):
            # a pair is covered twice: report the first one met when the
            # sorted triples are scanned, each through (a,b), (a,c), (b,c)
            rows = np.sort(rows, axis=1)
            rows = rows[np.lexsort(rows.T[::-1])]
            codes = (rows[:, [0, 0, 1]] * v + rows[:, [1, 2, 2]]).ravel()
            order = np.argsort(codes, kind="stable")  # a repeat equals the code before it
            repeat = order[1:][np.diff(codes[order]) == 0].min()
            raise PairDuplicated(*divmod(int(codes[repeat]), v))
        if len(rows) != v * (v - 1) // 6:  # the first uncovered pair in row-major order
            raise PairMissing(*np.argwhere(np.triu(third < 0, 1))[0].tolist())
        self._build(third)

    def _build(self, third: np.ndarray) -> None:
        """Fill every field from the third-point table of a valid system
        (v x v, diagonal -1); nothing is checked here."""
        v = third.shape[0]
        idx = np.arange(v)
        # each triple x < y < z read at its least pair, in lexicographic order
        x, y = np.nonzero((third > idx) & (idx > idx[:, None]))
        lines = np.empty((len(x), 3), dtype=np.int32)
        lines[:, 0], lines[:, 1], lines[:, 2] = x, y, third[x, y]
        third.flags.writeable = lines.flags.writeable = False
        self.v = v
        self.lines = lines
        self.b = len(lines)
        self.third_table = third
        self._pair_triple = self._triples = self._loop = self._pasch = self._plan = None
        self._hash = self._elimination = self._centre = None

    @property
    def pair_triple(self) -> np.ndarray:
        """The read-only int32 (v, v) index into lines of the line through
        each pair, -1 on the diagonal; built on first read."""
        if self._pair_triple is None:
            pair_triple = np.full((self.v, self.v), -1, dtype=np.int32)
            ends = self.lines[:, _ENDS[0]], self.lines[:, _ENDS[1]]
            pair_triple[ends] = np.arange(self.b, dtype=np.int32)[:, None]
            pair_triple.flags.writeable = False
            self._pair_triple = pair_triple
        return self._pair_triple

    @property
    def triples(self) -> tuple:
        """The lines as tuples of ints, built on first access."""
        if self._triples is None:
            self._triples = tuple(map(tuple, self.lines.tolist()))
        return self._triples

    # -- basic queries -----------------------------------------------------

    def third(self, x: int, y: int) -> int:
        """Third point of the triple through the distinct points x, y."""
        _check_range(self.v, "point", x, y)
        z = int(self.third_table[x, y])
        if z < 0:
            raise ValueError(f"no triple through ({x},{y})")
        return z

    def loop(self) -> "SteinerLoop":
        if self._loop is None:
            self._loop = loop_from_system(self)
        return self._loop

    def relabel(self, perm) -> "TripleSystem":
        """Apply a point permutation (point p goes to perm[p])."""
        return TripleSystem(self.v, np.array([perm[p] for p in range(self.v)])[self.lines])

    def __eq__(self, other):  # the third-point table fixes the lines, in order
        return isinstance(other, TripleSystem) and np.array_equal(
            self.third_table, other.third_table
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.third_table.tobytes())
        return self._hash

    def __repr__(self):
        return f"TripleSystem(v={self.v}, b={self.b})"


def validate_system(v: int, triples) -> TripleSystem:
    """Normalize and validate a raw point count + triple list."""
    return TripleSystem(v, triples)


class SteinerLoop:
    """Totally symmetric loop with identity 0, stored as a dense Cayley table,
    validated on construction.

    The O(n^3) table scans (center, associativity) refuse orders above
    SCAN_ORDER_LIMIT with BoundExceeded.
    """

    __slots__ = ("n", "table", "_system", "_source", "_center", "_hash")

    def __init__(self, table):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        code = _kernels.steiner_violation(table)
        if code:
            raise NotTotallySymmetric(_VIOLATION_TEXT[code])
        self._build(table)

    def _build(self, table: np.ndarray) -> None:
        """Fill every field from the int32 table of a Steiner loop; nothing
        is checked here."""
        table.flags.writeable = False
        self.n = int(table.shape[0])
        self.table = table
        self._system = self._source = self._center = self._hash = None

    @property
    def order(self) -> int:
        return self.n

    def mul(self, x: int, y: int) -> int:
        _check_range(self.n, "element", x, y)
        return int(self.table[x, y])

    def is_associative(self) -> bool:
        """True iff every element is central."""
        return len(self.center()) == self.n

    def center(self) -> frozenset:
        """All central elements, identity included; scanned once per loop."""
        if self.n > SCAN_ORDER_LIMIT:
            raise BoundExceeded(
                f"loop of order {self.n} exceeds the table-scan limit {SCAN_ORDER_LIMIT}"
            )
        if self._center is None:
            self._center = frozenset(np.flatnonzero(_kernels.center_mask(self.table)).tolist())
        return self._center

    def system(self) -> TripleSystem:
        # the system this loop was read off, while it lives: weakly held, it
        # shares its Pasch scan and makes no cycle
        s = self._system or self._source and self._source()
        if s is None:
            s = self._system = system_from_loop(self)
        return s

    def __eq__(self, other):
        return (
            isinstance(other, SteinerLoop)
            and self.n == other.n
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.table.tobytes())
        return self._hash

    def __repr__(self):
        return f"SteinerLoop(order={self.n})"


def _check_range(n: int, kind: str, *items) -> None:
    for e in items:
        if not 0 <= e < n:
            raise ValueError(f"{kind} {e} outside 0..{n - 1}")


def _derived_loop(table) -> SteinerLoop:
    """The loop of a table that follows from checked data (a system, a
    Schreier extension, an operator extension, an elementary abelian
    2-group), made without a second check."""
    loop = SteinerLoop.__new__(SteinerLoop)
    loop._build(np.ascontiguousarray(table, dtype=np.int32))
    return loop


def loop_from_system(s: TripleSystem) -> SteinerLoop:
    """The loop of s: x.y is the third point on their line, x.x = 0."""
    # the diagonal -1 of the third-point table becomes the identity 0
    table = np.pad(s.third_table + 1, (1, 0))
    table[0] = table[:, 0] = np.arange(s.v + 1)
    loop = _derived_loop(table)
    loop._source = weakref.ref(s)
    return loop


def system_from_loop(loop: SteinerLoop) -> TripleSystem:
    """Inverse of loop_from_system under the fixed element labeling. The loop
    check already makes x.y the third point of a triple, so the system is
    read off the table without a second check."""
    if not admissible(loop.n - 1):  # the order-1 loop
        raise NotAdmissible(loop.n - 1)
    s = TripleSystem.__new__(TripleSystem)
    s._build(loop.table[1:, 1:] - 1)
    return s


# -- subloops, normality, quotients -----------------------------------------


@dataclass(frozen=True)
class Subloop:
    """A subloop of parent, checked on construction: members hold the
    identity, lie in the carrier and are closed under the product, else
    NotASubloop at the first escape x.y, x and y ascending."""

    parent: SteinerLoop
    members: frozenset

    def __post_init__(self):
        members = frozenset(int(m) for m in self.members)
        if 0 not in members:
            raise NotASubloop("identity missing")
        n = self.parent.n
        outside = sorted(m for m in members if not 0 <= m < n)
        if outside:
            raise NotASubloop(f"elements {outside} outside 0..{n - 1}")
        m = np.array(sorted(members), dtype=np.intp)
        inside = np.zeros(n, dtype=np.bool_)
        inside[m] = True
        escapes = np.argwhere(~inside[self.parent.table[m[:, None], m]])
        if len(escapes):
            i, j = escapes[0]
            raise NotASubloop(f"not closed: {m[i]}.{m[j]} escapes")
        object.__setattr__(self, "members", members)

    @property
    def order(self) -> int:
        return len(self.members)

    def as_loop(self):
        """Relabeled SteinerLoop on 0..|members|-1 plus the relabeling list;
        a subloop of a Steiner loop is one, so its table is not checked."""
        order = [0] + sorted(m for m in self.members if m != 0)
        pos = np.full(self.parent.n, -1, dtype=np.int32)
        pos[order] = np.arange(len(order))
        return _derived_loop(pos[self.parent.table[np.ix_(order, order)]]), order


def _derived_subloop(parent: SteinerLoop, members) -> Subloop:
    """The Subloop of members computed closed (a closure, a centre), unchecked."""
    sub = object.__new__(Subloop)
    object.__setattr__(sub, "parent", parent)
    object.__setattr__(sub, "members", frozenset(members))
    return sub


def subloop(loop: SteinerLoop, members) -> Subloop:
    return Subloop(loop, members)


def generated_subloop(loop: SteinerLoop, seed) -> Subloop:
    """Smallest subloop containing the seed elements: the products of every
    two members are added until nothing new appears."""
    seed = sorted({int(x) for x in seed} | {0})
    outside = [x for x in seed if not 0 <= x < loop.n]
    if outside:
        raise NotASubloop(f"elements {outside} outside 0..{loop.n - 1}")
    inside = np.zeros(loop.n, dtype=np.bool_)
    m = np.array(seed, dtype=np.intp)
    while True:  # 0 is a member, so the products hold every member
        inside[loop.table[m[:, None], m]] = True
        grown = np.flatnonzero(inside)
        if len(grown) == len(m):
            return _derived_subloop(loop, grown.tolist())
        m = grown


def normality_witness(loop: SteinerLoop, n: Subloop):
    """First (x, y, m), m ascending, with x.(y.m) outside (x.y).N, or None if
    normal; a subloop of another loop object is checked against this one."""
    members = sorted((n if n.parent is loop else Subloop(loop, n.members)).members)
    t = loop.table
    in_n = np.zeros(loop.n, dtype=np.bool_)
    in_n[members] = True
    # first[x, y]: position in members of the first m that fails for (x, y).
    # Since w.(w.u) = u, x.(y.m) lies in (x.y).N iff (x.y).(x.(y.m)) lies in N.
    first = np.full(t.shape, len(members), dtype=np.intp)
    for k in range(len(members) - 1, -1, -1):
        x_ym = t[:, t[:, members[k]]]
        first[~in_n[t[t, x_ym]]] = k
    bad = np.flatnonzero(first < len(members))
    if not len(bad):
        return None
    x, y = divmod(int(bad[0]), loop.n)
    return (x, y, members[first[x, y]])


def is_normal(loop: SteinerLoop, n: Subloop) -> bool:
    return normality_witness(loop, n) is None


@dataclass(frozen=True)
class QuotientLoop:
    loop: SteinerLoop
    cosets: tuple
    epi: tuple

    @property
    def order(self) -> int:
        return len(self.cosets)


def quotient(loop: SteinerLoop, n: Subloop) -> QuotientLoop:
    """Factor loop modulo a normal subloop; the coset of the identity is 0."""
    if not is_normal(loop, n):
        raise NotNormal("subloop is not normal")
    return _quotient(loop, n.members)


def _quotient(loop: SteinerLoop, members) -> QuotientLoop:
    """quotient for members already known to form a normal subloop; the
    quotient table is then a Steiner loop and is not checked again."""
    coset_of = loop.table[:, sorted(members)]  # row x is the coset xN
    # a coset is listed at its least element, so cosets come in that order
    reps = np.flatnonzero(coset_of.min(axis=1) == np.arange(loop.n))
    cosets = coset_of[reps]
    if not np.array_equal(np.sort(cosets, axis=None), np.arange(loop.n)):
        raise NotNormal("cosets do not partition the carrier")
    epi = np.empty(loop.n, dtype=np.int32)
    epi[cosets] = np.arange(len(reps))[:, None]
    return QuotientLoop(
        _derived_loop(epi[loop.table[np.ix_(reps, reps)]]),
        tuple(map(frozenset, cosets.tolist())),
        tuple(epi.tolist()),
    )


def coset_generated_subsystem(loop: SteinerLoop, n: Subloop, x: int) -> Subloop:
    """Subloop on xN and N generated by the nontrivial coset of x."""
    if not is_normal(loop, n):
        raise NotNormal("subloop is not normal")
    if x in n.members:
        raise ElementInsideN(f"element {x} lies in the subloop")
    sub = generated_subloop(loop, set(n.members) | {x})
    expected = frozenset(loop.table[x, list(n.members)].tolist()) | n.members
    if sub.members != expected or len(sub.members) != 2 * len(n.members):
        raise NotNormal("coset closure is inconsistent")
    return sub


# -- Veblen points and configurations ----------------------------------------


def veblen_points(s: TripleSystem) -> frozenset:
    """Points that are central in the loop of s."""
    center = s.loop().center()
    return frozenset(z - 1 for z in center if z != 0)


def _pasch(s: TripleSystem):
    """(counts, closed, planes) of the Pasch scan, run once per system."""
    if s._pasch is None:
        s._pasch = _kernels.pasch_census(s.third_table, s.lines)
    return s._pasch


def veblen_points_pasch(s: TripleSystem) -> frozenset:
    """Independent route: points through which every pair of triples closes
    into a Pasch configuration."""
    closed = _pasch(s)[1]
    return frozenset(int(p) for p in np.flatnonzero(closed))


def is_projective_hyperplane(s: TripleSystem, subset) -> bool:
    """True iff the subsystem meets every triple of s."""
    subset = frozenset(int(p) for p in subset)
    outside = sorted(p for p in subset if not 0 <= p < s.v)
    if outside:
        raise NotASubsystem(f"points {outside} outside 0..{s.v - 1}")
    m = np.fromiter(subset, dtype=np.intp, count=len(subset))
    inside = np.zeros(s.v + 1, dtype=np.bool_)
    inside[m] = inside[-1] = True  # the diagonal's -1 reads as inside
    # first pair x < y closing outside, in the subset's iteration order
    escapes = np.argwhere(~inside[s.third_table[m[:, None], m]] & (m[:, None] < m))
    if len(escapes):
        x, y = m[escapes[0]].tolist()
        raise NotASubsystem(f"pair ({x},{y}) closes outside the subset")
    if len(subset) == s.v:
        return False
    out = np.flatnonzero(~inside)  # a missed triple closes two points of out
    meets_all = bool(inside[s.third_table[out[:, None], out]].all())
    # combinatorially forced: a proper subsystem meets every triple iff it
    # has exactly (v-1)/2 points
    if meets_all != (len(subset) == (s.v - 1) // 2):
        raise AssertionError("hyperplane test disagrees with the subsystem size")
    return meets_all


def hyperplanes(s: TripleSystem) -> tuple:
    """All projective hyperplanes, sorted: the kernels of the loop's
    homomorphisms onto Z_2 (_kernels.hyperplane_points)."""
    return tuple(map(frozenset, sorted(_kernels.hyperplane_points(s.third_table).tolist())))


@dataclass(frozen=True)
class ConfigCensus:
    """Pasch and Fano counts of a system, every field a tuple of Python ints.

    * ``pasch_through[p]``: Pasch configurations through point p;
    * ``fano_through[p]``: Fano subplanes through point p;
    * ``fano_containing_triple[i]``: Fano subplanes containing the triple in
      row i of ``s.lines``;
    * ``fano_planes``: every Fano subplane as the sorted 7-tuple of its
      points, the tuples in lexicographic order (tuples, not frozensets, so
      a kept census stays small).
    """

    pasch_through: tuple
    fano_through: tuple
    fano_containing_triple: tuple
    fano_planes: tuple

    @property
    def fano_total(self) -> int:
        return len(self.fano_planes)

    @property
    def pasch_total(self) -> int:
        # each Pasch configuration passes through six points
        return sum(self.pasch_through) // 6


def census(s: TripleSystem) -> ConfigCensus:
    """Exact Pasch and Fano counts per point and per triple, read off the
    system's one Pasch scan."""
    counts, _, rows = _pasch(s)
    # the seven lines of a row (p, a, b, c, d, e, f): pa, pc, pe, ac, bd, ad, bc
    lines = s.pair_triple[rows[:, [0, 0, 0, 1, 2, 1, 2]], rows[:, [1, 3, 5, 3, 4, 4, 3]]]
    planes = np.sort(rows, axis=1)
    planes = planes[np.lexsort(planes.T[::-1])]
    return ConfigCensus(
        tuple(counts.tolist()),
        tuple(np.bincount(planes.ravel(), minlength=s.v).tolist()),
        tuple(np.bincount(lines.ravel(), minlength=s.b).tolist()),
        tuple(map(tuple, planes.tolist())),
    )


def check_normal_triple_fano(loop: SteinerLoop, t: Subloop, a: int) -> bool:
    """A normal order-4 subloop plus any outer element generates a Fano plane."""
    if len(t.members) != 4:
        raise NotASubloop("expected the subloop of a single triple")
    return coset_generated_subsystem(loop, t, a).order == 8


# -- isomorphisms -------------------------------------------------------------


def perm_compose(f, g):
    """(f o g)[i] = f[g[i]]."""
    return tuple(f[x] for x in g)


def point_perm_to_loop_perm(pp):
    return (0,) + tuple(p + 1 for p in pp)


def _invariants(s: TripleSystem):
    counts, closed, _ = _pasch(s)
    return list(zip(counts.tolist(), closed.tolist()))


# nodes a search may visit: the budget of are_isomorphic and automorphisms, a
# node being one candidate placement, and of steiner_operator.find_equivalence,
# a node being one placed map; also the most elements PermGroup.elements
# lists. Each reads it per call, so a patched module value bounds them all
_NODE_BUDGET = 1_000_000


def _search_isomorphisms(s1: TripleSystem, s2: TripleSystem, reject=None):
    """The first point map carrying s1's triples to s2's, or None
    (_search.first_isomorphism, along the closure plan s1 keeps).

    Past _NODE_BUDGET nodes the search raises BoundExceeded. reject is called
    once, at the first failed candidate placement; when it returns True the
    search stops with no map.

    When every point of s1 has one Pasch invariant and s2 is not scanned
    yet, s2's scan waits for the first failed placement: isomorphisms keep
    the invariants and a complete placement is one, so until then the
    search runs as it would on s2's own invariants if they equal s1's. At
    that failure s2 is scanned; invariants other than s1's stop the search
    with no map, within v + 1 nodes, else reject is consulted.
    """
    if s1.v != s2.v:
        return None
    if s1._plan is None:  # kept with the Pasch scan it orders by
        inv = _invariants(s1)
        size = Counter(inv)  # the rarest invariant class first, then ascending
        order = sorted(range(s1.v), key=lambda p: (size[inv[p]], p))
        s1._plan = _search.Plan(s1.third_table.tolist(), inv, order)
    plan = s1._plan
    inv1 = plan.inv
    if s2 is not s1 and s2._pasch is None and len(set(inv1)) == 1:
        inv2, reject = inv1, _scan_on_failure(s2, inv1, reject)
    else:
        inv2 = _invariants(s2)
        if sorted(inv1) != sorted(inv2):
            return None
    third2 = plan.third if s2 is s1 else s2.third_table.tolist()
    return _search.first_isomorphism(plan, third2, inv2, _NODE_BUDGET, reject)


def _scan_on_failure(s2: TripleSystem, inv1: list, reject):
    """The reject of a search that took inv1 for s2's invariants: True when
    s2's own differ, else reject's verdict (False without one)."""
    return lambda: _invariants(s2) != inv1 or (reject is not None and reject())


def _centre(s: TripleSystem):
    """(f, orbit): the factor system f of s's loop over its centre Z, made on
    first use and stored, and the orbit_of_class of classify on f's
    quotient at f.t, stored once classify has returned (None before)."""
    from . import schreier

    if s._centre is None:
        loop = s.loop()
        z = _derived_subloop(loop, loop.center())
        s._centre = (schreier.factor_system_from_extension(loop, z), None)
    return s._centre


def _centre_rejects(s1: TripleSystem, s2: TripleSystem) -> bool:
    """True when the centres Z of the two loops prove the systems
    non-isomorphic; called only once their Pasch invariants agree.

    Z is characteristic, so s1 and s2 are isomorphic iff their quotients by
    Z are, through some gamma, and the factor system of s2, carried through
    gamma onto the quotient of s1, lies in the orbit of that of s1 under
    GL(t,2) x Aut(Q). Decided only for 1 < |Z| < v + 1 and within the
    bounds of classify; otherwise (False) the plain search decides. Each
    system's decomposition over Z and its classification are made once
    (_centre).
    """
    from . import schreier

    closed = int(np.count_nonzero(_pasch(s1)[1]))
    if not 0 < closed < s1.v:
        return False
    try:
        (f1, orbit), (f2, _) = _centre(s1), _centre(s2)
        q1, q2 = f1.q_system, f2.q_system
        gamma = _search_isomorphisms(q1, q2)
        if gamma is None:
            return True
        g = np.asarray(gamma)[q1.lines[:, :2]]
        carried = np.array(f2.values)[q2.pair_triple[g[:, 0], g[:, 1]]]
        if orbit is None:
            orbit = schreier.classify(schreier.ElemAbelian2(f1.t), f1.q).orbit_of_class
            s1._centre = (f1, orbit)
    except BoundExceeded:
        return False
    g2 = schreier.FactorSystem(f1.q, f1.t, carried)
    return orbit[schreier._class_index(f1)] != orbit[schreier._class_index(g2)]


def are_isomorphic(s1: TripleSystem, s2: TripleSystem, bound: int = 31):
    """A point bijection carrying triples to triples, or None.

    BoundExceeded above order bound or past _NODE_BUDGET candidate
    placements. At its first failed placement the search asks the centre
    route (_centre_rejects) whether to stop; maps and verdicts are those of
    the plain search. When every point of s1 has one Pasch invariant, a
    fresh s2 is scanned only at that failure (_search_isomorphisms), so a
    search that never fails never scans it.
    """
    if max(s1.v, s2.v) > bound:
        raise BoundExceeded(f"order {max(s1.v, s2.v)} above isomorphism bound {bound}")
    return _search_isomorphisms(s1, s2, reject=lambda: _centre_rejects(s1, s2))


@dataclass(frozen=True)
class PermGroup:
    """A group of point permutations held as a stabiliser chain.

    transversals[i] holds, for each point of the orbit of base[i] under the
    stabiliser of base[:i], one element sending base[i] there, in ascending
    order of that point. Every element is one product
    transversals[0][j0] o transversals[1][j1] o ..., so order is the product
    of the orbit lengths.
    """

    order: int
    generators: tuple
    base: tuple
    transversals: tuple

    @cached_property
    def elements(self) -> tuple:
        """Every element, sorted, listed off the chain on first access;
        BoundExceeded above _NODE_BUDGET elements."""
        if self.order > _NODE_BUDGET:
            raise BoundExceeded(
                f"group of order {self.order} exceeds the listing budget of {_NODE_BUDGET} elements"
            )
        v = len(self.transversals[0][0])
        rows = np.arange(v)[None]
        for level in reversed(self.transversals):  # u o rows for each u of the level
            rows = np.array(level, dtype=np.int32)[:, rows].reshape(-1, v)
        rows = rows[np.lexsort(rows.T[::-1])]
        return tuple(map(tuple, rows.tolist()))


def automorphisms(s: TripleSystem, bound: int = 31) -> PermGroup:
    """Full automorphism group of s as a stabiliser chain, refused with
    BoundExceeded above order bound or past _NODE_BUDGET search nodes.

    The generators are chosen greedily: the sorted elements, each time the
    first one outside the subgroup generated so far. They are the strong
    generators of the chain (_search.automorphism_chain); no element is listed.
    """
    if s.v > bound:
        raise BoundExceeded(f"order {s.v} above automorphism bound {bound}")
    base, transversals, generators = _search.automorphism_chain(
        s.third_table.tolist(), _invariants(s), _NODE_BUDGET
    )
    order = 1
    for level in transversals:
        order *= len(level)
    return PermGroup(order, generators, base, transversals)
