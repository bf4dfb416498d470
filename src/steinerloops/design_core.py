"""Steiner triple systems and their totally symmetric loops.

Conventions used throughout the package:

* system points are labeled 0..v-1; triples are stored sorted ascending and
  the triple list is sorted lexicographically;
* the loop carrier is 0..v where 0 is the identity and point i corresponds
  to loop element i + 1, so system and loop determine each other exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, gf2
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


class TripleSystem:
    """A Steiner triple system on points 0..v-1, validated on construction."""

    __slots__ = ("v", "triples", "b", "third_table", "pair_triple", "_loop", "_others", "_hash")

    def __init__(self, v: int, triples):
        if not admissible(v):
            raise NotAdmissible(v)
        norm = []
        for t in triples:
            t = tuple(sorted(int(x) for x in t))
            if len(t) != 3 or len(set(t)) != 3 or t[0] < 0 or t[2] >= v:
                raise BadTriple(t)
            norm.append(t)
        norm.sort()
        third = np.full((v, v), -1, dtype=np.int32)
        pair_triple = np.full((v, v), -1, dtype=np.int32)
        for idx, (a, b, c) in enumerate(norm):
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                if third[x, y] != -1:
                    raise PairDuplicated(x, y)
                third[x, y] = z
                third[y, x] = z
                pair_triple[x, y] = idx
                pair_triple[y, x] = idx
        if len(norm) != v * (v - 1) // 6:
            for x in range(v):
                for y in range(x + 1, v):
                    if third[x, y] == -1:
                        raise PairMissing(x, y)
        third.flags.writeable = False
        pair_triple.flags.writeable = False
        self.v = v
        self.triples = tuple(norm)
        self.b = len(norm)
        self.third_table = third
        self.pair_triple = pair_triple
        self._loop = None
        self._others = None
        self._hash = None

    # -- basic queries -----------------------------------------------------

    def third(self, x: int, y: int) -> int:
        """Third point of the triple through the distinct points x, y."""
        z = int(self.third_table[x, y])
        if z < 0:
            raise ValueError(f"no triple through ({x},{y})")
        return z

    @property
    def others(self) -> np.ndarray:
        """(v, r, 2) array: the point pairs completing each triple through p."""
        if self._others is None:
            v = self.v
            r = (v - 1) // 2
            arr = np.empty((v, r, 2), dtype=np.int32)
            fill = [0] * v
            for a, b, c in self.triples:
                arr[a, fill[a], 0], arr[a, fill[a], 1] = b, c
                arr[b, fill[b], 0], arr[b, fill[b], 1] = a, c
                arr[c, fill[c], 0], arr[c, fill[c], 1] = a, b
                fill[a] += 1
                fill[b] += 1
                fill[c] += 1
            arr.flags.writeable = False
            self._others = arr
        return self._others

    def loop(self) -> "SteinerLoop":
        if self._loop is None:
            self._loop = loop_from_system(self)
        return self._loop

    def relabel(self, perm) -> "TripleSystem":
        """Apply a point permutation (point p goes to perm[p])."""
        return TripleSystem(self.v, [(perm[a], perm[b], perm[c]) for a, b, c in self.triples])

    def __eq__(self, other):
        return (
            isinstance(other, TripleSystem) and self.v == other.v and self.triples == other.triples
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.v, self.triples))
        return self._hash

    def __repr__(self):
        return f"TripleSystem(v={self.v}, b={self.b})"


def validate_system(v: int, triples) -> TripleSystem:
    """Normalize and validate a raw point count + triple list."""
    return TripleSystem(v, triples)


class SteinerLoop:
    """Totally symmetric loop with identity 0, stored as a dense Cayley table.

    The O(n^3) table scans (center, associativity) refuse orders above
    SCAN_ORDER_LIMIT with BoundExceeded.
    """

    __slots__ = ("n", "table", "_system", "_hash")

    def __init__(self, table):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        code = _kernels.steiner_violation(table)
        if code:
            raise NotTotallySymmetric(_VIOLATION_TEXT[code])
        table.flags.writeable = False
        self.n = int(table.shape[0])
        self.table = table
        self._system = None
        self._hash = None

    @property
    def order(self) -> int:
        return self.n

    def mul(self, x: int, y: int) -> int:
        return int(self.table[x, y])

    def _check_scan_order(self) -> None:
        if self.n > SCAN_ORDER_LIMIT:
            raise BoundExceeded(
                f"loop of order {self.n} exceeds the table-scan limit {SCAN_ORDER_LIMIT}"
            )

    def is_associative(self) -> bool:
        self._check_scan_order()
        return _kernels.is_associative(self.table)

    def center(self) -> frozenset:
        """All central elements, identity included."""
        self._check_scan_order()
        mask = _kernels.center_mask(self.table)
        return frozenset(int(i) for i in np.flatnonzero(mask))

    def system(self) -> TripleSystem:
        if self._system is None:
            self._system = system_from_loop(self)
        return self._system

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


def loop_from_system(s: TripleSystem) -> SteinerLoop:
    """The loop of s: x.y is the third point on their line, x.x = 0."""
    n = s.v + 1
    table = np.empty((n, n), dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)
    table[0, :] = idx
    table[:, 0] = idx
    table[1:, 1:] = s.third_table + 1
    table[idx, idx] = 0
    loop = SteinerLoop(table)
    loop._system = s
    return loop


def system_from_loop(loop) -> TripleSystem:
    """Inverse of loop_from_system under the fixed element labeling."""
    if not isinstance(loop, SteinerLoop):
        loop = SteinerLoop(loop)
    n = loop.n
    t = loop.table
    triples = []
    for x in range(1, n):
        for y in range(x + 1, n):
            z = int(t[x, y])
            if z > y:
                triples.append((x - 1, y - 1, z - 1))
    return TripleSystem(n - 1, triples)


# -- subloops, normality, quotients -----------------------------------------


@dataclass(frozen=True)
class Subloop:
    parent: SteinerLoop
    members: frozenset

    @property
    def order(self) -> int:
        return len(self.members)

    def as_loop(self):
        """Relabeled SteinerLoop on 0..|members|-1 plus the relabeling list."""
        order = [0] + sorted(m for m in self.members if m != 0)
        pos = {m: i for i, m in enumerate(order)}
        k = len(order)
        table = np.empty((k, k), dtype=np.int32)
        for i, x in enumerate(order):
            for j, y in enumerate(order):
                table[i, j] = pos[self.parent.mul(x, y)]
        return SteinerLoop(table), order


def _check_subloop(loop: SteinerLoop, members) -> frozenset:
    members = frozenset(int(m) for m in members)
    if 0 not in members:
        raise NotASubloop("identity missing")
    for x in members:
        for y in members:
            if loop.mul(x, y) not in members:
                raise NotASubloop(f"not closed: {x}.{y} escapes")
    return members


def subloop(loop: SteinerLoop, members) -> Subloop:
    return Subloop(loop, _check_subloop(loop, members))


def generated_subloop(loop: SteinerLoop, seed) -> Subloop:
    """Smallest subloop containing the seed elements.

    Each element is processed once against everything known at that moment;
    commutativity makes this cover every pair.
    """
    current = set(int(x) for x in seed) | {0}
    queue = list(current)
    while queue:
        x = queue.pop()
        for y in list(current):
            z = loop.mul(x, y)
            if z not in current:
                current.add(z)
                queue.append(z)
    return Subloop(loop, frozenset(current))


def normality_witness(loop: SteinerLoop, n: Subloop):
    """First (x, y, m) with x.(y.m) outside (x.y).N, or None if normal."""
    members = n.members
    if n.parent is not loop:
        members = _check_subloop(loop, members)
    members = list(members)
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
    members = sorted(n.members)
    epi = [-1] * loop.n
    cosets = []
    for x in range(loop.n):
        if epi[x] != -1:
            continue
        coset = frozenset(loop.mul(x, m) for m in members)
        idx = len(cosets)
        cosets.append(coset)
        for y in coset:
            if epi[y] != -1:
                raise NotNormal("cosets do not partition the carrier")
            epi[y] = idx
    reps = [min(c) for c in cosets]
    k = len(cosets)
    table = np.empty((k, k), dtype=np.int32)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            table[i, j] = epi[loop.mul(a, b)]
    return QuotientLoop(SteinerLoop(table), tuple(cosets), tuple(epi))


def coset_generated_subsystem(loop: SteinerLoop, n: Subloop, x: int) -> Subloop:
    """Subloop on xN and N generated by the nontrivial coset of x."""
    if not is_normal(loop, n):
        raise NotNormal("subloop is not normal")
    if x in n.members:
        raise ElementInsideN(f"element {x} lies in the subloop")
    sub = generated_subloop(loop, set(n.members) | {x})
    expected = frozenset(loop.mul(x, m) for m in n.members) | n.members
    if sub.members != expected or len(sub.members) != 2 * len(n.members):
        raise NotNormal("coset closure is inconsistent")
    return sub


# -- Veblen points and configurations ----------------------------------------


def veblen_points(s: TripleSystem) -> frozenset:
    """Points that are central in the loop of s."""
    center = s.loop().center()
    return frozenset(z - 1 for z in center if z != 0)


def veblen_points_pasch(s: TripleSystem) -> frozenset:
    """Independent route: points through which every pair of triples closes
    into a Pasch configuration."""
    _, closed = _kernels.pasch_census(s.third_table, s.others)
    return frozenset(int(p) for p in np.flatnonzero(closed))


def is_projective_hyperplane(s: TripleSystem, subset) -> bool:
    """True iff the subsystem meets every triple of s."""
    subset = frozenset(int(p) for p in subset)
    for x in subset:
        for y in subset:
            if x < y and s.third(x, y) not in subset:
                raise NotASubsystem(f"pair ({x},{y}) closes outside the subset")
    if len(subset) == s.v:
        return False
    meets_all = all(subset & set(t) for t in s.triples)
    # combinatorially forced: a proper subsystem meets every triple iff it
    # has exactly (v-1)/2 points
    if meets_all != (len(subset) == (s.v - 1) // 2):
        raise AssertionError("hyperplane test disagrees with the subsystem size")
    return meets_all


def hyperplanes(s: TripleSystem) -> tuple:
    """All projective hyperplanes, via GF(2) solutions of the triple sums."""
    rows = [(1 << a) | (1 << b) | (1 << c) for a, b, c in s.triples]
    out = []
    for vec in gf2.span(gf2.nullspace_basis(rows, s.v)):
        if vec == 0:
            continue
        out.append(frozenset(p for p in range(s.v) if not (vec >> p) & 1))
    return tuple(sorted(out, key=sorted))


@dataclass(frozen=True)
class ConfigCensus:
    """Pasch and Fano counts of a system, every field a tuple of Python ints.

    * ``pasch_through[p]``: Pasch configurations through point p;
    * ``fano_through[p]``: Fano subplanes through point p;
    * ``fano_containing_triple[i]``: Fano subplanes containing triple i of
      ``s.triples``;
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
    """Exact Pasch and Fano counts per point and per triple."""
    counts, _ = _kernels.pasch_census(s.third_table, s.others)
    rows = _kernels.fano_planes(s.third_table, s.others)
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
    if not is_normal(loop, t):
        raise NotNormal("triple subloop is not normal")
    if a in t.members:
        raise ElementInsideN(f"element {a} lies in the subloop")
    sub = generated_subloop(loop, set(t.members) | {a})
    return len(sub.members) == 8


# -- isomorphisms -------------------------------------------------------------


def perm_compose(f, g):
    """(f o g)[i] = f[g[i]]."""
    return tuple(f[x] for x in g)


def perm_inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def point_perm_to_loop_perm(pp):
    return (0,) + tuple(p + 1 for p in pp)


def _invariants(s: TripleSystem):
    counts, closed = _kernels.pasch_census(s.third_table, s.others)
    return [(int(c), bool(f)) for c, f in zip(counts, closed)]


def _assignment_order(s: TripleSystem, inv):
    """Static point order: rare invariants first, forced extensions greedily."""
    v = s.v
    freq = {}
    for i in inv:
        freq[i] = freq.get(i, 0) + 1
    free_rank = sorted(range(v), key=lambda p: (freq[inv[p]], p))
    third = s.third_table
    placed = []
    in_place = [False] * v
    steps = []
    while len(placed) < v:
        forced = None
        for p in range(v):
            if in_place[p]:
                continue
            for i in range(len(placed)):
                for j in range(i + 1, len(placed)):
                    if third[placed[i], placed[j]] == p:
                        forced = (p, placed[i], placed[j])
                        break
                if forced:
                    break
            if forced:
                break
        if forced:
            p, a, b = forced
            steps.append(("forced", p, a, b))
        else:
            p = next(q for q in free_rank if not in_place[q])
            steps.append(("free", p, -1, -1))
        placed.append(steps[-1][1])
        in_place[steps[-1][1]] = True
    return steps


def _search_isomorphisms(s1: TripleSystem, s2: TripleSystem, find_all: bool):
    if s1.v != s2.v:
        return []
    v = s1.v
    if v == 1:
        return [(0,)]
    inv1 = _invariants(s1)
    inv2 = _invariants(s2)
    if sorted(inv1) != sorted(inv2):
        return []
    steps = _assignment_order(s1, inv1)
    third1 = s1.third_table
    third2 = s2.third_table
    by_inv = {}
    for q in range(v):
        by_inv.setdefault(inv2[q], []).append(q)
    img = [-1] * v
    pre = [-1] * v
    placed = []
    found = []

    def consistent(p, q):
        for r in placed:
            t = int(third1[p, r])
            u = int(third2[q, img[r]])
            if img[t] != -1:
                if img[t] != u:
                    return False
            elif pre[u] != -1:
                return False
        return True

    def extend(k):
        if k == len(steps):
            found.append(tuple(img))
            return not find_all
        kind, p, a, b = steps[k]
        if kind == "forced":
            q = int(third2[img[a], img[b]])
            candidates = (q,)
        else:
            candidates = by_inv.get(inv1[p], ())
        for q in candidates:
            if pre[q] != -1 or inv2[q] != inv1[p] or not consistent(p, q):
                continue
            img[p] = q
            pre[q] = p
            placed.append(p)
            done = extend(k + 1)
            placed.pop()
            img[p] = -1
            pre[q] = -1
            if done:
                return True
        return False

    extend(0)
    return found


def are_isomorphic(s1: TripleSystem, s2: TripleSystem, bound: int = 31):
    """A point bijection carrying triples to triples, or None."""
    if max(s1.v, s2.v) > bound:
        raise BoundExceeded(f"order {max(s1.v, s2.v)} above isomorphism bound {bound}")
    found = _search_isomorphisms(s1, s2, find_all=False)
    return found[0] if found else None


@dataclass(frozen=True)
class PermGroup:
    order: int
    generators: tuple
    elements: tuple


def _closure(gens, v):
    ident = tuple(range(v))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def automorphisms(s: TripleSystem, bound: int = 31) -> PermGroup:
    """Full automorphism group of s by exhaustive backtracking."""
    if s.v > bound:
        raise BoundExceeded(f"order {s.v} above automorphism bound {bound}")
    elements = sorted(_search_isomorphisms(s, s, find_all=True))
    gens = []
    known = {tuple(range(s.v))}
    for g in elements:
        if g in known:
            continue
        gens.append(g)
        known = _closure(gens, s.v)
    return PermGroup(len(elements), tuple(gens), tuple(elements))
