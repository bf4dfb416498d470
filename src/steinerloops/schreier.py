"""Central extensions of elementary abelian 2-groups by Steiner loops.

A factor system stores one value of the 2-group per triple of the quotient
system; by construction it is symmetric, vanishes on the identity and the
diagonal, and is constant on quotient triples. Two factor systems describe
equivalent extensions iff their sum is a coboundary, which per bit component
is a GF(2) linear system with one equation per quotient triple.

That system's matrix depends on the quotient alone, so its linear algebra is
done once per quotient system and stored on it (_Elimination, made on first
use by _elimination). It gives a consistency set of triples per free triple
of the coboundary basis and a triple set per point: f is a coboundary iff
the XOR of its values over every consistency set is 0, and then phi(p) is
the XOR of its values over p's triple set, all t bits at once. The same
XORs are the digits of f's class index. is_coboundary, are_equivalent,
count_nonequivalent, hom_set and classify all read the stored elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from . import gf2
from .design_core import (
    SteinerLoop,
    Subloop,
    TripleSystem,
    admissible,
    _check_range,
    _derived_loop,
    _quotient,
    automorphisms,
    perm_compose,
    point_perm_to_loop_perm,
)
from .errors import BoundExceeded, NotAdmissible, NotAutomorphism, NotCentral, OrderTooSmall
from .steiner_operator import _extension_table, _factor_table, _schreier_blocks

DEFAULT_TB_BOUND = 24
DEFAULT_CLASS_BOUND = 1 << 16
GL_DIMENSION_BOUND = 4


@dataclass(frozen=True)
class ElemAbelian2:
    """Elementary abelian 2-group of dimension t; elements are t-bit ints."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("dimension must be >= 0")

    @property
    def size(self) -> int:
        return 1 << self.t


class FactorSystem:
    """Factor system over a quotient loop q with values in a 2-group of
    dimension t, stored per canonical triple of the quotient system."""

    __slots__ = ("q", "t", "values", "_qs")

    def __init__(self, q: SteinerLoop, t: int, values):
        qs = q.system()
        values = tuple(int(x) for x in values)
        if len(values) != qs.b:
            raise ValueError(f"expected {qs.b} triple values, got {len(values)}")
        if any(x < 0 or x >> t for x in values):
            raise ValueError("triple value out of range for the 2-group")
        self._build(q, t, values)

    def _build(self, q: SteinerLoop, t: int, values: tuple) -> None:
        """Fill every field from one t-bit int per quotient triple; nothing
        is checked here."""
        self.q, self.t, self.values, self._qs = q, t, values, q.system()

    @property
    def q_system(self) -> TripleSystem:
        return self._qs

    def value(self, p: int, r: int) -> int:
        """f(p, r) for loop elements of the quotient."""
        _check_range(self.q.n, "element", p, r)
        if p == r or p == 0 or r == 0:
            return 0
        return self.values[int(self._qs.pair_triple[p - 1, r - 1])]

    def __add__(self, other: "FactorSystem") -> "FactorSystem":
        _require_frame(self, other, "factor systems")
        return _derived_factor_system(
            self.q, self.t, tuple(a ^ b for a, b in zip(self.values, other.values))
        )

    def __eq__(self, other):
        return (
            isinstance(other, FactorSystem)
            and self.t == other.t
            and self.values == other.values
            and np.array_equal(self.q.table, other.q.table)
        )

    def __hash__(self):
        return hash((self.t, self.values, self.q))

    def __repr__(self):
        return f"FactorSystem(t={self.t}, values={self.values})"


def _derived_factor_system(q: SteinerLoop, t: int, values: tuple) -> FactorSystem:
    """The factor system of t-bit values computed from checked data (a sum,
    a coboundary, an image under a checked automorphism), unchecked."""
    f = FactorSystem.__new__(FactorSystem)
    f._build(q, t, values)
    return f


def _require_frame(a, b, kind: str) -> None:
    """Refuse to add two cochains or factor systems of different dimensions
    or over different quotient tables."""
    if a.t != b.t or a.q is not b.q and not np.array_equal(a.q.table, b.q.table):
        raise ValueError(f"{kind} live over different frames")


def zero_factor_system(n: ElemAbelian2, q: SteinerLoop) -> FactorSystem:
    return FactorSystem(q, n.t, [0] * q.system().b)


@dataclass(frozen=True)
class Cochain1:
    """Map from non-identity quotient elements to the 2-group; the identity
    maps to 0 implicitly. values[j] is the image of loop element j + 1."""

    q: SteinerLoop
    t: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.q.n - 1:
            raise ValueError("cochain must cover every non-identity element")
        if any(x < 0 or x >> self.t for x in self.values):
            raise ValueError("cochain value out of range for the 2-group")

    def at(self, p: int) -> int:
        _check_range(self.q.n, "element", p)
        return 0 if p == 0 else self.values[p - 1]

    def __add__(self, other: "Cochain1") -> "Cochain1":
        _require_frame(self, other, "cochains")
        return Cochain1(self.q, self.t, tuple(a ^ b for a, b in zip(self.values, other.values)))


def coboundary(phi: Cochain1) -> FactorSystem:
    """delta phi: the factor system with triple value phi(x)+phi(y)+phi(z)."""
    a, b, c = np.array(phi.values)[phi.q.system().lines].T
    return _derived_factor_system(phi.q, phi.t, tuple((a ^ b ^ c).tolist()))


def build_schreier(n: ElemAbelian2, q: SteinerLoop, f: FactorSystem) -> SteinerLoop:
    """The extension loop on pairs (P, x) with (P,x)(Q,y) = (PQ, x+y+f(P,Q)).

    Element (P, x) is flattened to index P * 2^t + x, so the copy of the
    2-group occupies indices 0 .. 2^t - 1 and is central by construction.
    f is symmetric, vanishes on the identity and the diagonal and is constant
    on quotient triples, so the table is a Steiner loop and is not checked
    again.
    """
    if f.t != n.t or f.q.n != q.n or not np.array_equal(f.q.table, q.table):
        raise ValueError("factor system does not match the given frame")
    return _derived_loop(_extension_table(q.table, _schreier_blocks(f)))


def factor_system_from_extension(loop: SteinerLoop, z: Subloop) -> FactorSystem:
    """The factor system of loop over loop / Z for a subloop Z of central
    elements; the Schreier analogue of operator_from_extension.

    The section takes the least element of each coset, as quotient lists
    them, and Z gets coordinates from the greedy basis of its sorted members.
    The value on the quotient triple {P, Q, R} is s(R).(s(P).s(Q)), which
    lies in Z. On build_schreier output this returns the input values. Z
    must be proper: the order-1 quotient has no system (NotAdmissible).
    """
    members = (z if z.parent is loop else Subloop(loop, z.members)).members
    outside = sorted(members - loop.center())
    if outside:
        raise NotCentral(f"elements {outside} are not central")
    coord = {0: 0}  # element of Z -> its bits over the basis
    t = 0
    for m in sorted(members):
        if m not in coord:
            coord.update({int(loop.table[m, x]): c | (1 << t) for x, c in list(coord.items())})
            t += 1
    ql = _quotient(loop, members)
    reps = np.array([min(c) for c in ql.cosets])
    qs = ql.loop.system()
    sp, sq, sr = reps[qs.lines + 1].T
    lt = loop.table
    return FactorSystem(ql.loop, t, [coord[x] for x in lt[sr, lt[sp, sq]].tolist()])


def _triple_point_rows(s: TripleSystem) -> list:
    """One GF(2) row per triple; bit j set iff point j lies on the triple."""
    return [(1 << a) | (1 << b) | (1 << c) for a, b, c in s.lines.tolist()]


def _point_planes(s: TripleSystem) -> list:
    """One GF(2) row per point; bit j set iff the point lies on triple j."""
    j = np.arange(s.b)
    packed = np.zeros((s.v, (s.b + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (s.lines, j[:, None] >> 3), (1 << (j[:, None] & 7)).astype(np.uint8))
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(x: int):
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _Elimination:
    """The GF(2) linear algebra of one quotient system of v points and b
    triples, made once by _elimination; it holds no reference to the system.

    The coboundary of the indicator of point p is the b-bit row of the
    triples through p. The v such rows are echelonized once, row p tagged
    with bit b + v - 1 - p, so each basis row's tag names a cochain whose
    coboundary is the row's low b bits. Basis rows whose pivot is a tag are
    the cochains with coboundary 0; the rest give
    * basis, pivots: the reduced coboundary basis (tags dropped) and its
      pivot triples, and free, the other triples in ascending order;
    * class_sets[s]: the consistency set of the free triple free[s], that
      triple and the pivot of every basis row holding it. f's value there
      after reduction modulo the basis is the XOR of f over the set, so f
      is a coboundary iff every such XOR is 0, and they are the digits of
      f's class index;
    * point_sets[p]: the pivot of every basis row whose tag holds p. For a
      coboundary f, the XORs of f over these sets are a phi with
      delta phi = f. The tag-pivot rows span the cochains with coboundary 0,
      and the reversed tag order puts their pivots at the points that are
      free in the echelon form of the triple rows, so this phi is 0 there:
      it is the solution gf2.solve gives per bit.

    kernel is the nullspace basis of the triple rows, one homomorphism to
    GF(2) each, from a second elimination; _class_space checks its rank
    against the first.
    """

    __slots__ = ("basis", "pivots", "free", "class_sets", "point_sets", "kernel")

    def __init__(self, qs: TripleSystem):
        v, b = qs.v, qs.b
        tagged, pivots = gf2.echelonize(
            [plane | 1 << (b + v - 1 - p) for p, plane in enumerate(_point_planes(qs))], b + v
        )
        r = sum(p < b for p in pivots)
        low = (1 << b) - 1
        self.basis = [row & low for row in tagged[:r]]
        self.pivots = pivots[:r]
        pivot_set = set(self.pivots)
        self.free = [j for j in range(b) if j not in pivot_set]
        sets = {j: [j] for j in self.free}
        point_sets = [[] for _ in range(v)]
        for row, p in zip(tagged[:r], self.pivots):
            for j in _bits((row & low) ^ (1 << p)):
                sets[j].append(p)
            for i in _bits(row >> b):
                point_sets[v - 1 - i].append(p)
        self.class_sets = [tuple(sets[j]) for j in self.free]
        self.point_sets = [tuple(s) for s in point_sets]
        self.kernel = gf2.nullspace_basis(_triple_point_rows(qs), v)


def _elimination(qs: TripleSystem) -> _Elimination:
    """The elimination of a quotient system, made on first use and stored."""
    if qs._elimination is None:
        qs._elimination = _Elimination(qs)
    return qs._elimination


def _xor_over(values, cells) -> int:
    """The XOR of values[i] over the indices i in cells."""
    x = 0
    for i in cells:
        x ^= values[i]
    return x


def is_coboundary(f: FactorSystem):
    """A cochain phi with delta phi = f, or None.

    Read off the quotient's stored elimination (_Elimination) for all t bits
    at once: f is a coboundary iff the XOR of its values over every
    consistency set is 0, and then phi(p) is the XOR of its values over
    p's triple set. phi is 0 at the points free in the echelon form of the
    triple rows, the solution gf2.solve gives per bit.
    """
    e = _elimination(f.q_system)
    values = f.values
    if any(_xor_over(values, cells) for cells in e.class_sets):
        return None
    return Cochain1(f.q, f.t, tuple(_xor_over(values, cells) for cells in e.point_sets))


def are_equivalent(f1: FactorSystem, f2: FactorSystem):
    """A cochain realizing the equivalence of the two extensions, or None.

    A returned witness is verified on the quotient, without building either
    extension: (P,x) -> (P, x+phi(P)) is an isomorphism of the two built
    loops iff f1(P,Q) + f2(P,Q) = phi(P) + phi(Q) + phi(PQ) for every pair
    of quotient elements, the x and y parts cancelling. Both sides vanish
    on the identity row and column and on the diagonal, and read the same
    on the six ordered pairs of a triple, so this is f1 + f2 = delta phi.
    """
    diff = f1 + f2
    phi = is_coboundary(diff)
    if phi is None:
        return None
    if coboundary(phi).values != diff.values:
        raise AssertionError("coboundary witness failed to induce an isomorphism")
    return phi


def enumerate_factor_systems(n: ElemAbelian2, q: SteinerLoop, tb_bound: int = DEFAULT_TB_BOUND):
    """All 2^(t*b) factor systems, streamed in ascending bit order."""
    b = q.system().b
    if n.t * b > tb_bound:
        raise BoundExceeded(f"t*b = {n.t * b} exceeds enumeration bound {tb_bound}")
    mask = n.size - 1
    for code in range(1 << (n.t * b)):
        yield FactorSystem(q, n.t, [(code >> (i * n.t)) & mask for i in range(b)])


def hom_set(q: SteinerLoop, n: ElemAbelian2):
    """All loop homomorphisms from q into the 2-group, as tuples indexed by
    loop element (identity included at index 0); refused, before any is
    listed, when they number more than DEFAULT_CLASS_BOUND."""
    qs = q.system()
    kernel = _elimination(qs).kernel
    count = 1 << (len(kernel) * n.t)
    if count > DEFAULT_CLASS_BOUND:
        raise BoundExceeded(f"{count} homomorphisms exceed bound {DEFAULT_CLASS_BOUND}")
    # bit plane k of a homomorphism is a member of the kernel's span, in
    # every combination: bits[j, i] is bit i of member j, and combination c
    # takes member (c >> k * dim) & mask for plane k. Values stay below 2^16:
    # a t of 17 or more passes the bound only with no plane but 0
    dim, width = len(kernel), (qs.v + 7) // 8
    span = b"".join(x.to_bytes(width, "little") for x in gf2.span(kernel))
    bits = np.unpackbits(np.frombuffer(span, dtype=np.uint8), bitorder="little")
    bits = bits.reshape(1 << dim, 8 * width)[:, : qs.v].astype(np.uint16)
    combos, mask = np.arange(count), (1 << dim) - 1
    homs = np.zeros((count, qs.v + 1), dtype=np.uint16)
    for k in range(n.t):
        homs[:, 1:] |= bits[(combos >> k * dim) & mask] << k
    # converted a block at a time, so one block's lists sit beside the tuples
    return sorted(tuple(h) for i in range(0, count, 4096) for h in homs[i : i + 4096].tolist())


def _class_space(n: ElemAbelian2, q: SteinerLoop):
    """(basis, pivots, |Hom(q, n)|): the coboundary basis and pivots, and the
    homomorphism count 2^(tk), k the dimension of the kernel of the triple
    rows, all read off the stored elimination. Checked two ways, the two
    ranks coming from its two eliminations: the class count 2^(t(b-r))
    against the closed form 2^(tb) / (2^(tw) / |Hom|), and the rank r of the
    coboundary basis against the rank w - k of the triple rows."""
    qs = q.system()
    e = _elimination(qs)
    t, b, w = n.t, qs.b, qs.v
    r, k = len(e.basis), len(e.kernel)
    hom_count = 1 << (t * k)
    if 1 << (t * (b - r + w)) != (1 << (t * b)) * hom_count:
        raise AssertionError("class count disagrees with the homomorphism count")
    if r != w - k:
        raise AssertionError("coboundary rank disagrees with the rank of the triple rows")
    return e.basis, e.pivots, hom_count


def _class_index(f: FactorSystem) -> int:
    """The index of f's equivalence class in classify's class list: f's
    XORs over the consistency sets are its values, reduced modulo the
    coboundaries, on the free triples, the first the most significant."""
    index = 0
    for cells in _elimination(f.q_system).class_sets:
        index = (index << f.t) | _xor_over(f.values, cells)
    return index


def count_nonequivalent(n: ElemAbelian2, q: SteinerLoop) -> int:
    """Number of equivalence classes of extensions, checked two ways."""
    basis, _, _ = _class_space(n, q)
    return 1 << (n.t * (q.system().b - len(basis)))


def gl2_elements(t: int) -> tuple:
    """All automorphisms of the 2-group as element permutations, sorted;
    built once per t, and refused for t above GL_DIMENSION_BOUND."""
    if t > GL_DIMENSION_BOUND:
        raise BoundExceeded(f"GL enumeration limited to dimension {GL_DIMENSION_BOUND}")
    return _gl2(t)


@cache
def _gl2(t: int) -> tuple:
    if t == 0:
        return ((0,),)
    # span lists the XOR of cols[i] over the bits i of x at position x
    return tuple(sorted(
        tuple(gf2.span(list(cols)))
        for cols in product(range(1 << t), repeat=t)
        if gf2.rank(list(cols), t) == t
    ))


def _check_alpha(alpha, t: int):
    size = 1 << t
    if len(alpha) != size or sorted(alpha) != list(range(size)):
        raise NotAutomorphism("alpha is not a permutation of the 2-group")
    a, x = np.asarray(alpha), np.arange(size)
    if not np.array_equal(a[x[:, None] ^ x], a[:, None] ^ a):
        raise NotAutomorphism("alpha is not additive")


def _check_beta(beta, q: SteinerLoop):
    if len(beta) != q.n or sorted(beta) != list(range(q.n)) or beta[0] != 0:
        raise NotAutomorphism("beta is not a loop permutation fixing the identity")
    b = np.asarray(beta)
    if not np.array_equal(b[q.table], q.table[b[:, None], b]):
        raise NotAutomorphism("beta does not preserve the quotient multiplication")


def _triple_dest(qs: TripleSystem, beta) -> list:
    """dest[j]: the triple onto which the loop automorphism beta maps triple j."""
    point = np.asarray(beta[1:]) - 1  # beta on the points
    return qs.pair_triple[point[qs.lines[:, 0]], point[qs.lines[:, 1]]].tolist()


def apply_aut(f: FactorSystem, alpha, beta) -> FactorSystem:
    """The left action (alpha, beta) . f = alpha o f o (beta^-1 x beta^-1):
    the value x on triple j becomes alpha[x] on triple beta(j)."""
    _check_alpha(alpha, f.t)
    _check_beta(beta, f.q)
    out = [0] * len(f.values)
    for j, d in enumerate(_triple_dest(f.q_system, beta)):
        out[d] = int(alpha[f.values[j]])
    return _derived_factor_system(f.q, f.t, tuple(out))


def _cocycle_at(values: np.ndarray, qt: np.ndarray, p: int) -> bool:
    """f(P,QR)+f(Q,R) = f(PQ,R)+f(P,Q) for P = p and every Q, R, given the
    (m, m) table of f and the quotient table."""
    return bool(np.array_equal(values[p, qt] ^ values, values[qt[p]] ^ values[p][:, None]))


def further_veblen(f: FactorSystem) -> frozenset:
    """Quotient elements P such that every (P, x) is central in the built
    extension: P central in the quotient and f(P,Q)+f(PQ,R) = f(Q,R)+f(P,QR)."""
    values = _factor_table(f)
    return frozenset(p for p in f.q.center() if p and _cocycle_at(values, f.q.table, p))


def associativity_condition(f: FactorSystem) -> bool:
    """True iff the quotient is associative and f(P,QR)+f(Q,R) =
    f(PQ,R)+f(P,Q) everywhere, i.e. the built extension is associative."""
    if not f.q.is_associative():
        return False
    values = _factor_table(f)
    return all(_cocycle_at(values, f.q.table, p) for p in range(f.q.n))


def veblen_existence(v: int, t: int) -> bool:
    """Whether some STS(v) has at least 2^t - 1 Veblen points (t >= 1)."""
    if not admissible(v):
        raise NotAdmissible(v)
    if t < 1:
        raise ValueError("t must be >= 1")
    if (v + 1) % (1 << t):
        return False
    return ((v + 1) >> t) % 6 in (2, 4)


def projectivity_threshold(v: int) -> int:
    """Veblen count above which an STS(v) must be projective."""
    if not admissible(v):
        raise NotAdmissible(v)
    if v < 7:
        raise OrderTooSmall(f"threshold needs v >= 7, got {v}")
    return (v - 7) // 8


@dataclass(frozen=True)
class ClassificationReport:
    t: int
    q_order: int
    b: int
    total: int
    hom_count: int
    b2_count: int
    equivalence_class_count: int
    isomorphism_class_count: int
    class_reps: tuple
    orbit_of_class: tuple
    orbit_reps: tuple
    witnesses: tuple


def _class_action(q: SteinerLoop, t: int):
    """(gens, images): the generators (alpha, 1), alpha != 1 in GL(t,2), and
    (1, beta), beta generating Aut(q), and each one's image of every class
    index. Both kinds come from the library (gl2_elements, automorphisms),
    so neither is checked.

    Bits t * s .. t * s + t - 1 of a class index hold the value on free
    triple free[-1 - s]. The action is GF(2)-linear, so the images of
    the unit indices span a generator's image. (alpha, beta) sends 1 << c on
    free triple j to alpha[1 << c] on triple dest[j], the class with index
    alpha[1 << c] * unit_class[dest[j]]: unit_class[i] has the lowest bit of
    each free triple whose consistency set holds i, the free values left by
    reducing the unit plane of triple i, and the product never carries since
    alpha[x] < 2^t.
    """
    qs = q.system()
    e = _elimination(qs)
    if not t * len(e.free):  # a single class leaves nothing to act on
        return [], []
    id_a, id_b = tuple(range(1 << t)), tuple(range(q.n))
    gens = [(a, id_b) for a in gl2_elements(t) if a != id_a]
    gens += [(id_a, point_perm_to_loop_perm(g)) for g in automorphisms(qs).generators]
    unit_class = [0] * qs.b
    for s, cells in enumerate(reversed(e.class_sets)):
        for i in cells:
            unit_class[i] |= 1 << (t * s)
    images = []
    for alpha, beta in gens:
        # every GL(t,2) generator carries the identity beta, which fixes
        # each triple
        dest = range(qs.b) if beta is id_b else _triple_dest(qs, beta)
        units = [unit_class[dest[j]] * alpha[1 << c] for j in reversed(e.free) for c in range(t)]
        images.append(gf2.span(units))
    return gens, images


def classify(
    n: ElemAbelian2, q: SteinerLoop, tb_bound: int = DEFAULT_TB_BOUND
) -> ClassificationReport:
    """Equivalence classes (cosets of the coboundary group) and isomorphism
    classes (orbits of the automorphism action on those cosets); refused
    when t*b exceeds tb_bound or the classes number more than
    DEFAULT_CLASS_BOUND."""
    qs = q.system()
    t, b = n.t, qs.b
    if t * b > tb_bound:
        raise BoundExceeded(f"t*b = {t * b} exceeds enumeration bound {tb_bound}")
    basis, _, hom_count = _class_space(n, q)
    r = len(basis)
    eq_count = 1 << (t * (b - r))
    if eq_count > DEFAULT_CLASS_BOUND:
        raise BoundExceeded(f"{eq_count} equivalence classes exceed bound {DEFAULT_CLASS_BOUND}")

    # Pivot coordinates of a class representative are 0, so product() lists
    # the representatives in sorted order and the bits of index i are the
    # free triple values of class i.
    free = _elimination(qs).free
    reps = []
    for combo in product(range(n.size), repeat=len(free)):
        vals = [0] * b
        for pos, val in zip(free, combo):
            vals[pos] = val
        reps.append(tuple(vals))

    if t > GL_DIMENSION_BOUND:
        # every witness carries an alpha with 2^t entries
        raise BoundExceeded(f"GL enumeration limited to dimension {GL_DIMENSION_BOUND}")
    id_a, id_b = tuple(range(n.size)), tuple(range(q.n))
    gens, images = _class_action(q, t)

    orbit_of = [-1] * len(reps)
    witnesses = [None] * len(reps)
    orbit_reps = []
    for start, vals in enumerate(reps):
        if orbit_of[start] != -1:
            continue
        oid = len(orbit_reps)
        orbit_reps.append(vals)
        orbit_of[start] = oid
        witnesses[start] = (id_a, id_b)
        stack = [(start, id_a, id_b)]
        while stack:
            cur, acc_a, acc_b = stack.pop()
            for (ga, gb), image in zip(gens, images):
                j = image[cur]
                if orbit_of[j] == -1:
                    pair = (perm_compose(ga, acc_a), perm_compose(gb, acc_b))
                    orbit_of[j] = oid
                    witnesses[j] = pair
                    stack.append((j, pair[0], pair[1]))
    return ClassificationReport(
        t=t,
        q_order=q.n,
        b=b,
        total=1 << (t * b),
        hom_count=hom_count,
        b2_count=1 << (t * r),
        equivalence_class_count=eq_count,
        isomorphism_class_count=len(orbit_reps),
        class_reps=tuple(reps),
        orbit_of_class=tuple(orbit_of),
        orbit_reps=tuple(orbit_reps),
        witnesses=tuple(witnesses),
    )
