"""Central extensions of elementary abelian 2-groups by Steiner loops.

A factor system stores one value of the 2-group per triple of the quotient
system; by construction it is symmetric, vanishes on the identity and the
diagonal, and is constant on quotient triples. Two factor systems describe
equivalent extensions iff their sum is a coboundary, which per bit component
is a GF(2) linear system with one equation per quotient triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gf2
from .design_core import (
    SteinerLoop,
    TripleSystem,
    admissible,
    automorphisms,
    perm_compose,
    perm_inverse,
    point_perm_to_loop_perm,
)
from .errors import BoundExceeded, NotAdmissible, NotAutomorphism, OrderTooSmall
from .steiner_operator import _extension_table, _schreier_blocks

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
        self.q = q
        self.t = t
        self.values = values
        self._qs = qs

    @property
    def q_system(self) -> TripleSystem:
        return self._qs

    def value(self, p: int, r: int) -> int:
        """f(p, r) for loop elements of the quotient."""
        if p == r or p == 0 or r == 0:
            return 0
        return self.values[int(self._qs.pair_triple[p - 1, r - 1])]

    def __add__(self, other: "FactorSystem") -> "FactorSystem":
        self._require_frame(other)
        return FactorSystem(self.q, self.t, [a ^ b for a, b in zip(self.values, other.values)])

    def _require_frame(self, other: "FactorSystem"):
        if self.t != other.t or self.q.n != other.q.n or not np.array_equal(
            self.q.table, other.q.table
        ):
            raise ValueError("factor systems live over different frames")

    def precompose(self, gamma) -> "FactorSystem":
        """The factor system (p, r) -> f(gamma(p), gamma(r)) for a loop
        automorphism gamma of the quotient."""
        out = []
        for a, b, _ in self._qs.triples:
            out.append(self.value(gamma[a + 1], gamma[b + 1]))
        return FactorSystem(self.q, self.t, out)

    def apply_alpha(self, alpha) -> "FactorSystem":
        """Push every triple value through a 2-group automorphism."""
        return FactorSystem(self.q, self.t, [alpha[x] for x in self.values])

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

    def at(self, p: int) -> int:
        return 0 if p == 0 else self.values[p - 1]

    def __add__(self, other: "Cochain1") -> "Cochain1":
        return Cochain1(self.q, self.t, tuple(a ^ b for a, b in zip(self.values, other.values)))


def coboundary(phi: Cochain1) -> FactorSystem:
    """delta phi: the factor system with triple value phi(x)+phi(y)+phi(z)."""
    qs = phi.q.system()
    vals = [phi.values[a] ^ phi.values[b] ^ phi.values[c] for a, b, c in qs.triples]
    return FactorSystem(phi.q, phi.t, vals)


def build_schreier(n: ElemAbelian2, q: SteinerLoop, f: FactorSystem) -> SteinerLoop:
    """The extension loop on pairs (P, x) with (P,x)(Q,y) = (PQ, x+y+f(P,Q)).

    Element (P, x) is flattened to index P * 2^t + x, so the copy of the
    2-group occupies indices 0 .. 2^t - 1 and is central by construction.
    """
    if f.t != n.t or f.q.n != q.n or not np.array_equal(f.q.table, q.table):
        raise ValueError("factor system does not match the given frame")
    return SteinerLoop(_extension_table(q.table, _schreier_blocks(f)))


def _triple_point_rows(qs: TripleSystem):
    """One GF(2) row per triple; bit j set iff point j lies on the triple."""
    return [(1 << a) | (1 << b) | (1 << c) for a, b, c in qs.triples]


def _planes(values, t: int) -> list:
    """The t bit planes of a sequence of t-bit values: bit i of plane k is
    bit k of values[i]."""
    return [sum(((x >> k) & 1) << i for i, x in enumerate(values)) for k in range(t)]


def _unplanes(planes, width: int) -> tuple:
    """The width values whose bit k is read from planes[k]; inverts _planes."""
    return tuple(
        sum(((plane >> i) & 1) << k for k, plane in enumerate(planes)) for i in range(width)
    )


def is_coboundary(f: FactorSystem):
    """A cochain phi with delta phi = f, or None. Solved per bit component
    as a linear system with one equation per quotient triple."""
    qs = f.q_system
    rows = _triple_point_rows(qs)
    per_bit = []
    for plane in _planes(f.values, f.t):
        x = gf2.solve(rows, plane, qs.v)
        if x is None:
            return None
        per_bit.append(x)
    return Cochain1(f.q, f.t, _unplanes(per_bit, qs.v))


def equivalence_map(phi: Cochain1, size: int):
    """The carrier permutation (P, x) -> (P, x + phi(P)) of the flattened
    extension of a 2-group of the given size."""
    out = []
    for p in range(phi.q.n):
        shift = phi.at(p)
        out.extend(p * size + (x ^ shift) for x in range(size))
    return tuple(out)


def are_equivalent(f1: FactorSystem, f2: FactorSystem):
    """A cochain realizing the equivalence of the two extensions, or None.

    A returned witness is verified: the induced map (P,x) -> (P, x+phi(P))
    must be an isomorphism between the two built loops.
    """
    f1._require_frame(f2)
    phi = is_coboundary(f1 + f2)
    if phi is None:
        return None
    n = ElemAbelian2(f1.t)
    t1 = build_schreier(n, f1.q, f1).table
    t2 = build_schreier(n, f2.q, f2).table
    sigma = np.array(equivalence_map(phi, n.size), dtype=np.int32)
    if not np.array_equal(sigma[t1], t2[sigma[:, None], sigma[None, :]]):
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


def hom_set(q: SteinerLoop, n: ElemAbelian2, bound: int = DEFAULT_TB_BOUND):
    """All loop homomorphisms from q into the 2-group, as tuples indexed by
    loop element (identity included at index 0)."""
    qs = q.system()
    w = qs.v
    kernel = gf2.nullspace_basis(_triple_point_rows(qs), w)
    k = len(kernel)
    if k * n.t > bound:
        raise BoundExceeded(f"hom space dimension {k * n.t} exceeds bound {bound}")
    component_vectors = gf2.span(kernel)
    homs = [(0,) + _unplanes(combo, w) for combo in product(component_vectors, repeat=n.t)]
    return sorted(homs)


def _class_space(n: ElemAbelian2, q: SteinerLoop):
    """(basis, pivots, |Hom(q, n)|): the reduced echelon basis of the
    single-component coboundary space over the b triple coordinates, where
    generator j is the coboundary of the indicator of point j, its pivot
    columns, and the homomorphism count. The class count 2^(t(b-r)) is
    checked against the closed form 2^(tb) / (2^(tw) / |Hom|)."""
    qs = q.system()
    t, b, w = n.t, qs.b, qs.v
    gens = [sum(1 << i for i, tri in enumerate(qs.triples) if j in tri) for j in range(w)]
    basis, pivots = gf2.echelonize(gens, b)
    r = len(basis)
    if t * (w - r) <= 16:
        hom_count = len(hom_set(q, n, bound=16))
    else:
        hom_count = 1 << (t * (w - r))
    if 1 << (t * (b - r + w)) != (1 << (t * b)) * hom_count:
        raise AssertionError("class count disagrees with the homomorphism count")
    return basis, pivots, hom_count


def count_nonequivalent(n: ElemAbelian2, q: SteinerLoop) -> int:
    """Number of equivalence classes of extensions, checked two ways."""
    basis, _, _ = _class_space(n, q)
    return 1 << (n.t * (q.system().b - len(basis)))


def identity_alpha(t: int):
    return tuple(range(1 << t))


def gl2_elements(t: int, bound: int = GL_DIMENSION_BOUND):
    """All automorphisms of the 2-group as element permutations."""
    if t > bound:
        raise BoundExceeded(f"GL enumeration limited to dimension {bound}")
    if t == 0:
        return [(0,)]
    size = 1 << t
    out = []
    for cols in product(range(size), repeat=t):
        if gf2.rank(list(cols), t) != t:
            continue
        img = []
        for x in range(size):
            acc = 0
            for i in range(t):
                if (x >> i) & 1:
                    acc ^= cols[i]
            img.append(acc)
        out.append(tuple(img))
    return sorted(out)


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


def apply_aut(f: FactorSystem, alpha, beta) -> FactorSystem:
    """The left action (alpha, beta) . f = alpha o f o (beta^-1 x beta^-1)."""
    _check_alpha(alpha, f.t)
    _check_beta(beta, f.q)
    return f.precompose(perm_inverse(beta)).apply_alpha(tuple(alpha))


def further_veblen(f: FactorSystem) -> frozenset:
    """Quotient elements P such that every (P, x) is central in the built
    extension: P central in the quotient and f(P,Q)+f(PQ,R) = f(Q,R)+f(P,QR)."""
    q = f.q
    central = {z for z in q.center() if z != 0}
    out = set()
    for p in central:
        ok = True
        for a in range(q.n):
            for r in range(q.n):
                if f.value(p, a) ^ f.value(q.mul(p, a), r) != f.value(a, r) ^ f.value(
                    p, q.mul(a, r)
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(p)
    return frozenset(out)


def associativity_condition(f: FactorSystem) -> bool:
    """True iff f(P,QR)+f(Q,R) = f(PQ,R)+f(P,Q) everywhere, i.e. the built
    extension is associative."""
    q = f.q
    for p in range(q.n):
        for a in range(q.n):
            for r in range(q.n):
                if f.value(p, q.mul(a, r)) ^ f.value(a, r) != f.value(q.mul(p, a), r) ^ f.value(
                    p, a
                ):
                    return False
    return True


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

    def classes_in_orbit(self, oid: int):
        return tuple(
            i for i, o in enumerate(self.orbit_of_class) if o == oid
        )


def canonical_values(f: FactorSystem, basis, pivots):
    """Lexicographically least member of f's equivalence class (per bit
    component, pivot triple coordinates are cleared)."""
    per_bit = [gf2.reduce_vector(plane, basis, pivots) for plane in _planes(f.values, f.t)]
    return _unplanes(per_bit, len(f.values))


def classify(
    n: ElemAbelian2,
    q: SteinerLoop,
    tb_bound: int = DEFAULT_TB_BOUND,
    class_bound: int = DEFAULT_CLASS_BOUND,
) -> ClassificationReport:
    """Equivalence classes (cosets of the coboundary group) and isomorphism
    classes (orbits of the automorphism action on those cosets)."""
    qs = q.system()
    t, b = n.t, qs.b
    if t * b > tb_bound:
        raise BoundExceeded(f"t*b = {t * b} exceeds enumeration bound {tb_bound}")
    basis, pivots, hom_count = _class_space(n, q)
    r = len(basis)
    eq_count = 1 << (t * (b - r))
    if eq_count > class_bound:
        raise BoundExceeded(f"{eq_count} equivalence classes exceed bound {class_bound}")

    # Pivot coordinates of a class representative are 0, so product() lists
    # the representatives in sorted order and the bits of index i are the
    # free triple values of class i. The (alpha, beta) action is GF(2)-linear
    # on classes, hence on indices: each generator's images of the t(b-r)
    # unit indices span its image of every index.
    free = [i for i in range(b) if i not in set(pivots)]
    reps = []
    for combo in product(range(n.size), repeat=len(free)):
        vals = [0] * b
        for pos, val in zip(free, combo):
            vals[pos] = val
        reps.append(tuple(vals))
    index = {vals: i for i, vals in enumerate(reps)}

    if t > GL_DIMENSION_BOUND:
        # every witness carries an alpha with 2^t entries
        raise BoundExceeded(f"GL enumeration limited to dimension {GL_DIMENSION_BOUND}")
    id_a, id_b = identity_alpha(t), tuple(range(q.n))
    gens = []
    if free:  # a single class leaves nothing to act on
        beta_gens = [point_perm_to_loop_perm(g) for g in automorphisms(qs).generators]
        alpha_gens = [a for a in gl2_elements(t) if a != id_a]
        gens = [(a, id_b) for a in alpha_gens] + [(id_a, b_) for b_ in beta_gens]
    units = [FactorSystem(q, t, reps[1 << k]) for k in range(t * len(free))]
    images = [
        gf2.span([index[canonical_values(apply_aut(u, ga, gb), basis, pivots)] for u in units])
        for ga, gb in gens
    ]

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
