import random
from itertools import combinations, product

import numpy as np
import pytest

import steinerloops as sl
from steinerloops import catalog, gf2, schreier
from steinerloops.design_core import (
    _invariants,
    perm_compose,
    point_perm_to_loop_perm,
)
from steinerloops.errors import (
    BadDiagonal,
    BadIdentityBlock,
    BadTriple,
    DiagonalViolation,
    NotAdmissible,
    NotASubloop,
    NotLatin,
    NotNormal,
    NotSymmetric,
    PairDuplicated,
    PairMissing,
    ShapeMismatch,
    TotalSymmetryViolation,
    TransposeViolation,
)


@pytest.fixture(scope="session")
def fano():
    return catalog.fixture("fano_labeled")


@pytest.fixture(scope="session")
def sts9():
    return catalog.fixture("sts9_labeled")


@pytest.fixture(scope="session")
def sts15_2():
    return catalog.fixture("sts15_2")


@pytest.fixture(scope="session")
def pg3():
    return catalog.pg(3)


@pytest.fixture(scope="session")
def sts3():
    return sl.validate_system(3, [(0, 1, 2)])


@pytest.fixture(scope="session")
def sts1():
    return sl.validate_system(1, [])


@pytest.fixture(scope="session")
def sts19_example():
    return sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))


def build_family():
    """Every system the suite constructs: all Schreier builds of order <= 32
    plus the catalog fixtures. Returns (label, TripleSystem) pairs."""
    out = []
    fano_q = catalog.fixture("fano_labeled").loop()
    sts9_q = catalog.fixture("sts9_labeled").loop()
    sts1_q = sl.validate_system(1, []).loop()
    sts3_q = sl.validate_system(3, [(0, 1, 2)]).loop()

    for t, q, tag in ((1, fano_q, "fano"), (1, sts9_q, "sts9")):
        n = sl.ElemAbelian2(t)
        for i, f in enumerate(sl.enumerate_factor_systems(n, q)):
            loop = sl.build_schreier(n, q, f)
            out.append((f"schreier[{tag},t={t}]#{i}", loop.system()))
    for q, tag in ((sts1_q, "sts1"), (sts3_q, "sts3")):
        for t in (1, 2):
            n = sl.ElemAbelian2(t)
            for i, f in enumerate(sl.enumerate_factor_systems(n, q)):
                loop = sl.build_schreier(n, q, f)
                out.append((f"schreier[{tag},t={t}]#{i}", loop.system()))
    # deterministic sample of the order-31 extensions (t=2 over the plane)
    rng = random.Random(20240901)
    n2 = sl.ElemAbelian2(2)
    b = fano_q.system().b
    for i in range(64):
        code = rng.randrange(1 << (2 * b))
        vals = [(code >> (2 * j)) & 3 for j in range(b)]
        f = sl.FactorSystem(fano_q, 2, vals)
        out.append((f"schreier[fano,t=2]#{i}", sl.build_schreier(n2, fano_q, f).system()))

    out.append(("pg1", catalog.pg(1)))
    out.append(("pg2", catalog.pg(2)))
    out.append(("pg3", catalog.pg(3)))
    out.append(("pg4", catalog.pg(4)))
    out.append(("ag1", catalog.ag(1)))
    out.append(("ag2", catalog.ag(2)))
    out.append(("sts15_2", catalog.fixture("sts15_2")))
    out.append(("sts13_a", catalog.fixture("sts13_a")))
    out.append(("sts13_b", catalog.fixture("sts13_b")))
    out.append(
        ("sts19_double", sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11")))
    )
    out.append(("fano_labeled", catalog.fixture("fano_labeled")))
    out.append(("sts9_labeled", catalog.fixture("sts9_labeled")))
    return out


@pytest.fixture(scope="session")
def constructed_family():
    return build_family()


def brute_force_equivalent(f1, f2):
    """Test-local oracle: search all cochains over the quotient points for
    one whose coboundary is f1 + f2."""
    qs = f1.q_system
    w, t = qs.v, f1.t
    target = tuple(a ^ b for a, b in zip(f1.values, f2.values))
    for code in range(1 << (w * t)):
        phi = [(code >> (j * t)) & ((1 << t) - 1) for j in range(w)]
        delta = tuple(phi[a] ^ phi[b] ^ phi[c] for a, b, c in qs.triples)
        if delta == target:
            return phi
    return None


def perm_inverse(p):
    """Test helper: the inverse of a permutation given as a sequence."""
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def equivalence_map(phi, size: int):
    """Test-local oracle for the witness of are_equivalent: the carrier
    permutation (P, x) -> (P, x + phi(P)) of the flattened extension of a
    2-group of the given size."""
    out = []
    for p in range(phi.q.n):
        shift = phi.at(p)
        out.extend(p * size + (x ^ shift) for x in range(size))
    return tuple(out)


def reference_operator_check(q, n_loop, blocks):
    """Test-local oracle for the operator conditions (i)-(iv): the loop-based
    check, one block pair at a time, that SteinerOperator construction must
    match in exception type, message and failing block."""

    def is_latin(arr):
        idx = np.arange(arr.shape[0])
        return bool(
            (np.sort(arr, axis=0) == idx[:, None]).all()
            and (np.sort(arr, axis=1) == idx[None, :]).all()
        )

    m, k = q.n, n_loop.n
    idx = np.arange(k)
    for p in range(m):
        for r in range(m):
            if not is_latin(blocks[p, r]):
                raise NotLatin(p, r)
    if not np.array_equal(blocks[0, 0], n_loop.table):
        raise BadIdentityBlock("block (0,0) is not the subloop table")
    for p in range(m):
        for r in range(p, m):
            if not np.array_equal(blocks[r, p], blocks[p, r].T):
                raise TransposeViolation(p, r)
    for p in range(m):
        if (np.diagonal(blocks[p, p]) != 0).any():
            raise DiagonalViolation(p)
    for p in range(m):
        for r in range(m):
            back = blocks[p, int(q.table[p, r])]
            if not np.array_equal(back[idx[:, None], blocks[p, r]], np.broadcast_to(idx, (k, k))):
                raise TotalSymmetryViolation(p, r)
    for p in range(m):
        if not np.array_equal(blocks[p, 0][:, 0], idx):
            raise AssertionError(f"block ({p},0) does not fix x under the subloop identity")


def reference_double_operator(n_loop, square):
    """Test-local oracle for steiner_operator.double_operator: the same
    square checks, then complete_from_blocks over the order-2 loop, which
    derives the off-diagonal blocks and checks (i)-(iv) on construction."""
    if not isinstance(square, sl.LatinSquare):
        square = sl.LatinSquare(square)
    if square.n != n_loop.n:
        raise ShapeMismatch("square side must match the subloop order")
    if not square.is_symmetric():
        raise NotSymmetric("doubling square must be symmetric")
    if (np.diagonal(square.entries) != 0).any():
        raise BadDiagonal("doubling square must carry the identity on its diagonal")
    return sl.complete_from_blocks(sl.SteinerLoop([[0, 1], [1, 0]]), n_loop, {1: square}, {})


def reference_fano_planes(s):
    """Test-local oracle for the Fano planes of census: a pure-Python search
    over every pair of lines through every point. Planes are frozensets, in
    the order of their sorted points."""
    third = s.third_table.tolist()
    planes = set()
    for p in range(s.v):
        pairs = [(q, third[p][q]) for q in range(s.v) if q != p and q < third[p][q]]
        for i in range(len(pairs)):
            a, b = pairs[i]
            for j in range(i + 1, len(pairs)):
                c, d = pairs[j]
                e = third[a][c]
                f = third[a][d]
                if e != third[b][d] or f != third[b][c]:
                    continue
                pts = frozenset((p, a, b, c, d, e, f))
                if len(pts) != 7 or pts in planes:
                    continue
                if all(third[x][y] in pts for x, y in combinations(pts, 2)):
                    planes.add(pts)
    return tuple(sorted(planes, key=sorted))


def reference_pasch_census(s):
    """Test-local oracle for _kernels.pasch_census: (counts, closed) as lists,
    point by point over the pairs of triples through it. Lines {p,a,b} and
    {p,c,d} lie in a Pasch configuration through p once for each way they
    close: third(a,c) = third(b,d), and third(a,d) = third(b,c)."""
    third = s.third_table.tolist()
    counts, closed = [], []
    for p in range(s.v):
        lines = [(q, third[p][q]) for q in range(s.v) if q != p and q < third[p][q]]
        found = missed = 0
        for (a, b), (c, d) in combinations(lines, 2):
            for x, y in ((third[a][c], third[b][d]), (third[a][d], third[b][c])):
                if x == y:
                    found += 1
                else:
                    missed += 1
        counts.append(found)
        closed.append(missed == 0)
    return counts, closed


def reference_fano_rows(third):
    """Test-local oracle for _kernels.fano_planes: the point-by-point scan,
    the same rows in the same order."""
    v = third.shape[0]
    r = (v - 1) // 2
    found = [np.empty((0, 7), dtype=np.int32)]
    # pairs i < j ordered by j, so the pairs among the first k lines are a prefix
    jj, ii = np.tril_indices(r, k=-1)
    line_of = np.zeros(v, dtype=np.intp)
    for p in range(v):
        # p is the least point, so only lines through p above p take part,
        # {p,q,third[p,q]} with p < q < third[p,q], in increasing q
        q = np.flatnonzero((third[p] > np.arange(v)) & (np.arange(v) > p))
        lines = np.stack([q, third[p, q]], axis=1).astype(np.int32)
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


def reference_center_mask(table):
    """Test-local oracle for _kernels.center_mask: one candidate z at a time."""
    n = table.shape[0]
    mask = np.empty(n, dtype=np.bool_)
    for z in range(n):
        mask[z] = np.array_equal(table[table, z], table[:, table[:, z]])
    return mask


def reference_hyperplanes(s):
    """Test-local oracle for hyperplanes: the GF(2) nullspace of one row per
    triple over all v points, each nonzero vector's zero set a hyperplane."""
    rows = [(1 << a) | (1 << b) | (1 << c) for a, b, c in s.triples]
    out = []
    for vec in gf2.span(gf2.nullspace_basis(rows, s.v)):
        if vec == 0:
            continue
        out.append(frozenset(p for p in range(s.v) if not (vec >> p) & 1))
    return tuple(sorted(out, key=sorted))


def reference_echelonize(rows, n_cols):
    """Test-local oracle for gf2.echelonize: each incoming row is tested
    against every pivot in turn."""
    basis = []
    pivots = []
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


def reference_is_coboundary(f):
    """Test-local oracle for is_coboundary: gf2.solve on the triple rows
    once per bit plane of f, the solution's bits reassembled per point, or
    None when some plane has no solution."""
    qs = f.q_system
    rows = [sum(1 << p for p in tri) for tri in qs.triples]
    phi = [0] * qs.v
    for k in range(f.t):
        plane = sum(((x >> k) & 1) << i for i, x in enumerate(f.values))
        x = gf2.solve(rows, plane, qs.v)
        if x is None:
            return None
        for p in range(qs.v):
            phi[p] |= ((x >> p) & 1) << k
    return tuple(phi)


def reference_census(s):
    """Test-local oracle for census: Pasch counts from reference_pasch_census,
    Fano counts per point and per triple tallied plane by plane over
    reference_fano_planes."""
    counts, _ = reference_pasch_census(s)
    planes = reference_fano_planes(s)
    fano_through = [0] * s.v
    fano_tri = [0] * s.b
    for plane in planes:
        for p in plane:
            fano_through[p] += 1
        for x, y in combinations(sorted(plane), 2):
            if s.third(x, y) > y:
                fano_tri[int(s.pair_triple[x, y])] += 1
    return sl.ConfigCensus(
        tuple(counts),
        tuple(fano_through),
        tuple(fano_tri),
        tuple(tuple(sorted(plane)) for plane in planes),
    )


def reference_normality_witness(loop, n):
    """Test-local oracle for normality_witness, one loop.mul at a time: the
    first (x, y, m) with x.(y.m) outside (x.y).N, m taken in ascending
    order."""
    members = sorted(n.members)
    cosets = {}
    for x in range(loop.n):
        for y in range(loop.n):
            xy = loop.mul(x, y)
            target = cosets.get(xy)
            if target is None:
                target = frozenset(loop.mul(xy, m) for m in members)
                cosets[xy] = target
            for m in members:
                if loop.mul(x, loop.mul(y, m)) not in target:
                    return (x, y, m)
    return None


def reference_triple_system(v, triples):
    """Test-local oracle for the TripleSystem constructor, one triple and one
    pair at a time: (triples, third_table, pair_triple) of a valid
    system, or the constructor's exception at the same first failure."""
    if not sl.admissible(v):
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
            third[x, y] = third[y, x] = z
            pair_triple[x, y] = pair_triple[y, x] = idx
    if len(norm) != v * (v - 1) // 6:
        for x in range(v):
            for y in range(x + 1, v):
                if third[x, y] == -1:
                    raise PairMissing(x, y)
    return tuple(norm), third, pair_triple


def reference_system_from_loop(loop):
    """Test-local oracle for system_from_loop: the pair walk over the loop
    table, checked again by reference_triple_system."""
    triples = []
    for x in range(1, loop.n):
        for y in range(x + 1, loop.n):
            z = loop.mul(x, y)
            if z > y:
                triples.append((x - 1, y - 1, z - 1))
    return reference_triple_system(loop.n - 1, triples)


def reference_check_subloop(loop, members):
    """Test-local oracle for the subloop check, one product at a time; the
    first escape x.y with x and y taken in ascending order."""
    members = frozenset(int(m) for m in members)
    if 0 not in members:
        raise NotASubloop("identity missing")
    for x in sorted(members):
        for y in sorted(members):
            if loop.mul(x, y) not in members:
                raise NotASubloop(f"not closed: {x}.{y} escapes")
    return members


def reference_as_loop(sub):
    """Test-local oracle for Subloop.as_loop: (table, relabeling list)."""
    order = [0] + sorted(m for m in sub.members if m != 0)
    pos = {m: i for i, m in enumerate(order)}
    table = np.array([[pos[sub.parent.mul(x, y)] for y in order] for x in order], dtype=np.int32)
    return table, order


def reference_quotient(loop, n):
    """Test-local oracle for quotient of a normal subloop: (table, cosets,
    epi), each coset built at its first element not yet covered."""
    members = sorted(n.members)
    epi = [-1] * loop.n
    cosets = []
    for x in range(loop.n):
        if epi[x] != -1:
            continue
        coset = frozenset(loop.mul(x, m) for m in members)
        for y in coset:
            if epi[y] != -1:
                raise NotNormal("cosets do not partition the carrier")
            epi[y] = len(cosets)
        cosets.append(coset)
    reps = [min(c) for c in cosets]
    table = np.array([[epi[loop.mul(a, b)] for b in reps] for a in reps], dtype=np.int32)
    return table, tuple(cosets), tuple(epi)


def reference_class_images(n, q):
    """Test-local oracle for the generator images of classify: (gens,
    images), each unit class pushed through (alpha, beta) . f = alpha o f o
    (beta^-1 x beta^-1) pair by pair, reduced per bit plane to its least
    representative and looked up among all class representatives."""
    qs = q.system()
    t, b = n.t, qs.b
    point_rows = [sum(1 << i for i, tri in enumerate(qs.triples) if j in tri) for j in range(qs.v)]
    basis, pivots = gf2.echelonize(point_rows, b)
    free = [i for i in range(b) if i not in pivots]
    if not t * len(free):
        return [], []
    reps = []
    for combo in product(range(n.size), repeat=len(free)):
        vals = [0] * b
        for pos, val in zip(free, combo):
            vals[pos] = val
        reps.append(tuple(vals))
    index = {vals: i for i, vals in enumerate(reps)}
    id_a, id_b = tuple(range(n.size)), tuple(range(q.n))
    gens = [(a, id_b) for a in schreier.gl2_elements(t) if a != id_a]
    gens += [(id_a, point_perm_to_loop_perm(g)) for g in sl.automorphisms(qs).generators]
    images = []
    for alpha, beta in gens:
        inv = perm_inverse(beta)
        unit_images = []
        for k in range(t * len(free)):
            f = sl.FactorSystem(q, t, reps[1 << k])
            moved = [alpha[f.value(inv[x + 1], inv[y + 1])] for x, y, _ in qs.triples]
            planes = [sum(((x >> c) & 1) << i for i, x in enumerate(moved)) for c in range(t)]
            reduced = [gf2.reduce_vector(plane, basis, pivots) for plane in planes]
            canon = tuple(
                sum(((plane >> i) & 1) << c for c, plane in enumerate(reduced)) for i in range(b)
            )
            unit_images.append(index[canon])
        images.append(gf2.span(unit_images))
    return gens, images


def reference_assignment_order(s, inv):
    """The static point order of reference_search_isomorphisms: the least
    unplaced point that two placed points close on, found by an O(v^3) scan
    over every pair of placed points, else the next point of the rarest
    invariant class. Its free points are the order in which
    _search.first_isomorphism places points, so both find the same first map."""
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


def reference_closure(gens, v):
    """Test-local oracle for the subgroup generated by point permutations:
    the set of all products, grown from the identity by composing on the
    right with each generator."""
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


def reference_generators(elements, v):
    """Test-local oracle for the generators automorphisms() chooses: the
    sorted elements, each time the first one outside the subgroup that
    reference_closure gives for the generators chosen so far."""
    gens = []
    known = {tuple(range(v))}
    for g in sorted(elements):
        if g in known:
            continue
        gens.append(g)
        known = reference_closure(gens, v)
    return tuple(gens)


def reference_place(third1, inv1, third2, inv2, img, p, q):
    """Test-local oracle for _search._Search.place: the least partial map
    that holds the placed pairs of img and p -> q and sends the third point
    of any two of its points to the third point of their images, grown by
    rescanning every pair until nothing is added; None as soon as the pairs
    send a point to two points, two points to one, or a point to one of
    another invariant. Else the map as a list, -1 where unplaced."""
    pairs = {(x, y) for x, y in enumerate(img) if y != -1} | {(p, q)}
    while True:
        m = dict(pairs)
        if len(m) < len(pairs) or len(set(m.values())) < len(m):
            return None
        if any(inv1[x] != inv2[y] for x, y in pairs):
            return None
        new = {(third1[a][b], third2[m[a]][m[b]]) for a in m for b in m if a != b} - pairs
        if not new:
            return [m.get(x, -1) for x in range(len(img))]
        pairs |= new


def reference_pair_scan_place(third1, inv1, third2, inv2, img, pre, placed, p, q):
    """Test-local oracle for _search._Search.place, the closure its plan
    records: send p to q and each point that two placed points close on to
    the third point of their images, over every pair of placed points, from
    a stack of the pairs met; False at the first clash. A third point
    already placed is checked where the pair meets it. img, pre and placed
    (the points in the order placed) grow in place, up to the clash."""
    todo = [(p, q)]
    while todo:
        p, q = todo.pop()
        if img[p] != -1:
            if img[p] != q:
                return False
            continue
        if pre[q] != -1 or inv2[q] != inv1[p]:
            return False
        row_p, row_q = third1[p], third2[q]
        for r in placed:
            x, y = row_p[r], row_q[img[r]]
            if img[x] == -1:
                todo.append((x, y))
            elif img[x] != y:
                return False
        img[p], pre[q] = q, p
        placed.append(p)
    return True


def reference_search_isomorphisms(s1, s2, find_all):
    """Test-local oracle for the isomorphism search: the plain backtracking
    search, no centre route and no node budget, over the same invariants and
    the oracle order."""
    if s1.v != s2.v:
        return []
    v = s1.v
    if v == 1:
        return [(0,)]
    inv1 = _invariants(s1)
    inv2 = _invariants(s2)
    if sorted(inv1) != sorted(inv2):
        return []
    steps = reference_assignment_order(s1, inv1)
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


def reference_candidate_maps(op1, op2, p):
    """Test-local oracle for steiner_operator._candidate_maps: the
    backtracking search over bijections g, point by point in ascending
    order, that keeps g consistent with the diagonal block (p, p) and the
    identity-column block (p, 0) as it goes. Returns (maps, nodes), the maps
    as tuples in the order found."""
    k = op1.n_loop.n
    d1 = op1.blocks[p, p]
    d2 = op2.blocks[p, p]
    e1 = op1.blocks[p, 0]
    e2 = op2.blocks[p, 0]
    out = []
    g = [-1] * k
    taken = [False] * k
    nodes = 0

    def ok(x):
        # diagonal block maps straight through (the identity element of the
        # quotient carries the identity permutation)
        for a in range(k):
            if g[a] < 0:
                continue
            if d2[g[x], g[a]] != d1[x, a] or d2[g[a], g[x]] != d1[a, x]:
                return False
        # block (p, identity): g(e1[u, y]) = e2[g(u), y]
        for u in range(k):
            if g[u] < 0:
                continue
            for y in range(k):
                z = int(e1[u, y])
                if g[z] != -1 and e2[g[u], y] != g[z]:
                    return False
        return True

    def rec(x):
        nonlocal nodes
        nodes += 1
        if x == k:
            out.append(tuple(g))
            return
        for cand in range(k):
            if taken[cand]:
                continue
            g[x] = cand
            taken[cand] = True
            if ok(x):
                rec(x + 1)
            taken[cand] = False
            g[x] = -1

    rec(0)
    return out, nodes


def reference_find_equivalence(op1, op2):
    """Test-local oracle for steiner_operator.find_equivalence: the
    candidates of reference_candidate_maps for every quotient element, then a
    depth-first search over p = 1..m-1 that checks, whenever p is placed,
    every ordered pair of quotient elements with both factors and their
    product placed and p among the three. Returns (family or None,
    candidate nodes, family nodes); no node budget."""
    m = op1.q.n
    k = op1.n_loop.n
    qt = op1.q.table
    cand_nodes = family_nodes = 0
    cands = [[tuple(range(k))]]
    for p in range(1, m):
        c, nodes = reference_candidate_maps(op1, op2, p)
        cand_nodes += nodes
        if not c:
            return None, cand_nodes, family_nodes
        cands.append(c)
    maps = [None] * m
    maps[0] = np.arange(k, dtype=np.int32)

    def compatible(p):
        # every ordered pair with all three of (x, y, xy) assigned and p
        # among them; this includes the pairs whose product is p, which
        # become checkable only once p itself is placed
        assigned = [a for a in range(m) if maps[a] is not None]
        for x in assigned:
            for y in assigned:
                r = int(qt[x, y])
                if maps[r] is None or p not in (x, y, r):
                    continue
                lhs = maps[r][op1.blocks[x, y]]
                rhs = op2.blocks[x, y][maps[x][:, None], maps[y][None, :]]
                if not np.array_equal(lhs, rhs):
                    return False
        return True

    def rec(p):
        nonlocal family_nodes
        family_nodes += 1
        if p == m:
            return True
        for cand in cands[p]:
            maps[p] = np.array(cand, dtype=np.int32)
            if compatible(p) and rec(p + 1):
                return True
            maps[p] = None
        return False

    if rec(1):
        fam = sl.IsotopyFamily(tuple(tuple(int(x) for x in g) for g in maps))
        return fam, cand_nodes, family_nodes
    return None, cand_nodes, family_nodes
