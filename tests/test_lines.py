"""A triple system holds its lines as one read-only array; the tuple view
``triples`` is built only when read, and no library call path reads it."""

import hashlib
import itertools
import random

import numpy as np
import pytest

import steinerloops as sl
from conftest import reference_triple_system
from steinerloops import _kernels, catalog, schreier
from steinerloops.catalog import _pasch_switch, pasch_configurations
from steinerloops.design_core import point_perm_to_loop_perm

SEEDS = (1, 2, 3)


def _seeded_perm(v, seed):
    perm = list(range(v))
    random.Random(seed).shuffle(perm)
    return perm


def _fixture_systems():
    """Every system the catalog's fixtures hold or lead to, by key."""
    out = []
    for key in catalog.fixture_keys():
        obj = catalog.fixture(key)
        if isinstance(obj, sl.TripleSystem):
            out.append(obj)
        elif isinstance(obj, sl.SteinerLoop):
            out.append(obj.system())
        elif isinstance(obj, sl.FactorSystem):
            out.append(obj.q_system)
    return out


def route_systems(route):
    """The systems one construction route yields, in a fixed order."""
    fano, sts9 = catalog.fixture("fano_labeled"), catalog.fixture("sts9_labeled")
    bases = [fano, sts9, catalog.fixture("sts13_a"), catalog.fixture("sts15_2"), catalog.pg(3)]
    if route == "constructor":
        return [sl.TripleSystem(s.v, s.triples[::-1]) for s in bases]
    if route == "relabel":
        return [s.relabel(list(reversed(range(s.v)))) for s in bases]
    if route == "loop.system":
        return [sl.SteinerLoop(s.loop().table).system() for s in bases] + [
            s.loop().system() for s in bases
        ]
    if route == "double":
        squares = itertools.islice(sl.enumerate_symmetric_squares(8), 3)
        return [sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))] + [
            sl.double(fano.loop(), sq) for sq in squares
        ]
    if route == "build_schreier":
        out = []
        for base, t in ((fano, 1), (sts9, 1), (fano, 2)):
            q, n = base.loop(), sl.ElemAbelian2(t)
            for values in sl.classify(n, q).orbit_reps[:4]:
                out.append(sl.build_schreier(n, q, sl.FactorSystem(q, t, values)).system())
        return out
    if route == "pg":
        return [catalog.pg(n) for n in range(2, 7)]
    if route == "ag":
        return [catalog.ag(n) for n in range(2, 5)]
    if route == "fixtures":
        return _fixture_systems()
    if route == "seeded relabels":
        return [s.relabel(_seeded_perm(s.v, seed)) for s in bases for seed in SEEDS]
    raise KeyError(route)


# sha256 of repr([(s.v, s.triples) for s in route_systems(route)]) when
# triples was a tuple filled by every constructor
PARENT_DIGESTS = {
    "constructor": "89f71370dd547fcbf273ddc0105c2eb65c50892e12d4e3da8f0909fcd1ef24f6",
    "relabel": "458a52936223f8faf32e27a3ce125fd4257efbdb933e37759f749353f83fc36b",
    "loop.system": "010608180ac37621638af30ab9e7ea9d57ce121341a98154460b8e7cac84be4a",
    "double": "0ce9fc9f60b9ec3b65beb9a3bb782e7612496cba99b2b2f941a84d542a1d8e5a",
    "build_schreier": "6168b36081078b62c38d5fd4c864912f79056ccced9bd67cc69c824c6fc7c86f",
    "pg": "2b3582fe53b7b8e8a5fcfdd7dc4fdacbdbfabee2f20012c1880f581e3b388537",
    "ag": "89d09b7089e0b5bc0d32ca89a55258819611835be82795d8794152cda58b5ab4",
    "fixtures": "53c17c022aa5dbd2509325562c104c390d73a8682bd2ca0823c6fc8b1e2d1e3f",
    "seeded relabels": "9e45ee26ddf8c08158cff3df8e1a474f1a075affd58c9c6302825864204ef1a5",
}
ROUTES = list(PARENT_DIGESTS)


def _digest(systems):
    return hashlib.sha256(repr([(s.v, s.triples) for s in systems]).encode()).hexdigest()


@pytest.fixture(scope="module", params=ROUTES)
def route(request):
    return request.param, route_systems(request.param)


class TestTriplesView:
    def test_triples_match_the_filled_tuple(self, route):
        name, systems = route
        assert _digest(systems) == PARENT_DIGESTS[name]
        for s in systems:
            want = reference_triple_system(s.v, s.lines.tolist())[0]
            assert s.triples == tuple(want)
            assert all(type(p) is int for t in s.triples for p in t)
            assert s.lines.dtype == np.int32 and s.lines.shape == (s.b, 3)

    def test_view_is_built_once_and_kept(self, route):
        for s in route[1]:
            assert s.triples is s.triples

    def test_rebuilt_system_is_equal(self, route):
        for s in route[1]:
            again = sl.TripleSystem(s.v, s.triples)
            assert s == again and hash(s) == hash(again)
            shuffled = sl.TripleSystem(s.v, s.lines[::-1][:, ::-1])
            assert s == shuffled and hash(s) == hash(shuffled)


class TestEquality:
    def test_distinct_catalog_systems_compare_unequal(self):
        systems = _fixture_systems() + [catalog.pg(n) for n in range(2, 5)]
        systems += [catalog.ag(n) for n in range(1, 4)]
        for a, b in itertools.combinations(systems, 2):
            same = a.v == b.v and a.triples == b.triples
            assert (a == b) is same and (a != b) is not same
            if same:
                assert hash(a) == hash(b)

    def test_relabel_is_unequal_unless_an_automorphism(self, sts9):
        assert sts9.relabel(list(range(9))) == sts9
        moved = sts9.relabel(_seeded_perm(9, 1))
        assert moved != sts9 and moved.triples != sts9.triples
        assert sts9 != sts9.loop() and sts9 != sts9.triples


def test_lines_are_read_only(sts9):
    for s in (sts9, sl.TripleSystem(9, sts9.triples), catalog.pg(3), sts9.loop().system()):
        assert not s.lines.flags.writeable
        with pytest.raises(ValueError):
            s.lines[0, 0] = 1


class TestNoLibraryPathReadsTheView:
    @pytest.fixture
    def forbid_view(self, monkeypatch):
        def read(self):
            raise AssertionError("the triples view was read")

        def forbid():
            monkeypatch.setattr(sl.TripleSystem, "triples", property(read))

        return forbid

    def test_library_calls(self, forbid_view):
        fano, sts9 = (
            sl.TripleSystem(s.v, s.triples)
            for s in (catalog.fixture("fano_labeled"), catalog.fixture("sts9_labeled"))
        )
        relabelled = sts9.relabel(_seeded_perm(9, 1))
        q, n = sts9.loop(), sl.ElemAbelian2(1)
        beta = point_perm_to_loop_perm(catalog.fixture("beta_465_789"))
        forbid_view()
        doubled = sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
        report = sl.classify(n, q)
        built = [
            sl.build_schreier(n, q, sl.FactorSystem(q, 1, v)).system() for v in report.orbit_reps
        ]
        assert sl.are_isomorphic(sts9, relabelled) is not None
        assert sl.are_isomorphic(built[0], built[1]) is None
        sl.automorphisms(fano)
        sl.automorphisms(built[0])
        f1 = sl.FactorSystem(q, 1, report.orbit_reps[1])
        f2 = f1 + sl.coboundary(sl.Cochain1(q, 1, (0, 1) * 4 + (1,)))
        assert sl.are_equivalent(f1, f2) is not None
        sl.apply_aut(f1, (0, 1), beta)
        sl.census(doubled)
        loop = built[0].loop()
        schreier.factor_system_from_extension(loop, sl.Subloop(loop, {0, 1}))
        for s in [fano, sts9, relabelled, doubled, *built, q.system()]:
            assert s._triples is None

    def test_pasch_switch_reads_no_view(self, forbid_view):
        a = sl.TripleSystem(13, catalog.fixture("sts13_a").lines)
        quad = pasch_configurations(a)[0]
        forbid_view()
        b = _pasch_switch(a, quad)
        assert a._triples is None and b._triples is None


def test_census_then_classify_scans_once(monkeypatch, fano):
    """The system read off s.loop() is s while s lives, so its Pasch scan
    is shared."""
    calls = []
    scan = _kernels.pasch_census
    monkeypatch.setattr(_kernels, "pasch_census", lambda *args: calls.append(1) or scan(*args))
    s = sl.TripleSystem(7, fano.triples)
    sl.census(s)
    sl.classify(sl.ElemAbelian2(1), s.loop())
    assert len(calls) == 1
    assert s.loop().system() is s


def test_loop_without_its_system_reads_one_off(fano):
    loop = sl.TripleSystem(7, fano.triples).loop()  # the system is dropped
    s = loop.system()
    assert s == fano and loop.system() is s


def reference_pasch_switch(s, quad):
    """Test-local oracle: swap the first uncovered pair of the configuration's
    points in ascending order, on the triples tuple."""
    config = [s.triples[i] for i in quad]
    pts = sorted({p for t in config for p in t})
    covered = {frozenset(pair) for t in config for pair in itertools.combinations(t, 2)}
    x, y = next(pair for pair in itertools.combinations(pts, 2) if frozenset(pair) not in covered)
    swap = {x: y, y: x}
    fresh = [tuple(sorted(swap.get(p, p) for p in t)) for t in config]
    rest = [t for i, t in enumerate(s.triples) if i not in set(quad)]
    return sl.TripleSystem(s.v, rest + fresh)


@pytest.mark.parametrize(
    "build",
    [
        lambda: catalog.fixture("sts13_a"),
        lambda: catalog.fixture("sts15_2"),
        lambda: catalog.pg(3),
        lambda: sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11")),
    ],
    ids=["sts13_a", "sts15_2", "pg3", "sts19"],
)
def test_pasch_switch_matches_the_covered_pair_search(build):
    s = build()
    quads = pasch_configurations(s)
    assert quads
    for quad in quads:
        assert _pasch_switch(s, quad).triples == reference_pasch_switch(s, quad).triples


def test_sts13_b_is_the_switch_of_sts13_a():
    a, b = catalog.fixture("sts13_a"), catalog.fixture("sts13_b")
    digest = hashlib.sha256(repr(b.triples).encode()).hexdigest()
    assert digest == "541211feb6f54ef27f8bdf7facd61424abc92ee93c5b42866871cc1637025cce"
    assert sl.are_isomorphic(a, b) is None
