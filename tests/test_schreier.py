import os
import random
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import steinerloops as sl
from steinerloops import catalog, schreier
from steinerloops.design_core import point_perm_to_loop_perm
from steinerloops.errors import (
    BoundExceeded,
    NotAdmissible,
    NotASubloop,
    NotAutomorphism,
    NotCentral,
    OrderTooSmall,
)

from conftest import (
    brute_force_equivalent,
    equivalence_map,
    perm_inverse,
    reference_class_images,
    reference_is_coboundary,
)

P = lambda p: p + 1


@pytest.fixture(scope="module")
def fano_q():
    return catalog.fixture("fano_labeled").loop()


@pytest.fixture(scope="module")
def sts9_q():
    return catalog.fixture("sts9_labeled").loop()


@pytest.fixture(scope="module")
def f_example():
    return catalog.fixture("f_sts15_example")


n1 = sl.ElemAbelian2(1)


class TestEvalFactor:
    def test_example_values(self, f_example):
        # value 1 on the triples {P3,P5,P6} and {P3,P4,P7}
        assert f_example.value(3, 5) == f_example.value(3, 6) == f_example.value(5, 6) == 1
        assert f_example.value(3, 4) == f_example.value(3, 7) == f_example.value(4, 7) == 1

    def test_identity_and_diagonal(self, f_example):
        for p in range(8):
            assert f_example.value(p, p) == 0
            assert f_example.value(p, 0) == 0 == f_example.value(0, p)

    def test_elsewhere_zero(self, f_example):
        assert f_example.value(1, 2) == 0

    @pytest.mark.parametrize("p, r", [(-1, 3), (3, -1), (-1, 8), (10, 3), (3, 10), (0, 10)])
    def test_element_outside_the_quotient_rejected(self, p, r):
        """Over the sts9 quotient (m = 10), -1 no longer reads element 8
        through a negative index, nor (-1, 8) the diagonal's -1."""
        f = catalog.fixture("f1_sts9")
        bad = p if not 0 <= p < 10 else r
        with pytest.raises(ValueError, match=rf"^element {bad} outside 0\.\.9$"):
            f.value(p, r)

    def test_symmetry_and_triple_constancy(self, f_example):
        q = f_example.q
        for p in range(1, 8):
            for r in range(1, 8):
                assert f_example.value(p, r) == f_example.value(r, p)
                if p != r:
                    s = q.mul(p, r)
                    assert f_example.value(p, r) == f_example.value(p, s)


class TestBuildSchreier:
    def test_gives_sts15_2(self, fano_q, f_example, sts15_2):
        loop = sl.build_schreier(n1, fano_q, f_example)
        assert loop.n == 16
        assert sl.are_isomorphic(loop.system(), sts15_2) is not None

    def test_printed_nonassociativity_witness(self, fano_q, f_example):
        loop = sl.build_schreier(n1, fano_q, f_example)
        lhs = loop.mul(loop.mul(2, 4), 8)  # ((P1,0).(P2,0)).(P4,0)
        rhs = loop.mul(2, loop.mul(4, 8))
        assert divmod(lhs, 2) == (7, 1)
        assert divmod(rhs, 2) == (7, 0)

    def test_zero_gives_projective(self, fano_q):
        loop = sl.build_schreier(n1, fano_q, sl.zero_factor_system(n1, fano_q))
        assert loop.is_associative()
        assert sl.are_isomorphic(loop.system(), catalog.pg(3)) is not None

    def test_zero_over_sts9_has_one_veblen(self, sts9_q):
        loop = sl.build_schreier(n1, sts9_q, sl.zero_factor_system(n1, sts9_q))
        assert sl.veblen_points(loop.system()) == {0}

    def test_embedded_group_is_central(self, fano_q, f_example):
        loop = sl.build_schreier(n1, fano_q, f_example)
        assert {0, 1} <= loop.center()

    def test_quotient_recovers_q(self, fano_q, f_example):
        loop = sl.build_schreier(n1, fano_q, f_example)
        q = sl.quotient(loop, sl.subloop(loop, {0, 1}))
        assert sl.are_isomorphic(q.loop.system(), fano_q.system()) is not None


class TestFactorSystemFromExtension:
    @pytest.mark.parametrize("key", ["fano_labeled", "sts9_labeled", "sts3"])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_round_trips_build_schreier(self, key, t):
        q = (sl.validate_system(3, [(0, 1, 2)]) if key == "sts3" else catalog.fixture(key)).loop()
        rng = random.Random(100 * t + len(key))
        for _ in range(3):
            f = sl.FactorSystem(q, t, [rng.randrange(1 << t) for _ in range(q.system().b)])
            loop = sl.build_schreier(sl.ElemAbelian2(t), q, f)
            got = schreier.factor_system_from_extension(loop, sl.subloop(loop, range(1 << t)))
            assert got.t == t and got.values == f.values
            assert (got.q.table == q.table).all()

    def test_greedy_basis_of_a_relabelled_centre(self, fano_q):
        """A centre whose sorted members are not 0..2^t - 1 gets coordinates
        from its greedy basis; the result is a factor system of an
        isomorphic extension."""
        f = catalog.fixture("f_sts15_example")
        s = sl.build_schreier(n1, fano_q, f).system()
        perm = list(range(s.v))
        random.Random(2).shuffle(perm)
        loop = s.relabel(perm).loop()
        got = schreier.factor_system_from_extension(loop, sl.subloop(loop, loop.center()))
        assert got.t == 1 and got.q.n == 8
        rebuilt = sl.build_schreier(n1, got.q, got).system()
        assert sl.are_isomorphic(rebuilt, s) is not None

    def test_whole_loop_leaves_no_quotient_system(self):
        loop = catalog.pg(2).loop()
        with pytest.raises(NotAdmissible):
            schreier.factor_system_from_extension(loop, sl.subloop(loop, range(8)))

    def test_non_central_refused(self, sts9_q):
        with pytest.raises(NotCentral):
            schreier.factor_system_from_extension(sts9_q, sl.subloop(sts9_q, {0, 1}))

    def test_subloop_of_another_loop_checked(self, fano_q, sts9_q):
        # the line {0, 3, 4} of the plane is no line of sts9
        with pytest.raises(NotASubloop):
            schreier.factor_system_from_extension(sts9_q, sl.subloop(fano_q, {0, 1, 4, 5}))


class TestClassIndex:
    @pytest.mark.parametrize("key, t", [("fano_labeled", 2), ("sts9_labeled", 1)])
    def test_indexes_classify_list(self, key, t):
        """Each class representative, and each of its coboundary shifts,
        has its own position in classify's list as index."""
        q = catalog.fixture(key).loop()
        rep = sl.classify(sl.ElemAbelian2(t), q)
        rng = random.Random(t)
        for i, vals in enumerate(rep.class_reps):
            f = sl.FactorSystem(q, t, vals)
            phi = sl.Cochain1(q, t, tuple(rng.randrange(1 << t) for _ in range(q.n - 1)))
            assert schreier._class_index(f) == i
            assert schreier._class_index(f + sl.coboundary(phi)) == i


class TestCoboundary:
    def test_zero_cochain(self, fano_q):
        phi = sl.Cochain1(fano_q, 1, (0,) * 7)
        assert sl.coboundary(phi).values == (0,) * 7

    def test_indicator_of_point(self, fano_q):
        phi = sl.Cochain1(fano_q, 1, tuple(1 if j == 0 else 0 for j in range(7)))
        f = sl.coboundary(phi)
        qs = fano_q.system()
        for i, tri in enumerate(qs.triples):
            assert f.values[i] == (1 if 0 in tri else 0)

    def test_additive(self, fano_q):
        phi = sl.Cochain1(fano_q, 1, (1, 0, 1, 1, 0, 0, 1))
        psi = sl.Cochain1(fano_q, 1, (0, 1, 1, 0, 1, 0, 0))
        lhs = sl.coboundary(phi + psi)
        rhs = sl.coboundary(phi) + sl.coboundary(psi)
        assert lhs.values == rhs.values

    @pytest.mark.parametrize("values", [(5, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, -1)])
    def test_value_outside_the_group_rejected(self, fano_q, values):
        """5 would make equivalence_map send (P, x) outside its coset."""
        with pytest.raises(ValueError, match="cochain value out of range for the 2-group"):
            sl.Cochain1(fano_q, 1, values)
        phi = sl.Cochain1(fano_q, 3, (5, 0, 0, 0, 0, 0, 7))
        assert sorted(equivalence_map(phi, 8)) == list(range(64))

    @pytest.mark.parametrize("p", [-1, 10])
    def test_at_outside_the_quotient_rejected(self, p):
        q = catalog.fixture("f1_sts9").q
        phi = sl.Cochain1(q, 2, tuple(range(3)) * 3)
        assert [phi.at(x) for x in range(10)] == [0] + list(range(3)) * 3
        with pytest.raises(ValueError, match=rf"^element {p} outside 0\.\.9$"):
            phi.at(p)

    def test_kernel_is_hom_set(self, fano_q):
        homs = {h[1:] for h in sl.hom_set(fano_q, n1)}
        kernel = set()
        for code in range(1 << 7):
            vals = tuple((code >> j) & 1 for j in range(7))
            if sl.coboundary(sl.Cochain1(fano_q, 1, vals)).values == (0,) * 7:
                kernel.add(vals)
        assert kernel == homs


class TestIsCoboundary:
    def test_zero(self, fano_q):
        phi = sl.is_coboundary(sl.zero_factor_system(n1, fano_q))
        assert phi is not None and sl.coboundary(phi).values == (0,) * 7

    def test_sts9_pair_inconsistent(self):
        f1 = catalog.fixture("f1_sts9")
        f2 = catalog.fixture("f2_sts9")
        assert sl.is_coboundary(f1 + f2) is None

    def test_recovers_any_coboundary(self, fano_q):
        phi = sl.Cochain1(fano_q, 1, (1, 1, 0, 1, 0, 0, 1))
        f = sl.coboundary(phi)
        psi = sl.is_coboundary(f)
        assert psi is not None and sl.coboundary(psi).values == f.values

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("key", ["fano_labeled", "sts9_labeled", "sts13_a", "sts15_2"])
    def test_matches_per_plane_solve(self, key, t):
        """On related and unrelated drawn pairs the stored elimination gives
        exactly the phi of gf2.solve per bit plane, and None exactly when
        some plane has no solution. Over the plane and sts15_2 the triple
        rows have a kernel, so phi is not unique there."""
        q = catalog.fixture(key).loop()
        verdicts = set()
        for f1, f2, _ in _drawn_pairs(q, t, random.Random(f"solve-{key}-{t}"), count=20):
            want = reference_is_coboundary(f1 + f2)
            phi = sl.is_coboundary(f1 + f2)
            assert (None if phi is None else phi.values) == want
            verdicts.add(want is None)
        assert verdicts == {False, True}

    def test_class_sets_are_consistency_conditions(self):
        """Each consistency set sums the triple rows to 0, and the points
        whose triple set holds a pivot form a cochain whose coboundary is
        the basis row of that pivot."""
        for key in ("fano_labeled", "sts9_labeled", "sts13_a", "sts15_2"):
            qs = catalog.fixture(key)
            e = schreier._elimination(qs)
            rows = schreier._triple_point_rows(qs)
            for cells in e.class_sets:
                total = 0
                for i in cells:
                    total ^= rows[i]
                assert total == 0
            assert len(e.class_sets) == qs.b - len(e.basis) == len(e.free)
            for row, pivot in zip(e.basis, e.pivots):
                phi = sum(1 << p for p, cells in enumerate(e.point_sets) if pivot in cells)
                assert sum((r & phi).bit_count() % 2 << j for j, r in enumerate(rows)) == row


class TestOneElimination:
    """The linear algebra of a quotient system is done once and stored on
    it; every later question reads it without a gf2.echelonize call."""

    @pytest.fixture
    def echelonize_calls(self, monkeypatch):
        calls = []
        echelonize = schreier.gf2.echelonize

        def counted(rows, n_cols):
            calls.append(n_cols)
            return echelonize(rows, n_cols)

        monkeypatch.setattr(schreier.gf2, "echelonize", counted)
        return calls

    @staticmethod
    def fresh_loop(key):
        s = catalog.fixture(key)
        return sl.TripleSystem(s.v, s.triples).loop()

    @pytest.mark.parametrize("key", ["sts9_labeled", "sts15_2"])
    def test_second_are_equivalent_makes_no_elimination(self, echelonize_calls, key):
        q = self.fresh_loop(key)
        pairs = list(_drawn_pairs(q, 2, random.Random(key)))
        sl.are_equivalent(*pairs[0][:2])
        assert 0 < len(echelonize_calls) <= 2
        echelonize_calls.clear()
        for f1, f2, _ in pairs:
            sl.are_equivalent(f1, f2)
            sl.is_coboundary(f1)
        assert echelonize_calls == []

    def test_nothing_after_classify(self, echelonize_calls):
        q, n = self.fresh_loop("sts9_labeled"), sl.ElemAbelian2(2)
        rep = sl.classify(n, q)
        echelonize_calls.clear()
        assert sl.count_nonequivalent(n, q) == rep.equivalence_class_count
        for i, vals in enumerate(rep.class_reps):
            assert schreier._class_index(sl.FactorSystem(q, 2, vals)) == i
        sl.hom_set(q, n)
        assert echelonize_calls == []

    def test_one_elimination_serves_classify_and_are_equivalent(self, echelonize_calls):
        """classify makes the stored elimination, besides the rank tests of
        gl2_elements on t = 1 columns; are_equivalent after it makes none."""
        q = self.fresh_loop("fano_labeled")
        sl.classify(sl.ElemAbelian2(1), q)
        # the triple rows over v = 7 columns, the tagged point rows over b + v
        assert sorted(c for c in echelonize_calls if c > 1) == [7, 7 + 7]
        echelonize_calls.clear()
        for f1, f2, _ in _drawn_pairs(q, 1, random.Random(3)):
            sl.are_equivalent(f1, f2)
        assert echelonize_calls == []


    def test_gl2_built_once_per_t(self, echelonize_calls):
        """GL(t,2) is one sorted tuple per t, built on first use: a classify
        over a fresh quotient after it makes no rank test, only the two
        eliminations. The dimension bound is still refused."""
        for t, order in ((0, 1), (1, 1), (2, 6), (3, 168)):
            group = schreier.gl2_elements(t)
            assert schreier.gl2_elements(t) is group and len(group) == order
            assert list(group) == sorted(set(group)) and isinstance(group[0], tuple)
        echelonize_calls.clear()
        sl.classify(sl.ElemAbelian2(3), self.fresh_loop("fano_labeled"))
        assert sorted(echelonize_calls) == [7, 7 + 7]
        with pytest.raises(BoundExceeded, match="dimension 4"):
            schreier.gl2_elements(5)


class TestAreEquivalent:
    def test_reflexive(self, f_example):
        phi = sl.are_equivalent(f_example, f_example)
        assert phi is not None and set(phi.values) == {0}

    def test_shift_by_coboundary(self, fano_q, f_example):
        phi = sl.Cochain1(fano_q, 1, (0, 1, 1, 0, 1, 0, 1))
        assert sl.are_equivalent(f_example, f_example + sl.coboundary(phi)) is not None

    def test_sts9_pair_not_equivalent(self):
        assert sl.are_equivalent(catalog.fixture("f1_sts9"), catalog.fixture("f2_sts9")) is None

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("key", ["fano_labeled", "sts9_labeled", "sts13_a"])
    def test_witness_induces_an_isomorphism(self, key, t):
        """Each returned phi carries the built extension of f1 onto that of
        f2 by (P, x) -> (P, x + phi(P)); a None verdict comes only for pairs
        in different classes."""
        q = catalog.fixture(key).loop()
        n = sl.ElemAbelian2(t)
        verdicts = set()
        for f1, f2, related in _drawn_pairs(q, t, random.Random(f"{key}-{t}")):
            phi = sl.are_equivalent(f1, f2)
            same_class = schreier._class_index(f1) == schreier._class_index(f2)
            assert (phi is not None) == same_class and (same_class or not related)
            verdicts.add(phi is None)
            if phi is None:
                continue
            sigma = np.array(equivalence_map(phi, n.size))
            t1 = sl.build_schreier(n, q, f1).table
            t2 = sl.build_schreier(n, q, f2).table
            assert np.array_equal(sigma[t1], t2[sigma[:, None], sigma[None, :]])
        assert verdicts == {False, True}

    def test_builds_no_extension(self, monkeypatch, sts9_q):
        pairs = [(f1, f2) for f1, f2, _ in _drawn_pairs(sts9_q, 2, random.Random(5))]
        want = [sl.are_equivalent(f1, f2) for f1, f2 in pairs]
        monkeypatch.setattr(schreier, "build_schreier", _refuse)
        monkeypatch.setattr(schreier, "_extension_table", _refuse)
        assert [sl.are_equivalent(f1, f2) for f1, f2 in pairs] == want

    @pytest.mark.parametrize("key", ["fano_labeled", "sts9_labeled"])
    def test_wrong_witness_raises(self, monkeypatch, key):
        """Flipping any one bit of any one value of the solved phi is caught."""
        q = catalog.fixture(key).loop()
        f1 = sl.FactorSystem(q, 2, [j % 4 for j in range(q.system().b)])
        f2 = f1 + sl.coboundary(sl.Cochain1(q, 2, tuple(j % 3 for j in range(q.n - 1))))
        solve = schreier.is_coboundary
        for j, bit in product(range(q.n - 1), (1, 2)):

            def flipped(diff, j=j, bit=bit):
                phi = solve(diff)
                values = phi.values[:j] + (phi.values[j] ^ bit,) + phi.values[j + 1 :]
                return sl.Cochain1(phi.q, phi.t, values)

            monkeypatch.setattr(schreier, "is_coboundary", flipped)
            with pytest.raises(AssertionError, match="coboundary witness failed to induce"):
                sl.are_equivalent(f1, f2)


def _refuse(*args):
    raise AssertionError("an extension was built")


def _drawn_pairs(q, t, rng, count=6):
    """(f1, f2, related): count pairs f, f + delta phi (related) and count
    pairs of independently drawn values (mostly in different classes)."""
    b, size = q.system().b, 1 << t
    draw = lambda: sl.FactorSystem(q, t, [rng.randrange(size) for _ in range(b)])
    for _ in range(count):
        f = draw()
        phi = sl.Cochain1(q, t, tuple(rng.randrange(size) for _ in range(q.n - 1)))
        yield f, f + sl.coboundary(phi), True
        yield f, draw(), False


class TestFrames:
    """Sums of factor systems and of cochains need one quotient table and one t."""

    @pytest.fixture(scope="class")
    def relabelled_q(self, fano):
        q = fano.relabel((1, 0, 2, 3, 4, 5, 6)).loop()
        assert not np.array_equal(q.table, fano.loop().table)
        return q

    def test_equal_but_distinct_quotient(self, fano_q):
        twin = sl.SteinerLoop(fano_q.table.copy())
        f = sl.FactorSystem(fano_q, 2, (1, 2, 3, 0, 1, 2, 3))
        g = sl.FactorSystem(twin, 2, (3, 3, 1, 1, 0, 0, 2))
        assert (f + g).values == (2, 1, 2, 1, 1, 2, 1)
        phi = sl.Cochain1(fano_q, 2, (1, 2, 3, 0, 1, 2, 3))
        psi = sl.Cochain1(twin, 2, (3, 3, 1, 1, 0, 0, 2))
        assert (phi + psi).values == (2, 1, 2, 1, 1, 2, 1)

    def test_different_table_refused(self, fano_q, relabelled_q):
        f, g = (sl.FactorSystem(q, 1, (1, 0, 0, 1, 0, 0, 1)) for q in (fano_q, relabelled_q))
        with pytest.raises(ValueError, match="factor systems live over different frames"):
            f + g
        phi, psi = (sl.Cochain1(q, 1, (1, 0, 0, 1, 0, 0, 1)) for q in (fano_q, relabelled_q))
        with pytest.raises(ValueError, match="cochains live over different frames"):
            phi + psi

    @pytest.mark.parametrize("t1, t2", [(2, 1), (1, 2)])
    def test_different_dimension_refused(self, fano_q, t1, t2):
        f, g = (sl.FactorSystem(fano_q, t, (1,) * 7) for t in (t1, t2))
        with pytest.raises(ValueError, match="factor systems live over different frames"):
            f + g
        phi, psi = (sl.Cochain1(fano_q, t, (1,) * 7) for t in (t1, t2))
        with pytest.raises(ValueError, match="cochains live over different frames"):
            phi + psi


class TestDerivedFactorSystems:
    """Sums, coboundaries and automorphism images skip the entry checks and
    equal what the checked constructor makes of their values."""

    @staticmethod
    def _same_as_checked(f):
        checked = sl.FactorSystem(f.q, f.t, f.values)
        assert f == checked and hash(f) == hash(checked) and repr(f) == repr(checked)
        assert type(f.values) is tuple and all(type(x) is int for x in f.values)
        assert f.q_system is checked.q_system

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_match_the_checked_constructor(self, fano_q, t):
        rng = random.Random(t)
        phi = sl.Cochain1(fano_q, t, tuple(rng.randrange(1 << t) for _ in range(7)))
        f = sl.FactorSystem(fano_q, t, [rng.randrange(1 << t) for _ in range(7)])
        auts = sl.automorphisms(fano_q.system())
        beta = point_perm_to_loop_perm(auts.generators[0])
        alpha = schreier.gl2_elements(t)[-1]
        for g in (
            sl.coboundary(phi),
            f + sl.coboundary(phi),
            sl.apply_aut(f, alpha, beta),
            sl.apply_aut(f, np.array(alpha), beta),
        ):
            self._same_as_checked(g)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((0,) * 6, "expected 7 triple values, got 6"),
            ((0, 0, 0, 4, 0, 0, 0), "triple value out of range for the 2-group"),
            ((0, 0, 0, 0, 0, 0, -1), "triple value out of range for the 2-group"),
        ],
    )
    def test_constructor_keeps_its_checks(self, fano_q, values, message):
        with pytest.raises(ValueError, match=message):
            sl.FactorSystem(fano_q, 2, values)


class TestEnumerate:
    def test_fano_t1(self, fano_q):
        fs = list(sl.enumerate_factor_systems(n1, fano_q))
        assert len(fs) == 128
        assert len({f.values for f in fs}) == 128

    def test_sts3_t1(self, sts3):
        assert sum(1 for _ in sl.enumerate_factor_systems(n1, sts3.loop())) == 2

    def test_fano_t2_count(self, fano_q):
        n2 = sl.ElemAbelian2(2)
        assert sum(1 for _ in sl.enumerate_factor_systems(n2, fano_q)) == 1 << 14

    def test_bound(self, sts9_q):
        with pytest.raises(BoundExceeded):
            list(sl.enumerate_factor_systems(sl.ElemAbelian2(3), sts9_q))


class TestHomSet:
    def test_fano_to_z2(self, fano_q):
        homs = sl.hom_set(fano_q, n1)
        assert len(homs) == 8
        for h in homs:
            for x in range(8):
                for y in range(8):
                    assert h[fano_q.mul(x, y)] == h[x] ^ h[y]

    def test_sts9_only_trivial(self, sts9_q):
        assert sl.hom_set(sts9_q, n1) == [(0,) * 10]

    def test_dimension_zero(self, fano_q):
        assert len(sl.hom_set(fano_q, sl.ElemAbelian2(0))) == 1

    def test_dimension_bound(self):
        """pg(4)'s loop has a 5-dimensional kernel: at t = 5 there are 2^25
        homomorphisms, refused before any is listed."""
        with pytest.raises(BoundExceeded) as got:
            sl.hom_set(catalog.pg(4).loop(), sl.ElemAbelian2(5))
        assert str(got.value) == "33554432 homomorphisms exceed bound 65536"

    def test_count_bound(self, monkeypatch):
        """The bound is the class count classify and enumerate cap: pg(4) at
        t = 4 has 2^20 homomorphisms and is refused without a listing."""
        monkeypatch.setattr(schreier.gf2, "span", lambda *a: pytest.fail("listed"))
        with pytest.raises(BoundExceeded) as got:
            sl.hom_set(catalog.pg(4).loop(), sl.ElemAbelian2(4))
        assert str(got.value) == "1048576 homomorphisms exceed bound 65536"

    @pytest.mark.parametrize(
        "key, t", [("pg2", 2), ("sts9_labeled", 2), ("pg3", 2), ("pg4", 2), ("sts3", 3)]
    )
    def test_lists_every_homomorphism_once(self, key, t):
        """Sorted, pairwise distinct, each a homomorphism into the t-bit
        group, and 2^(dim t) of them, dim being the kernel's dimension."""
        if key == "sts3":
            q = sl.TripleSystem(3, [(0, 1, 2)]).loop()
        elif key.startswith("pg"):
            q = catalog.pg(int(key[2:])).loop()
        else:
            q = catalog.fixture(key).loop()
        homs = sl.hom_set(q, sl.ElemAbelian2(t))
        dim = len(schreier._elimination(q.system()).kernel)
        assert len(homs) == len(set(homs)) == 1 << (dim * t)
        assert homs == sorted(homs)
        h = np.array(homs)
        assert (h[:, 0] == 0).all() and (h < 1 << t).all()
        assert (h[:, q.table] == h[:, :, None] ^ h[:, None, :]).all()

    def test_trivial_kernel_at_any_t(self):
        """A loop whose only homomorphism into Z_2 is 0 has only 0 at any
        t, however many bit planes that is."""
        q = catalog.fixture("sts13_a").loop()
        assert sl.hom_set(q, sl.ElemAbelian2(70)) == [(0,) * 14]

    def test_kernels_are_normal_subloops(self, fano_q):
        for h in sl.hom_set(fano_q, n1):
            kernel = {x for x in range(8) if h[x] == 0}
            sub = sl.subloop(fano_q, kernel)  # raises if not closed
            assert sl.is_normal(fano_q, sub)
            assert 8 % len(kernel) == 0 and 8 // len(kernel) in (1, 2)


class TestCountNonequivalent:
    def test_fano(self, fano_q):
        assert sl.count_nonequivalent(n1, fano_q) == 8

    def test_sts9(self, sts9_q):
        assert sl.count_nonequivalent(n1, sts9_q) == 8

    def test_t0(self, fano_q):
        assert sl.count_nonequivalent(sl.ElemAbelian2(0), fano_q) == 1

    @pytest.mark.parametrize("t", range(1, 7))
    def test_counts_up_to_t6(self, fano_q, sts9_q, t):
        """2^(3t) classes over both (b - r = 3); |Hom| is 2^(3t) over the
        plane (kernel dimension 3) and 1 over sts9, and for t <= 3 the
        listed homomorphisms agree."""
        n = sl.ElemAbelian2(t)
        for q, kernel_dim in ((fano_q, 3), (sts9_q, 0)):
            assert sl.count_nonequivalent(n, q) == 1 << (3 * t)
            hom_count = schreier._class_space(n, q)[2]
            assert hom_count == 1 << (kernel_dim * t)
            if t <= 3:
                assert hom_count == len(sl.hom_set(q, n))

    def test_cross_check_survives_python_O(self):
        """The closed form is checked against |Hom| by an explicit raise,
        which python -O does not strip, in count_nonequivalent and in
        classify alike."""
        script = (
            "import steinerloops as sl\n"
            "from steinerloops import catalog, schreier\n"
            "assert False, 'this line runs only without -O'\n"
            "schreier.gf2.nullspace_basis = lambda *args: [1, 2]\n"
            "q = catalog.fixture('fano_labeled').loop()\n"
            "for fn in (schreier.count_nonequivalent, schreier.classify):\n"
            "    try:\n"
            "        fn(sl.ElemAbelian2(1), q)\n"
            "    except AssertionError as exc:\n"
            "        print(fn.__name__, exc)\n"
        )
        src = os.path.dirname(os.path.dirname(sl.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"{name} class count disagrees with the homomorphism count"
            for name in ("count_nonequivalent", "classify")
        ]

    def test_rank_check_survives_t0(self, monkeypatch):
        """At t = 0 the class count always agrees; the ranks of the two
        eliminations are still compared."""
        s = catalog.fixture("fano_labeled")
        q = sl.TripleSystem(s.v, s.triples).loop()
        monkeypatch.setattr(schreier.gf2, "nullspace_basis", lambda *args: [1, 2])
        with pytest.raises(AssertionError, match="coboundary rank disagrees"):
            sl.count_nonequivalent(sl.ElemAbelian2(0), q)


class TestApplyAut:
    def test_identity(self, f_example):
        g = sl.apply_aut(f_example, (0, 1), tuple(range(8)))
        assert g.values == f_example.values

    def test_printed_f2(self, sts9_q):
        f1 = catalog.fixture("f1_sts9")
        beta = point_perm_to_loop_perm(catalog.fixture("beta_465_789"))
        g = sl.apply_aut(f1, (0, 1), perm_inverse(beta))
        f2 = catalog.fixture("f2_sts9")
        assert g.values == f2.values
        assert g.value(3, 4) == g.value(3, 8) == g.value(4, 8) == 1

    def test_action_law(self, f_example):
        auts = sl.automorphisms(f_example.q_system)
        b1 = point_perm_to_loop_perm(auts.elements[5])
        b2 = point_perm_to_loop_perm(auts.elements[17])
        ida = (0, 1)
        one = sl.apply_aut(sl.apply_aut(f_example, ida, b1), ida, b2)
        composed = tuple(b2[b1[i]] for i in range(8))
        two = sl.apply_aut(f_example, ida, composed)
        assert one.values == two.values

    def test_triple_values_preserved_setwise(self, f_example):
        auts = sl.automorphisms(f_example.q_system)
        beta = point_perm_to_loop_perm(auts.elements[3])
        g = sl.apply_aut(f_example, (0, 1), beta)
        assert sorted(g.values) == sorted(f_example.values)

    def test_rejects_non_automorphism(self, f_example):
        with pytest.raises(NotAutomorphism):
            sl.apply_aut(f_example, (1, 0), tuple(range(8)))
        with pytest.raises(NotAutomorphism):
            sl.apply_aut(f_example, (0, 1), (0, 2, 1, 3, 4, 5, 6, 7))

    def test_rejects_non_additive_alpha(self, fano_q):
        """A permutation of Z_2^3 that fixes 0 but swaps 3 = 1 + 2 with 4 is
        refused by apply_aut, though classify no longer checks the GL(t,2)
        elements it builds itself."""
        f = sl.FactorSystem(fano_q, 3, [1, 2, 3, 4, 5, 6, 7])
        alpha = (0, 1, 2, 4, 3, 5, 6, 7)
        with pytest.raises(NotAutomorphism, match="not additive"):
            sl.apply_aut(f, alpha, tuple(range(8)))
        assert alpha not in schreier.gl2_elements(3)
        assert sl.apply_aut(f, schreier.gl2_elements(3)[1], tuple(range(8))).t == 3


class TestClassify:
    def test_fano_t1(self, fano_q, sts15_2):
        rep = sl.classify(n1, fano_q)
        assert rep.total == 128
        assert rep.hom_count == 8
        assert rep.b2_count == 16
        assert rep.equivalence_class_count == 8
        assert rep.isomorphism_class_count == 2
        kinds = set()
        for vals in rep.orbit_reps:
            s = sl.build_schreier(n1, fano_q, sl.FactorSystem(fano_q, 1, vals)).system()
            if sl.are_isomorphic(s, catalog.pg(3)):
                kinds.add("pg3")
            elif sl.are_isomorphic(s, sts15_2):
                kinds.add("sts15_2")
        assert kinds == {"pg3", "sts15_2"}

    def test_witnesses_verify(self, fano_q):
        rep = sl.classify(n1, fano_q)
        for i, vals in enumerate(rep.class_reps):
            alpha, beta = rep.witnesses[i]
            orig = sl.FactorSystem(fano_q, 1, rep.orbit_reps[rep.orbit_of_class[i]])
            moved = sl.apply_aut(orig, alpha, beta)
            assert sl.are_equivalent(moved, sl.FactorSystem(fano_q, 1, vals)) is not None

    def test_orbits_build_isomorphic_systems(self, fano_q):
        rep = sl.classify(n1, fano_q)
        built = [
            sl.build_schreier(n1, fano_q, sl.FactorSystem(fano_q, 1, vals)).system()
            for vals in rep.class_reps
        ]
        for i in range(len(built)):
            for j in range(i + 1, len(built)):
                same_orbit = rep.orbit_of_class[i] == rep.orbit_of_class[j]
                iso = sl.are_isomorphic(built[i], built[j]) is not None
                assert iso == same_orbit

    def test_sts3_collapse(self, sts3):
        q = sts3.loop()
        rep = sl.classify(n1, q)
        assert rep.equivalence_class_count == sl.count_nonequivalent(n1, q)
        for vals in rep.class_reps:
            loop = sl.build_schreier(n1, q, sl.FactorSystem(q, 1, vals))
            assert loop.is_associative()
            assert sl.are_isomorphic(loop.system(), catalog.pg(2)) is not None

    def test_t0_trivial(self, fano_q):
        rep = sl.classify(sl.ElemAbelian2(0), fano_q)
        assert rep.total == 1
        assert rep.equivalence_class_count == 1
        assert rep.isomorphism_class_count == 1

    def test_group_size_identities(self, fano_q, sts9_q):
        for q, t in ((fano_q, 1), (fano_q, 2), (sts9_q, 1)):
            rep = sl.classify(sl.ElemAbelian2(t), q)
            w = q.n - 1
            # size of the coboundary group times the hom count is 2^(t*w)
            assert rep.b2_count * rep.hom_count == 1 << (t * w)
            assert rep.equivalence_class_count * rep.b2_count == rep.total

    def test_fano_t2_orbits(self, fano_q):
        """Order-31 extensions of the plane: three extension types whose
        systems are pairwise distinct, with 31 or 3 Veblen points (never an
        intermediate power)."""
        n2 = sl.ElemAbelian2(2)
        rep = sl.classify(n2, fano_q)
        assert rep.isomorphism_class_count == 3
        systems = [
            sl.build_schreier(n2, fano_q, sl.FactorSystem(fano_q, 2, vals)).system()
            for vals in rep.orbit_reps
        ]
        counts = sorted(len(sl.veblen_points(s)) for s in systems)
        assert counts == [3, 3, 31]
        for i in range(3):
            for j in range(i + 1, 3):
                assert sl.are_isomorphic(systems[i], systems[j]) is None

    def test_bound(self, sts9_q):
        with pytest.raises(BoundExceeded):
            sl.classify(sl.ElemAbelian2(3), sts9_q)

    def test_class_bound(self):
        """t*b = 52 is within a raised t*b bound, but 2^(2*13) classes are
        refused before any representative is listed."""
        q = catalog.fixture("sts13_a").loop()
        with pytest.raises(BoundExceeded) as got:
            sl.classify(sl.ElemAbelian2(2), q, tb_bound=100)
        assert str(got.value) == "67108864 equivalence classes exceed bound 65536"

    def test_single_class_builds_no_generators(self, sts3, fano, pg3, monkeypatch):
        """With t(b-r) = 0 there is one class and nothing to act on, so
        neither GL(t,2) nor Aut(q) is enumerated, also for t = 0 over a
        quotient with free triples and a large Aut(q)."""

        def forbidden(*args, **kwargs):
            raise AssertionError("generators built for a single class")

        monkeypatch.setattr(schreier, "gl2_elements", forbidden)
        monkeypatch.setattr(schreier, "automorphisms", forbidden)
        for qs, t in ((sts3, 4), (fano, 0), (pg3, 0)):
            q = qs.loop()
            rep = sl.classify(sl.ElemAbelian2(t), q)
            assert rep.equivalence_class_count == rep.isomorphism_class_count == 1
            assert rep.class_reps == rep.orbit_reps == ((0,) * qs.b,)
            assert rep.witnesses == ((tuple(range(1 << t)), tuple(range(q.n))),)

    def test_never_lists_the_group(self, fano, sts9, monkeypatch):
        """classify, and with it the centre route of are_isomorphic, reads
        only the generators of Aut(q): listing the elements of any group
        fails the test."""
        reps = {}
        for qs, t in ((fano, 1), (fano, 2), (sts9, 1), (sts9, 2)):
            reps[qs.v, t] = sl.classify(sl.ElemAbelian2(t), qs.loop())

        def forbidden(group):
            raise AssertionError("group elements listed")

        groups = []
        automorphisms = schreier.automorphisms
        monkeypatch.setattr(sl.PermGroup, "elements", property(forbidden))
        monkeypatch.setattr(
            schreier, "automorphisms", lambda s: groups.append(s) or automorphisms(s)
        )
        for qs, t in ((fano, 1), (fano, 2), (sts9, 1), (sts9, 2)):
            assert sl.classify(sl.ElemAbelian2(t), qs.loop()) == reps[qs.v, t]
        counts = [(r.equivalence_class_count, r.isomorphism_class_count) for r in reps.values()]
        assert counts == [(8, 2), (64, 3), (8, 3), (64, 5)]
        q = sts9.loop()
        a, b = (
            sl.build_schreier(n1, q, sl.FactorSystem(q, 1, vals)).system()
            for vals in reps[9, 1].orbit_reps[:2]
        )
        assert sl.are_isomorphic(a, b) is None
        assert len(groups) == 5  # four classify calls, then the rejection's quotient

    @pytest.mark.parametrize(
        "key, t", [("fano", 1), ("sts9", 1), ("sts3", 1), ("sts3", 2), ("sts3", 3)]
    )
    def test_burnside_orbit_count(self, request, key, t):
        """Orbit count = mean number of classes fixed by an (alpha, beta)
        of GL(t,2) x Aut(q); f's class is fixed iff g.f + f is a coboundary."""
        qs = request.getfixturevalue(key)
        q = qs.loop()
        n = sl.ElemAbelian2(t)
        rep = sl.classify(n, q)
        classes = [sl.FactorSystem(q, t, vals) for vals in rep.class_reps]
        betas = [point_perm_to_loop_perm(g) for g in sl.automorphisms(qs).elements]
        alphas = schreier.gl2_elements(t)
        fixed = sum(
            sl.is_coboundary(sl.apply_aut(f, alpha, beta) + f) is not None
            for alpha in alphas
            for beta in betas
            for f in classes
        )
        group_order = len(alphas) * len(betas)
        assert fixed % group_order == 0
        assert fixed // group_order == rep.isomorphism_class_count

    @pytest.mark.parametrize("key, t", [("fano", 2), ("fano", 3), ("sts9", 2)])
    def test_action_read_off_the_triple_table(self, request, monkeypatch, key, t):
        """No FactorSystem is built and apply_aut is never called, and no
        alpha or beta is checked: GL(t,2) and the generators of Aut(Q) come
        from the library."""
        qs = request.getfixturevalue(key)
        q = qs.loop()
        checks = {"alpha": 0, "beta": 0}
        check_alpha, check_beta = schreier._check_alpha, schreier._check_beta

        def forbidden(*args, **kwargs):
            raise AssertionError("classify went through a FactorSystem")

        def counted_alpha(*args):
            checks["alpha"] += 1
            check_alpha(*args)

        def counted_beta(*args):
            checks["beta"] += 1
            check_beta(*args)

        monkeypatch.setattr(schreier, "apply_aut", forbidden)
        monkeypatch.setattr(schreier.FactorSystem, "__init__", forbidden)
        monkeypatch.setattr(schreier, "_check_alpha", counted_alpha)
        monkeypatch.setattr(schreier, "_check_beta", counted_beta)
        rep = sl.classify(sl.ElemAbelian2(t), q)
        monkeypatch.undo()
        assert checks == {"alpha": 0, "beta": 0}
        assert rep.equivalence_class_count > 1

    @pytest.mark.parametrize("relabel", [False, True], ids=["labeled", "relabeled"])
    @pytest.mark.parametrize(
        "key, t",
        [("fano", 1), ("fano", 2), ("fano", 3), ("sts9", 1), ("sts9", 2),
         ("sts3", 1), ("sts3", 2), ("sts3", 3), ("sts13_a", 1)],
    )
    def test_class_images_match_reference(self, request, key, t, relabel):
        """Every generator's image of every class index agrees with the
        oracle that pushes each unit class through the action pair by pair
        and looks up its least representative."""
        qs = catalog.fixture(key) if key == "sts13_a" else request.getfixturevalue(key)
        if relabel:
            perm = list(range(qs.v))
            random.Random(f"relabel-{key}-{t}").shuffle(perm)
            qs = qs.relabel(perm)
        q, n = qs.loop(), sl.ElemAbelian2(t)
        assert schreier._class_action(q, t) == reference_class_images(n, q)


class TestFurtherVeblen:
    def test_example_has_none(self, f_example):
        assert sl.further_veblen(f_example) == frozenset()

    def test_zero_over_fano_all(self, fano_q):
        assert sl.further_veblen(sl.zero_factor_system(n1, fano_q)) == frozenset(range(1, 8))

    def test_zero_over_sts9_none(self, sts9_q):
        assert sl.further_veblen(sl.zero_factor_system(n1, sts9_q)) == frozenset()

    def test_agrees_with_center(self, fano_q):
        import random

        rng = random.Random(11)
        for t in (1, 2):
            n, size = sl.ElemAbelian2(t), 1 << t
            for _ in range(40):
                vals = [rng.randrange(size) for _ in range(7)]
                f = sl.FactorSystem(fano_q, t, vals)
                loop = sl.build_schreier(n, fano_q, f)
                expected = set(range(size))
                for p in sl.further_veblen(f):
                    expected |= set(range(p * size, (p + 1) * size))
                assert loop.center() == expected


class TestVeblenExistence:
    def test_printed_no_veblen_list(self):
        found = []
        v = 3
        while len(found) < 10:
            if sl.admissible(v):
                ts = [t for t in range(1, 7) if (v + 1) % (1 << t) == 0]
                if not any(sl.veblen_existence(v, t) for t in ts):
                    found.append(v)
            v += 2
        assert found == [9, 13, 21, 25, 33, 37, 45, 49, 57, 61]

    def test_v19(self):
        assert sl.veblen_existence(19, 1)
        assert not sl.veblen_existence(19, 2)

    def test_v31_all(self):
        assert [t for t in (1, 2, 3, 4) if sl.veblen_existence(31, t)] == [1, 2, 3, 4]

    def test_congruence_corollary(self):
        for v in range(1, 200):
            if sl.admissible(v) and v % 12 in (1, 9):
                ts = [t for t in range(1, 8) if (v + 1) % (1 << t) == 0]
                assert not any(sl.veblen_existence(v, t) for t in ts)

    def test_rejects_inadmissible(self):
        with pytest.raises(NotAdmissible):
            sl.veblen_existence(11, 1)


class TestProjectivityThreshold:
    def test_values(self):
        assert sl.projectivity_threshold(15) == 1
        assert sl.projectivity_threshold(31) == 3
        assert sl.projectivity_threshold(7) == 0

    def test_too_small(self):
        with pytest.raises(OrderTooSmall):
            sl.projectivity_threshold(3)


class TestAssociativityCondition:
    def test_matches_built_loop(self, fano_q):
        import random

        rng = random.Random(3)
        from steinerloops.schreier import associativity_condition

        for _ in range(30):
            f = sl.FactorSystem(fano_q, 1, [rng.randint(0, 1) for _ in range(7)])
            loop = sl.build_schreier(n1, fano_q, f)
            assert associativity_condition(f) == loop.is_associative()

    def test_needs_an_associative_quotient(self, sts9_q):
        """Over the non-associative sts9 loop the cocycle identity can hold
        (the zero factor system) while no built extension is associative."""
        import random

        from steinerloops.schreier import associativity_condition

        rng = random.Random(4)
        zero = sl.zero_factor_system(n1, sts9_q)
        assert not sl.build_schreier(n1, sts9_q, zero).is_associative()
        assert associativity_condition(zero) is False
        for _ in range(10):
            f = sl.FactorSystem(sts9_q, 1, [rng.randint(0, 1) for _ in range(12)])
            assert associativity_condition(f) == sl.build_schreier(n1, sts9_q, f).is_associative()

    def test_reads_f_as_one_table(self, fano_q, monkeypatch):
        from steinerloops.schreier import associativity_condition

        def forbidden(*args):
            raise AssertionError("f read one pair at a time")

        monkeypatch.setattr(sl.FactorSystem, "value", forbidden)
        f = sl.zero_factor_system(sl.ElemAbelian2(2), fano_q)
        assert associativity_condition(f) and sl.further_veblen(f) == frozenset(range(1, 8))


def test_linear_system_oracle_agreement(fano_q):
    """are_equivalent against the exhaustive cochain search, on a sample."""
    import random

    rng = random.Random(5)
    for _ in range(25):
        f1 = sl.FactorSystem(fano_q, 1, [rng.randint(0, 1) for _ in range(7)])
        f2 = sl.FactorSystem(fano_q, 1, [rng.randint(0, 1) for _ in range(7)])
        lin = sl.are_equivalent(f1, f2)
        brute = brute_force_equivalent(f1, f2)
        assert (lin is None) == (brute is None)
