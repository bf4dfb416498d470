import os
import subprocess
import sys

import pytest

import steinerloops as sl
from steinerloops import catalog, schreier
from steinerloops.design_core import perm_inverse, point_perm_to_loop_perm
from steinerloops.errors import BoundExceeded, NotAdmissible, NotAutomorphism, OrderTooSmall

from conftest import brute_force_equivalent

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


class TestAreEquivalent:
    def test_reflexive(self, f_example):
        phi = sl.are_equivalent(f_example, f_example)
        assert phi is not None and set(phi.values) == {0}

    def test_shift_by_coboundary(self, fano_q, f_example):
        phi = sl.Cochain1(fano_q, 1, (0, 1, 1, 0, 1, 0, 1))
        assert sl.are_equivalent(f_example, f_example + sl.coboundary(phi)) is not None

    def test_sts9_pair_not_equivalent(self):
        assert sl.are_equivalent(catalog.fixture("f1_sts9"), catalog.fixture("f2_sts9")) is None


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

    def test_cross_check_survives_python_O(self):
        """The closed form is checked against |Hom| by an explicit raise,
        which python -O does not strip, in count_nonequivalent and in
        classify alike."""
        script = (
            "import steinerloops as sl\n"
            "from steinerloops import catalog, schreier\n"
            "assert False, 'this line runs only without -O'\n"
            "schreier.hom_set = lambda *args, **kwargs: [()] * 3\n"
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

    def test_single_class_builds_no_generators(self, sts3, monkeypatch):
        """With t(b-r) = 0 there is one class and nothing to act on, so
        neither GL(t,2) nor Aut(q) is enumerated."""

        def forbidden(*args, **kwargs):
            raise AssertionError("generators built for a single class")

        monkeypatch.setattr(schreier, "gl2_elements", forbidden)
        monkeypatch.setattr(schreier, "automorphisms", forbidden)
        q = sts3.loop()
        rep = sl.classify(sl.ElemAbelian2(4), q)
        assert rep.equivalence_class_count == rep.isomorphism_class_count == 1
        assert rep.class_reps == rep.orbit_reps == ((0,),)
        assert rep.witnesses == ((tuple(range(16)), tuple(range(q.n))),)

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

    @pytest.mark.parametrize("key, t", [("fano", 2), ("sts9", 2)])
    def test_action_precomputed_on_unit_classes(self, request, monkeypatch, key, t):
        """Each generator goes through apply_aut once per unit class, and no
        FactorSystem is built per visited class."""
        qs = request.getfixturevalue(key)
        q = qs.loop()
        calls = {"apply_aut": 0, "FactorSystem": 0}
        apply_aut, init = schreier.apply_aut, schreier.FactorSystem.__init__

        def counted_apply(*args):
            calls["apply_aut"] += 1
            return apply_aut(*args)

        def counted_init(self, *args):
            calls["FactorSystem"] += 1
            init(self, *args)

        monkeypatch.setattr(schreier, "apply_aut", counted_apply)
        monkeypatch.setattr(schreier.FactorSystem, "__init__", counted_init)
        rep = sl.classify(sl.ElemAbelian2(t), q)
        monkeypatch.undo()
        n_gens = len(schreier.gl2_elements(t)) - 1 + len(sl.automorphisms(qs).generators)
        units = (rep.equivalence_class_count - 1).bit_length()
        assert calls["apply_aut"] == n_gens * units
        # the unit classes, plus the two systems apply_aut itself builds
        assert calls["FactorSystem"] == units + 2 * calls["apply_aut"]


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
        for _ in range(40):
            vals = [rng.randint(0, 1) for _ in range(7)]
            f = sl.FactorSystem(fano_q, 1, vals)
            loop = sl.build_schreier(n1, fano_q, f)
            expected = {0, 1}
            for p in sl.further_veblen(f):
                expected |= {2 * p, 2 * p + 1}
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
