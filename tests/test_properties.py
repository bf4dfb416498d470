"""Property-based checks of the structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import steinerloops as sl
from conftest import reference_fano_rows, reference_pasch_census
from steinerloops import _kernels, catalog
from steinerloops.design_core import point_perm_to_loop_perm
from steinerloops.schreier import associativity_condition

n1 = sl.ElemAbelian2(1)


def fano_q():
    return catalog.fixture("fano_labeled").loop()


bits7 = st.integers(min_value=0, max_value=127)


def unpack7(code):
    return [(code >> i) & 1 for i in range(7)]


@given(perm=st.permutations(list(range(15))))
@settings(max_examples=20, deadline=None)
def test_relabeling_is_isomorphic(perm):
    s = catalog.fixture("sts15_2")
    other = s.relabel(perm)
    found = sl.are_isomorphic(s, other)
    assert found is not None
    assert s.relabel(found) == other


@given(perm=st.permutations(list(range(13))))
@settings(max_examples=10, deadline=None)
def test_round_trip_and_relabel_sts13(perm):
    s = catalog.fixture("sts13_a").relabel(perm)
    assert sl.system_from_loop(sl.loop_from_system(s)) == s


@given(code=bits7, code2=bits7)
@settings(max_examples=50, deadline=None)
def test_coboundary_additive(code, code2):
    q = fano_q()
    phi = sl.Cochain1(q, 1, tuple(unpack7(code)))
    psi = sl.Cochain1(q, 1, tuple(unpack7(code2)))
    assert sl.coboundary(phi + psi).values == (sl.coboundary(phi) + sl.coboundary(psi)).values


@given(code=bits7)
@settings(max_examples=30, deadline=None)
def test_coboundary_recovered(code):
    q = fano_q()
    f = sl.coboundary(sl.Cochain1(q, 1, tuple(unpack7(code))))
    psi = sl.is_coboundary(f)
    assert psi is not None
    assert sl.coboundary(psi).values == f.values


@given(fcode=bits7, pcode=bits7)
@settings(max_examples=30, deadline=None)
def test_equivalence_from_shift(fcode, pcode):
    q = fano_q()
    f = sl.FactorSystem(q, 1, unpack7(fcode))
    g = f + sl.coboundary(sl.Cochain1(q, 1, tuple(unpack7(pcode))))
    assert sl.are_equivalent(f, g) is not None


@given(fcode=bits7)
@settings(max_examples=30, deadline=None)
def test_factor_symmetry_and_rules(fcode):
    q = fano_q()
    f = sl.FactorSystem(q, 1, unpack7(fcode))
    for p in range(8):
        assert f.value(p, 0) == 0 and f.value(p, p) == 0
        for r in range(8):
            assert f.value(p, r) == f.value(r, p)
            if p and r and p != r:
                assert f.value(p, r) == f.value(r, q.mul(p, r))


@given(fcode=bits7, i=st.integers(0, 167), j=st.integers(0, 167))
@settings(max_examples=20, deadline=None)
def test_action_law(fcode, i, j):
    q = fano_q()
    auts = sl.automorphisms(q.system())
    f = sl.FactorSystem(q, 1, unpack7(fcode))
    b1 = point_perm_to_loop_perm(auts.elements[i])
    b2 = point_perm_to_loop_perm(auts.elements[j])
    ida = (0, 1)
    step = sl.apply_aut(sl.apply_aut(f, ida, b1), ida, b2)
    joint = sl.apply_aut(f, ida, tuple(b2[b1[x]] for x in range(8)))
    assert step.values == joint.values


@given(fcode=bits7)
@settings(max_examples=30, deadline=None)
def test_built_loop_center_contains_embedded_group(fcode):
    q = fano_q()
    f = sl.FactorSystem(q, 1, unpack7(fcode))
    loop = sl.build_schreier(n1, q, f)
    assert {0, 1} <= loop.center()
    assert associativity_condition(f) == loop.is_associative()


@given(fcode=bits7)
@settings(max_examples=30, deadline=None)
def test_threshold_on_random_extensions(fcode):
    q = fano_q()
    f = sl.FactorSystem(q, 1, unpack7(fcode))
    s = sl.build_schreier(n1, q, f).system()
    veblen = sl.veblen_points(s)
    assert (len(veblen) > sl.projectivity_threshold(s.v)) == s.loop().is_associative()


def test_veblen_structure_on_family(constructed_family):
    """The Veblen points plus the identity always form a normal subloop whose
    own system is projective, and the closure and centrality readings agree."""
    for label, s in constructed_family[::13]:
        pts = sl.veblen_points(s)
        assert pts == sl.veblen_points_pasch(s), label
        loop = s.loop()
        sub = sl.subloop(loop, {0} | {p + 1 for p in pts})
        assert sl.is_normal(loop, sub), label
        small, _ = sub.as_loop()
        assert small.is_associative(), label


@given(
    key=st.sampled_from(["fano_labeled", "sts9_labeled", "sts13_a", "sts15_2"]),
    t=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_centre_equals_pasch_closure(key, t, data):
    """The two routes to the Veblen points, the loop centre and Pasch
    closure, agree on drawn Schreier extensions by Z_2^t, relabelled."""
    q = catalog.fixture(key).loop()
    b = q.system().b
    values = data.draw(st.lists(st.integers(0, (1 << t) - 1), min_size=b, max_size=b))
    s = sl.build_schreier(sl.ElemAbelian2(t), q, sl.FactorSystem(q, t, values)).system()
    s = s.relabel(data.draw(st.permutations(list(range(s.v)))))
    assert sl.veblen_points(s) == sl.veblen_points_pasch(s)


@given(
    key=st.sampled_from(["fano_labeled", "sts9_labeled"]),
    t=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_pasch_scan_matches_the_oracles(key, t, data):
    """On drawn Schreier extensions of fano and sts9 by Z_2^t, relabelled,
    the one Pasch scan gives the oracles' counts, closed flags and Fano
    rows, and its Veblen points are the loop centre's."""
    q = catalog.fixture(key).loop()
    b = q.system().b
    values = data.draw(st.lists(st.integers(0, (1 << t) - 1), min_size=b, max_size=b))
    s = sl.build_schreier(sl.ElemAbelian2(t), q, sl.FactorSystem(q, t, values)).system()
    s = s.relabel(data.draw(st.permutations(list(range(s.v)))))
    counts, closed, planes = _kernels.pasch_census(s.third_table, s.lines)
    assert (counts.tolist(), closed.tolist()) == reference_pasch_census(s)
    want = reference_fano_rows(s.third_table)
    assert planes.dtype == want.dtype and np.array_equal(planes, want)
    assert sl.veblen_points_pasch(s) == sl.veblen_points(s)
