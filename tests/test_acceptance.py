"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import random

import numpy as np
import pytest

import steinerloops as sl
from steinerloops import catalog
from steinerloops.design_core import point_perm_to_loop_perm
from steinerloops.schreier import _triple_point_rows

from conftest import brute_force_equivalent, perm_inverse

P = lambda p: p + 1
n1 = sl.ElemAbelian2(1)


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_sts15_2_facts(sts15_2):
    assert sl.veblen_points(sts15_2) == {0}
    assert sl.census(sts15_2).fano_total == 7
    loop = sts15_2.loop()
    n = sl.subloop(loop, {0, P(5), P(9), P(12)})
    assert not sl.is_normal(loop, n)
    # printed witness x=3, y=1, m=9: 3.(1.9) = 3.7 = b, but (3.1).n = 5.n
    # cannot reach b because 5.b = a lies outside the subloop
    assert loop.mul(P(1), P(9)) == P(7)
    assert loop.mul(P(3), P(7)) == P(11)
    assert loop.mul(P(3), P(1)) == P(5)
    assert loop.mul(P(5), P(11)) == P(10)
    assert P(10) not in n.members
    coset = {loop.mul(P(5), m) for m in n.members}
    assert P(11) not in coset
    report(1, "order-15 #2: one Veblen point, 7 Fano planes, non-normal triple witness")


def test_criterion_02_configuration_formulas(pg3):
    c = sl.census(pg3)
    assert all(x == 42 for x in c.pasch_through)
    assert all(x == 7 for x in c.fano_through)
    assert all(x == 3 for x in c.fano_containing_triple)
    report(2, "projective order-15: pasch 42 and fano 7 per point, 3 per triple")


def test_criterion_03_schreier_reconstruction(sts15_2):
    q = catalog.fixture("fano_labeled").loop()
    f = catalog.fixture("f_sts15_example")
    loop = sl.build_schreier(n1, q, f)
    assert sl.are_isomorphic(loop.system(), sts15_2) is not None
    lhs = loop.mul(loop.mul(2, 4), 8)
    rhs = loop.mul(2, loop.mul(4, 8))
    assert divmod(lhs, 2) == (7, 1) and divmod(rhs, 2) == (7, 0)
    report(3, "extension over the plane rebuilds order-15 #2 with the printed witness")


def test_criterion_04_classification_counts(sts15_2, pg3):
    q = catalog.fixture("fano_labeled").loop()
    assert sum(1 for _ in sl.enumerate_factor_systems(n1, q)) == 128
    rep = sl.classify(n1, q)
    assert rep.total == 128
    assert rep.hom_count == 8
    assert rep.b2_count == 16
    assert rep.equivalence_class_count == 8
    assert rep.isomorphism_class_count == 2
    built = {}
    for vals in rep.orbit_reps:
        s = sl.build_schreier(n1, q, sl.FactorSystem(q, 1, vals)).system()
        if sl.are_isomorphic(s, pg3) is not None:
            built["pg3"] = True
        if sl.are_isomorphic(s, sts15_2) is not None:
            built["sts15_2"] = True
    assert built == {"pg3": True, "sts15_2": True}
    report(4, "128 systems, 8 hom, 16 coboundaries, 8 classes, 2 isomorphism types")


def test_criterion_05_sts9_example():
    f1 = catalog.fixture("f1_sts9")
    f2 = catalog.fixture("f2_sts9")
    beta = point_perm_to_loop_perm(catalog.fixture("beta_465_789"))
    # the action of the printed automorphism carries f1 to the printed f2
    moved = sl.apply_aut(f1, (0, 1), perm_inverse(beta))
    assert moved.values == f2.values
    assert f2.value(3, 4) == f2.value(3, 8) == f2.value(4, 8) == 1
    assert sum(f2.values) == 1
    # the twelve-by-nine linear system is the printed one and is inconsistent
    printed = [
        "111000000",
        "100100100",
        "100010001",
        "100001010",
        "010100001",
        "010010010",
        "010001100",
        "001100010",
        "001010100",
        "001001001",
        "000111000",
        "000000111",
    ]
    rows = _triple_point_rows(f1.q_system)
    expected = [int("".join(reversed(r)), 2) for r in printed]
    assert rows == expected
    rhs = [a ^ b for a, b in zip(f1.values, f2.values)]
    assert rhs == [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0]
    assert sl.is_coboundary(f1 + f2) is None
    assert sl.are_equivalent(f1, f2) is None
    # yet a pair (alpha, beta) makes them isomorphic extensions
    auts = sl.automorphisms(f1.q_system)
    witness = None
    for pp in auts.elements:
        b = point_perm_to_loop_perm(pp)
        if sl.are_equivalent(sl.apply_aut(f1, (0, 1), b), f2) is not None:
            witness = (pp, (0, 1))
            break
    assert witness is not None
    report(5, "nine-point example: printed action values, inconsistent system, witness")


def test_criterion_06_index_at_most_four_collapse():
    checked = 0
    for qs in (sl.validate_system(1, []), sl.validate_system(3, [(0, 1, 2)])):
        q = qs.loop()
        for t in (1, 2):
            n = sl.ElemAbelian2(t)
            for f in sl.enumerate_factor_systems(n, q):
                loop = sl.build_schreier(n, q, f)
                assert loop.is_associative()
                s = loop.system()
                dim = (s.v + 1).bit_length() - 2
                assert sl.are_isomorphic(s, catalog.pg(dim)) is not None
                checked += 1
    assert checked == 8
    report(6, f"index <= 4: all {checked} extensions are associative and projective")


def test_criterion_07_veblen_existence_table():
    found = []
    v = 3
    while len(found) < 10:
        if sl.admissible(v):
            ts = [t for t in range(1, 8) if (v + 1) % (1 << t) == 0]
            if not any(sl.veblen_existence(v, t) for t in ts):
                found.append(v)
        v += 2
    assert found == [9, 13, 21, 25, 33, 37, 45, 49, 57, 61]
    assert [t for t in (1, 2, 3, 4) if sl.veblen_existence(31, t)] == [1, 2, 3, 4]
    report(7, "no-Veblen orders 9..61 and the full order-31 dimension set")


def test_criterion_08_sts19_doubling(sts19_example):
    n_loop = catalog.fixture("sts9_loop_table")
    phi11 = catalog.fixture("phi_11")
    op = sl.double_operator(n_loop, phi11)
    assert np.array_equal(op.blocks[0, 1], catalog.fixture("phi_om1").entries)
    assert op.blocks[0, 1][2, 1] == 4
    s = sl.double(n_loop, phi11)
    assert s.v == 19 and s == sts19_example
    assert sl.is_projective_hyperplane(s, range(9))
    loop = s.loop()
    sub = sl.subloop(loop, set(range(10)))
    rebuilt = sl.build_extension(sl.operator_from_extension(loop, sub))
    assert sl.are_isomorphic(rebuilt.system(), s) is not None
    report(8, "order-19 doubling: derived block matches, hyperplane, round trip")


def test_criterion_09_threshold_property(constructed_family):
    pg_cache = {}
    for label, s in constructed_family:
        veblen = sl.veblen_points(s)
        projective = s.loop().is_associative()
        if s.v >= 7:
            above = len(veblen) > sl.projectivity_threshold(s.v)
            assert above == projective, label
        nbits = (s.v + 1).bit_length() - 1
        if nbits >= 2 and 8 * len(veblen) >= (1 << nbits):
            # at least 2^(n-3) Veblen points forces the projective system
            assert s.v == (1 << nbits) - 1, label
            target = pg_cache.setdefault(nbits - 1, catalog.pg(nbits - 1))
            assert sl.are_isomorphic(s, target) is not None, label
    report(9, f"threshold and projectivity forcing on {len(constructed_family)} systems")


def test_criterion_10_oracle_equivalence():
    q = catalog.fixture("fano_labeled").loop()
    rng = random.Random(424242)
    sampled = [
        sl.FactorSystem(q, 1, [rng.randint(0, 1) for _ in range(7)]) for _ in range(2000)
    ]
    for i in range(0, 2000, 2):
        f1, f2 = sampled[i], sampled[i + 1]
        lin = sl.are_equivalent(f1, f2)
        brute = brute_force_equivalent(f1, f2)
        assert (lin is None) == (brute is None)
    for f in sampled:
        loop = sl.build_schreier(n1, q, f)
        expected = {0, 1}
        for p in sl.further_veblen(f):
            expected |= {2 * p, 2 * p + 1}
        assert loop.center() == expected
    report(10, "2000 samples: linear algebra matches brute force; centers match")
