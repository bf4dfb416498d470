"""Where a Steiner loop table or a subloop's member set is checked: once
where it enters, never on one derived from checked data. Derived tables stay
checked a second way here, against the kernel, and a system and its loop,
the searches and the square enumeration hold no reference cycle."""

import gc
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinerloops as sl
from steinerloops import _kernels, catalog, design_core, formats, schreier, steiner_operator


class Checked(Exception):
    """Raised by a patched check."""


def _refuse(*args):
    raise Checked


def _quotient_data():
    """A loop and a normal subloop of it."""
    loop = catalog.pg(3).loop()
    n = sl.subloop(loop, {0, 1, 2, 3})
    return loop, n


class TestDerivedTablesSkipTheCheck:
    def test_routed_builders_build_without_the_check(self, monkeypatch, fano, sts9):
        """Each builder gives the same table with the check patched to raise."""
        q, q9 = fano.loop(), sl.SteinerLoop(sts9.loop().table)
        f = sl.FactorSystem(q, 2, [0, 1, 2, 3, 1, 2, 3])
        g = f + sl.coboundary(sl.Cochain1(q, 2, (1, 0, 3, 2, 0, 1, 1)))
        n_loop, square = catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11")
        loop, n = _quotient_data()
        op = sl.operator_from_extension(loop, n)
        ext = sl.build_schreier(sl.ElemAbelian2(2), q, f)
        z = sl.subloop(ext, range(4))
        builders = {
            "quotient": lambda: sl.quotient(loop, n).loop.table,
            "as_loop": lambda: n.as_loop()[0].table,
            "operator_from_extension": lambda: sl.operator_from_extension(loop, n).blocks,
            "factor_system_from_extension": lambda: sl.factor_system_from_extension(ext, z).values,
            "loop_from_system": lambda: sl.loop_from_system(sts9).table,
            "build_schreier": lambda: sl.build_schreier(sl.ElemAbelian2(2), q, f).table,
            "are_equivalent": lambda: sl.are_equivalent(f, g).values,
            "build_extension": lambda: sl.build_extension(op).table,
            "double": lambda: sl.double(n_loop, square).third_table,
            "double_operator": lambda: sl.double_operator(n_loop, square).blocks,
            "from_factor_system": lambda: steiner_operator.from_factor_system(f).n_loop.table,
            "pg": lambda: catalog.pg(4).third_table,
            "system_from_loop": lambda: sl.system_from_loop(q9).third_table,
        }
        want = {name: build() for name, build in builders.items()}
        monkeypatch.setattr(_kernels, "steiner_violation", _refuse)
        for name, build in builders.items():
            assert np.array_equal(build(), want[name]), name

    def test_entering_tables_reach_the_check(self, monkeypatch, sts9):
        table = sts9.loop().table
        text = formats.render_loop_csv(sts9.loop())
        monkeypatch.setattr(_kernels, "steiner_violation", _refuse)
        entries = {
            "SteinerLoop": lambda: sl.SteinerLoop(table),
            "parse_loop_csv": lambda: formats.parse_loop_csv(text),
        }
        for name, enter in entries.items():
            try:
                enter()
            except Checked:
                continue
            pytest.fail(f"{name} skipped the loop check")


class TestDerivedSubloopsSkipTheCheck:
    def test_computed_member_sets_build_without_the_check(self, monkeypatch, pg3, sts9):
        """generated_subloop, coset_generated_subsystem and the centre route
        of are_isomorphic give the same answers with the Subloop check
        patched to raise."""
        loop = pg3.loop()
        n = sl.generated_subloop(loop, {1, 2, 4, 5})
        q, t1 = sts9.loop(), sl.ElemAbelian2(1)
        a, b = (
            sl.build_schreier(t1, q, sl.FactorSystem(q, 1, values)).system()
            for values in sl.classify(t1, q).orbit_reps[:2]
        )
        calls = {
            "generated_subloop": lambda: sl.generated_subloop(loop, {1, 2}).members,
            "coset_generated_subsystem": lambda: sl.coset_generated_subsystem(loop, n, 9).members,
            "check_normal_triple_fano": lambda: sl.check_normal_triple_fano(
                loop, sl.generated_subloop(loop, {1, 2}), 9
            ),
            "centre route": lambda: design_core._centre_rejects(a, b),
            "are_isomorphic": lambda: sl.are_isomorphic(a, b),
        }
        want = {name: call() for name, call in calls.items()}
        assert want["centre route"] is True and want["are_isomorphic"] is None
        monkeypatch.setattr(design_core.Subloop, "__post_init__", _refuse)
        with pytest.raises(Checked):
            sl.Subloop(loop, {0, 1})
        for name, call in calls.items():
            assert call() == want[name], name

    def test_entering_member_sets_reach_the_check(self, monkeypatch, fano, pg3):
        """A Subloop built by hand, through subloop, or carried to another
        loop object meets the check."""
        sub = sl.generated_subloop(fano.loop(), {1, 2})
        other = sl.loop_from_system(fano)
        monkeypatch.setattr(design_core.Subloop, "__post_init__", _refuse)
        entries = {
            "Subloop": lambda: sl.Subloop(pg3.loop(), {0, 1}),
            "subloop": lambda: sl.subloop(pg3.loop(), {0, 1}),
            "normality_witness": lambda: sl.normality_witness(other, sub),
            "factor_system_from_extension": lambda: sl.factor_system_from_extension(other, sub),
        }
        for name, enter in entries.items():
            with pytest.raises(Checked):
                enter()


def _violation(loop) -> int:
    return _kernels.steiner_violation(np.ascontiguousarray(loop.table))


@given(
    name=st.sampled_from(["fano_labeled", "sts9_labeled", "sts13_a"]),
    t=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_schreier_tables_are_steiner_loops(name, t, data):
    q = catalog.fixture(name).loop()
    b = q.system().b
    values = data.draw(st.lists(st.integers(0, (1 << t) - 1), min_size=b, max_size=b))
    loop = sl.build_schreier(sl.ElemAbelian2(t), q, sl.FactorSystem(q, t, values))
    assert _violation(loop) == 0


@lru_cache(maxsize=None)
def _extension_sources():
    """(loop, normal subloop) pairs with quotient orders 4, 2 and 2."""
    sts15_2 = catalog.fixture("sts15_2")
    sts19 = sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
    out = []
    for s, members in (
        (catalog.pg(3), {0, 1, 2, 3}),
        (sts15_2, {0} | {p + 1 for p in sl.hyperplanes(sts15_2)[0]}),
        (sts19, range(10)),
    ):
        loop = s.loop()
        out.append((loop, sl.subloop(loop, members)))
    return out


@given(which=st.integers(0, 2), data=st.data())
@settings(max_examples=30, deadline=None)
def test_operator_extensions_are_steiner_loops(which, data):
    loop, n = _extension_sources()[which]
    cosets = sl.quotient(loop, n).cosets
    section = [0] + [data.draw(st.sampled_from(sorted(c))) for c in cosets[1:]]
    op = sl.operator_from_extension(loop, n, section)
    assert _violation(sl.build_extension(op)) == 0


@lru_cache(maxsize=None)
def _squares(k: int) -> tuple:
    return tuple(itertools.islice(sl.enumerate_symmetric_squares(k), 40))


@given(source=st.sampled_from(["pg1", "fano_labeled", "sts9_loop_table"]), i=st.integers(0, 39))
@settings(max_examples=30, deadline=None)
def test_doublings_are_steiner_loops(source, i):
    obj = catalog.pg(1) if source == "pg1" else catalog.fixture(source)
    n_loop = obj if isinstance(obj, sl.SteinerLoop) else obj.loop()
    squares = _squares(n_loop.n)
    square = squares[i % len(squares)]
    loop = sl.build_extension(sl.double_operator(n_loop, square))
    assert _violation(loop) == 0
    assert sl.double(n_loop, square) == loop.system()


def test_system_and_loop_hold_no_cycle(sts9):
    """Dropped system-loop pairs are freed by reference counting alone."""
    table = sts9.loop().table
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            s = sl.TripleSystem(sts9.v, sts9.triples)
            s.loop().center()
            loop = sl.SteinerLoop(table)
            sl.veblen_points_pasch(loop.system())
            del s, loop
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stored_elimination_holds_no_cycle(sts9, sts15_2):
    """A quotient system that has answered coboundary and class questions,
    and so holds its elimination, is freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        for s in (sts9, sts15_2) * 2:
            q = sl.TripleSystem(s.v, s.triples).loop()
            f = sl.FactorSystem(q, 1, [1] * s.b)
            sl.are_equivalent(f, f)
            sl.count_nonequivalent(sl.ElemAbelian2(1), q)
            schreier._class_index(f)
            sl.hom_set(q, sl.ElemAbelian2(1))
            del q, f
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_square_enumeration_holds_no_cycle():
    """A finished and an abandoned enumeration of symmetric squares are
    freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert len(list(sl.enumerate_symmetric_squares(4))) == 6
            assert len(list(itertools.islice(sl.enumerate_symmetric_squares(10), 5))) == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_searches_hold_no_cycle(sts9, sts15_2):
    """A finished isomorphism search, one that answers and one that the
    centre route stops, searches that scan their target only at the first
    failed placement, and an automorphism chain are freed by reference
    counting alone."""
    q, n = sts9.loop(), sl.ElemAbelian2(1)
    a, b = (
        sl.build_schreier(n, q, sl.FactorSystem(q, 1, values)).system()
        for values in sl.classify(n, q).orbit_reps[:2]
    )
    other = sts15_2.relabel(list(reversed(range(sts15_2.v))))
    sts13_a, sts13_b = catalog.fixture("sts13_a"), catalog.fixture("sts13_b")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert sl.are_isomorphic(sts15_2, other) is not None
            assert sl.are_isomorphic(a, b) is None
            # one invariant class in sts13_a: each fresh target is scanned
            # by the search's hook, after a failed placement
            swapped = sts13_a.relabel([1, 0] + list(range(2, 13)))
            assert sl.are_isomorphic(sts13_a, swapped) is not None
            assert sl.are_isomorphic(sts13_a, sl.TripleSystem(13, sts13_b.lines)) is None
            sl.automorphisms(sts15_2)
        assert gc.collect() == 0
    finally:
        gc.enable()
