import gc
import hashlib
import itertools
import random
import re
import time
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinerloops as sl
from conftest import (
    reference_as_loop,
    reference_census,
    reference_center_mask,
    reference_check_subloop,
    reference_closure,
    reference_fano_planes,
    reference_fano_rows,
    reference_generators,
    reference_hyperplanes,
    reference_normality_witness,
    reference_pair_scan_place,
    reference_pasch_census,
    reference_place,
    reference_quotient,
    reference_search_isomorphisms,
    reference_system_from_loop,
    reference_triple_system,
)
from steinerloops import _kernels, _search, catalog, formats, gf2, schreier, steiner_operator
from steinerloops import design_core as dc
from steinerloops.design_core import _VIOLATION_TEXT
from steinerloops.errors import (
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

# point p of a system is loop element p + 1
P = lambda p: p + 1


class TestValidateSystem:
    def test_fano_valid(self, fano):
        assert fano.v == 7 and fano.b == 7

    def test_sts3(self):
        s = sl.validate_system(3, [(2, 1, 0)])
        assert s.triples == ((0, 1, 2),)

    def test_missing_triple(self, fano):
        with pytest.raises(PairMissing):
            sl.validate_system(7, fano.triples[1:])

    def test_duplicated_pair(self, fano):
        with pytest.raises(PairDuplicated):
            sl.validate_system(7, fano.triples + ((0, 1, 3),))

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            sl.validate_system(5, [])

    def test_bad_triple(self):
        with pytest.raises(BadTriple):
            sl.validate_system(7, [(0, 0, 1)])
        with pytest.raises(BadTriple):
            sl.validate_system(7, [(0, 1, 9)])

    def test_normalizes_order(self):
        s = sl.validate_system(3, [(2, 0, 1)])
        assert s.triples[0] == (0, 1, 2)

    def test_block_count(self, sts15_2):
        assert sts15_2.b == 15 * 14 // 6

    @staticmethod
    def _mutate(rng, v, triples):
        """One seeded mutation of a triple list: (v, triples, kind)."""
        out = [list(t) for t in triples]
        kind = rng.choice(
            ["drop", "add", "duplicate", "repeat", "above", "below", "length", "swap", "v"]
        )
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        if kind == "drop":
            del out[i]
        elif kind == "add":
            out.insert(rng.randrange(len(out) + 1), rng.sample(range(v), 3))
        elif kind == "duplicate":
            out.insert(rng.randrange(len(out) + 1), list(out[i]))
        elif kind == "repeat":
            out[i][rng.randrange(3)] = out[i][rng.randrange(3)]
        elif kind == "above":
            out[i][rng.randrange(3)] = v + rng.randrange(3)
        elif kind == "below":
            out[i][rng.randrange(3)] = -1 - rng.randrange(3)
        elif kind == "length":
            if rng.random() < 0.5:
                del out[i][rng.randrange(3)]
            else:
                out[i].append(rng.randrange(v))
        elif kind == "swap":
            a, b = rng.randrange(3), rng.randrange(3)
            out[i][a], out[j][b] = out[j][b], out[i][a]
        else:
            v += rng.choice([-6, -2, 2, 6])
        return v, out, kind

    def test_matches_reference_on_mutations(self, fano, sts9, sts15_2):
        """The array constructor raises the reference's exception, message
        and pair or triple, at the same first failure, on 640 seeded
        mutations; valid input gives the reference's tables."""
        rng = random.Random(20261018)
        outcomes = set()
        for base in (fano, sts9, sts15_2, catalog.pg(4)):
            for _ in range(160):
                v, triples = base.v, [list(t) for t in base.triples]
                kinds = []
                for _ in range(rng.choice([0, 1, 1, 2, 3])):
                    v, triples, kind = self._mutate(rng, v, triples)
                    kinds.append(kind)
                rng.shuffle(triples)
                triples = [rng.sample(t, len(t)) for t in triples]
                form = rng.choice(["list", "tuple", "numpy-int", "array"])
                if form == "tuple":
                    triples = [tuple(t) for t in triples]
                elif form == "numpy-int":
                    dtype = rng.choice([np.int64, np.int32, np.int16])
                    triples = [tuple(dtype(x) for x in t) for t in triples]
                elif form == "array" and len({len(t) for t in triples}) == 1:
                    triples = np.array(triples)
                try:
                    want = reference_triple_system(v, triples)
                except Exception as exc:  # noqa: BLE001 - compared below
                    with pytest.raises(type(exc)) as got:
                        sl.TripleSystem(v, triples)
                    assert str(got.value) == str(exc), kinds
                    assert getattr(got.value, "pair", None) == getattr(exc, "pair", None)
                    assert getattr(got.value, "triple", None) == getattr(exc, "triple", None)
                    outcomes.add(type(exc).__name__)
                    continue
                s = sl.TripleSystem(v, triples)
                assert s.triples == want[0]
                assert all(type(x) is int for t in s.triples for x in t)
                for got, ref in zip((s.third_table, s.pair_triple), want[1:]):
                    assert np.array_equal(got, ref)
                outcomes.add("valid")
        assert outcomes == {
            "valid", "NotAdmissible", "BadTriple", "PairDuplicated", "PairMissing"
        }

    def test_ragged_and_non_integer_input(self):
        assert sl.TripleSystem(3, [("2", "0", 1.0)]).triples == ((0, 1, 2),)
        assert sl.TripleSystem(1, iter([])).triples == ()
        with pytest.raises(BadTriple, match=re.escape("bad triple (0, 1)")):
            sl.TripleSystem(3, [(0, 1)])
        with pytest.raises(BadTriple, match=re.escape("bad triple (0, 1, 2, 3)")):
            sl.TripleSystem(7, [(0, 1, 2), (3, 2, 1, 0)])


class TestListInput:
    """The constructor's contract for triples given as a list or an
    iterable: labels convert as int() reads them, a row or label that does
    not convert raises what int() raises or names the row as a bad triple,
    and a number that int() would change (1.9) is a bad triple."""

    VALID = {
        "strings": [("2", "0", "1")],
        "string rows": ["120"],
        "integral floats": [(2.0, 0.0, 1.0)],
        "bools": [(True, False, 2)],
        "sets": [{2, 0, 1}],
        "integral numpy scalars": [(np.int16(2), np.uint8(0), np.float32(1.0))],
        "integral float array": np.array([[2.0, 0.0, 1.0]]),
        "object array": np.array([[2, 0, 1]], dtype=object),
    }

    @pytest.mark.parametrize("name", VALID)
    def test_labels_convert_as_int_reads_them(self, name):
        assert sl.TripleSystem(3, self.VALID[name]).triples == ((0, 1, 2),)

    ERRORS = {
        # lengths summing to a multiple of 3: one read of six labels would
        # pair them up as two triples
        "ragged, six labels": (7, [(0, 1), (2, 3, 4, 5)], BadTriple, "bad triple (0, 1)"),
        "ragged, three labels": (3, [(0,), (1, 2)], BadTriple, "bad triple (0,)"),
        "bad string": (3, [("a", "0", "1")], ValueError, "invalid literal for int()"),
        "float string": (3, [("2.0", "0", "1")], ValueError, "invalid literal for int()"),
        "nan": (3, [(float("nan"), 0, 1)], ValueError, "cannot convert float NaN"),
        "floats": (3, [(2.0, 0.0, 1.9)], BadTriple, "bad triple (2.0, 0.0, 1.9): non-integral"),
        "numpy scalars": (
            3, [(np.int16(2), np.uint8(0), np.float32(1.5))], BadTriple, "non-integral point label"
        ),
        "float with a bool": (
            3, [(2.9, 0.2, True)], BadTriple, "bad triple (2.9, 0.2, True): non-integral"
        ),
        "float array": (3, np.array([[2.0, 0.0, 1.9]]), BadTriple, "non-integral point label"),
        "float past the range": (3, [(0, 1, 2.5)], BadTriple, "bad triple (0, 1, 2.5): non-integral"),
        "None": (3, [(None, 0, 1)], TypeError, "not 'NoneType'"),
        "nested label": (3, [(0, 1, [2])], TypeError, "not 'list'"),
        "labels, not rows": (3, [0, 1, 2], TypeError, "'int' object is not iterable"),
        "past int64": (3, [(0, 1, 2**63)], BadTriple, "bad triple (0, 1, 9223372036854775808)"),
        "below int64": (
            3, [(-(2**63) - 1, 1, 2)], BadTriple, "bad triple (-9223372036854775809, 1, 2)"
        ),
        "out of range": (3, [(0, 1, 3)], BadTriple, "bad triple (0, 1, 3)"),
        "empty, v = 3": (3, [], PairMissing, "pair (0,1)"),
    }

    @pytest.mark.parametrize("name", ERRORS)
    def test_errors(self, name):
        v, triples, exc, text = self.ERRORS[name]
        with pytest.raises(exc, match=re.escape(text)) as got:
            sl.TripleSystem(v, triples)
        assert type(got.value) is exc

    def test_empty_list_and_generators(self, fano):
        assert sl.TripleSystem(1, []).triples == ()
        assert sl.TripleSystem(3, (t for t in [(2, 1, 0)])).triples == ((0, 1, 2),)
        s = sl.TripleSystem(7, (reversed(t) for t in reversed(fano.triples)))
        assert s == fano and s.triples == fano.triples
        with pytest.raises(BadTriple, match=re.escape("bad triple (0, 1)")):
            sl.TripleSystem(7, iter([(0, 1), (2, 3, 4, 5)]))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_unsorted_rows_build_the_sorted_system(data):
    """Rows in any order, each with its labels in any order, as a list of
    tuples, a list of lists or an integer array, build the system of the
    sorted rows: equal, with the same lines and tables."""
    s = _named_system(data.draw(st.sampled_from(["fano", "sts9", "sts13_a", "sts15_2", "pg4"])))
    rows = data.draw(st.permutations([data.draw(st.permutations(t)) for t in s.triples]))
    form = data.draw(st.sampled_from([tuple, list, np.array]))
    built = sl.TripleSystem(s.v, np.array(rows) if form is np.array else [form(r) for r in rows])
    want = sl.TripleSystem(s.v, sorted(s.triples))
    assert built == want and built.triples == want.triples == s.triples
    assert np.array_equal(built.pair_triple, want.pair_triple)


class TestRelabel:
    def test_errors_come_from_the_constructor(self, fano):
        with pytest.raises(BadTriple, match=re.escape("bad triple (0, 0, 0)")):
            fano.relabel([0] * 7)
        with pytest.raises(BadTriple, match=re.escape("bad triple (0, 5, 7)")):
            fano.relabel([0, 1, 2, 3, 4, 5, 7])
        with pytest.raises(IndexError):
            fano.relabel(range(6))
        # entries past v are never read, floats are read as ints, any
        # mapping of the points is read
        assert fano.relabel(range(8)) == fano
        assert fano.relabel([float(p) for p in range(7)]) == fano
        assert fano.relabel({p: p for p in range(7)}) == fano


class TestLoopFromSystem:
    def test_sts15_products(self, sts15_2):
        loop = sts15_2.loop()
        assert loop.mul(P(5), P(11)) == P(10)  # 5 . b = a
        assert loop.mul(P(1), P(9)) == P(7)  # 1 . 9 = 7

    def test_identity(self, fano):
        loop = fano.loop()
        assert all(loop.mul(0, x) == x == loop.mul(x, 0) for x in range(loop.n))

    def test_exponent_two(self, sts9):
        loop = sts9.loop()
        assert all(loop.mul(x, x) == 0 for x in range(loop.n))

    @pytest.mark.parametrize("x, y, label", [(-1, 0, -1), (0, 7, 7), (2, -3, -3)])
    def test_third_refuses_points_outside(self, fano, x, y, label):
        """-1 would index the table from its end and pass for point 6."""
        with pytest.raises(ValueError, match=re.escape(f"point {label} outside 0..6")):
            fano.third(x, y)

    @pytest.mark.parametrize("x, y, label", [(-1, 1, -1), (1, 8, 8), (3, -8, -8)])
    def test_mul_refuses_elements_outside(self, fano, x, y, label):
        with pytest.raises(ValueError, match=re.escape(f"element {label} outside 0..7")):
            fano.loop().mul(x, y)

    @pytest.mark.parametrize(
        "code, table",
        [
            pytest.param(1, [[0, 1], [1, 2]], id="code1"),
            pytest.param(2, [[1, 0], [0, 1]], id="code2"),
            pytest.param(3, [[0, 1], [1, 1]], id="code3"),
            pytest.param(4, [[0, 1, 2], [1, 0, 1], [2, 2, 0]], id="code4"),
            pytest.param(5, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], id="code5"),
            pytest.param(2, np.empty((0, 0)), id="empty"),
        ],
    )
    def test_invalid_table_rejected(self, code, table):
        with pytest.raises(NotTotallySymmetric, match=re.escape(_VIOLATION_TEXT[code])):
            sl.SteinerLoop(table)


class TestSystemFromLoop:
    def test_round_trip_fano(self, fano):
        assert sl.system_from_loop(fano.loop()) == fano

    def test_order_one_loop_has_no_system(self):
        with pytest.raises(NotAdmissible, match="order 0 "):
            sl.system_from_loop(sl.SteinerLoop([[0]]))

    def test_order_two_loop(self):
        loop = sl.SteinerLoop([[0, 1], [1, 0]])
        s = sl.system_from_loop(loop)
        assert s.v == 1 and s.triples == ()

    def test_table_fixture_gives_labeled_system(self, sts9):
        assert sl.system_from_loop(catalog.fixture("sts9_loop_table")) == sts9

    def test_round_trip_all_fixtures(self, sts15_2, pg3):
        for s in (sts15_2, pg3, catalog.ag(2)):
            assert sl.system_from_loop(s.loop()) == s

    def test_read_off_the_checked_table(self, sts19_example, monkeypatch):
        """A checked loop gives its system with no second check and no walk
        over pairs: the constructor, the triple check and loop.mul may not run."""
        q = catalog.fixture("fano_labeled").loop()
        f = sl.FactorSystem(q, 2, [0, 1, 2, 3, 1, 2, 3])
        tables = [
            sts19_example.loop().table,
            catalog.fixture("sts9_loop_table").table,
            [[0, 1], [1, 0]],
            catalog.pg(4).loop().table,
            sl.build_schreier(sl.ElemAbelian2(2), q, f).table,
        ]
        loops = [sl.SteinerLoop(table) for table in tables]  # fresh, no system cached
        want = [reference_system_from_loop(loop) for loop in loops]

        def forbidden(*args, **kwargs):
            raise AssertionError("system read off a loop was checked again")

        import steinerloops.design_core as dc

        monkeypatch.setattr(dc.TripleSystem, "__init__", forbidden)
        monkeypatch.setattr(dc, "_triple_rows", forbidden)
        monkeypatch.setattr(dc.SteinerLoop, "mul", forbidden)
        for loop, ref in zip(loops, want):
            s = loop.system()
            assert s.triples == ref[0] and s.v == loop.n - 1 and s.b == len(ref[0])
            for got, exp in zip((s.third_table, s.pair_triple), ref[1:]):
                assert np.array_equal(got, exp)
            assert s.loop() == loop


class TestPairIndexOnFirstRead:
    """pair_triple is built from the lines when first read, and only then."""

    @staticmethod
    def _systems():
        q = catalog.fixture("fano_labeled").loop()
        f = sl.FactorSystem(q, 2, [0, 1, 2, 3, 1, 2, 3])
        sts13 = catalog.fixture("sts13_a")
        return {
            "constructor": sl.TripleSystem(13, sts13.lines[::-1, ::-1]),
            "system_from_loop": sl.system_from_loop(sl.SteinerLoop(catalog.pg(4).loop().table)),
            "double": sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11")),
            "schreier": sl.build_schreier(sl.ElemAbelian2(2), q, f).system(),
            "parse_system": formats.parse_system(formats.render_system(catalog.ag(3))),
            "order_one": sl.system_from_loop(sl.SteinerLoop([[0, 1], [1, 0]])),
        }

    def test_matches_the_oracle(self):
        for how, s in self._systems().items():
            assert s._pair_triple is None, how
            want = reference_triple_system(s.v, s.triples)[2]
            got = s.pair_triple
            assert got.dtype == np.int32 and np.array_equal(got, want), how

    def test_read_only_and_kept(self):
        for how, s in self._systems().items():
            first = s.pair_triple
            assert s.pair_triple is first, how
            assert not first.flags.writeable, how
            with pytest.raises(ValueError):
                first[0, 0] = 0

    def test_double_then_render_leaves_it_unbuilt(self):
        s = sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
        formats.render_system(s)
        formats.parse_system(formats.render_system(s, comments=["x"]))
        assert s._pair_triple is None


class TestGeneratedSubloop:
    def test_triple_closure(self, fano):
        loop = fano.loop()
        sub = sl.generated_subloop(loop, {P(0), P(1)})
        assert sub.members == {0, P(0), P(1), P(2)}

    def test_two_triples_generate_fano(self, pg3):
        loop = pg3.loop()
        # two triples through the point of vector 1
        sub = sl.generated_subloop(loop, {1, 2, 4, 5})
        assert len(sub.members) == 8

    def test_empty_seed(self, fano):
        assert sl.generated_subloop(fano.loop(), set()).members == {0}

    def test_members_match_closure(self, sts15_2, pg3):
        """Generated members equal the closure under all products."""
        rng = random.Random(4)
        for loop in (sts15_2.loop(), pg3.loop()):
            for size in (1, 2, 3):
                seed = set(rng.sample(range(1, loop.n), size))
                want = seed | {0}
                while True:
                    grown = want | {int(loop.table[x, y]) for x in want for y in want}
                    if grown == want:
                        break
                    want = grown
                assert sl.generated_subloop(loop, seed).members == want

    @pytest.mark.parametrize("members", [{0, 7, -1}, {0, 8}, {0, 1, 2, 3, 100}])
    def test_members_outside_the_carrier_rejected(self, fano, members):
        """-1 would index the table from its end and pass for element 7."""
        loop = fano.loop()
        with pytest.raises(NotASubloop, match="outside 0..7"):
            sl.subloop(loop, members)
        with pytest.raises(NotASubloop, match="outside 0..7"):
            sl.generated_subloop(loop, members - {0})
        with pytest.raises(NotASubloop, match="outside 0..7"):
            sl.Subloop(loop, members)

    def test_foreign_parent_checked_against_the_loop(self, fano, pg3):
        """A subloop of another loop object is checked against this one."""
        sub = sl.generated_subloop(pg3.loop(), {8})
        for call in (sl.normality_witness, sl.factor_system_from_extension):
            with pytest.raises(NotASubloop, match=r"elements \[8\] outside 0..7$"):
                call(fano.loop(), sub)


class TestNormality:
    def test_sts15_triple_not_normal(self, sts15_2):
        loop = sts15_2.loop()
        n = sl.subloop(loop, {0, P(5), P(9), P(12)})
        assert not sl.is_normal(loop, n)
        # the printed witness: x=3, y=1, m=9 gives 3.(1.9) = b outside (3.1).N
        lhs = loop.mul(P(3), loop.mul(P(1), P(9)))
        assert lhs == P(11)
        coset = {loop.mul(loop.mul(P(3), P(1)), m) for m in n.members}
        assert lhs not in coset

    def test_index_two_always_normal(self, sts15_2, pg3):
        for s in (sts15_2, pg3):
            loop = s.loop()
            for h in sl.hyperplanes(s):
                sub = sl.subloop(loop, {0} | {P(p) for p in h})
                assert sl.is_normal(loop, sub)

    def test_whole_loop_normal(self, fano):
        loop = fano.loop()
        assert sl.is_normal(loop, sl.subloop(loop, range(loop.n)))

    def test_not_a_subloop(self, fano):
        loop = fano.loop()
        with pytest.raises(NotASubloop):
            sl.subloop(loop, {0, 1, 2})  # elements 1.2 close outside the set
        with pytest.raises(NotASubloop):
            sl.subloop(loop, {1, 2, 3})  # identity missing

    def test_witness_matches_reference(self, sts19_example):
        rng = random.Random(5)
        keys = ("fano_labeled", "sts9_labeled", "sts13_a", "sts15_2")
        systems = [catalog.fixture(k) for k in keys] + [catalog.pg(3), catalog.pg(4), sts19_example]
        kinds = set()
        for loop in (s.loop() for s in systems):
            for size in (0, 1, 1, 2, 2, 3, loop.n - 1):
                for _ in range(4):
                    seed = rng.sample(range(1, loop.n), min(size, loop.n - 1))
                    sub = sl.generated_subloop(loop, seed)
                    want = reference_normality_witness(loop, sub)
                    assert sl.normality_witness(loop, sub) == want, (loop, seed)
                    kinds.add(want is None)
        assert kinds == {True, False}

    @pytest.mark.parametrize(
        "name, members, want",
        [("sts13_a", [0, 1, 3, 8], (1, 2, 3)), ("sts9_labeled", [0, 1, 5, 9], (2, 1, 5))],
    )
    def test_witness_ignores_insertion_order(self, name, members, want):
        """Two insertion orders of one member set give one witness, though
        the frozensets iterate differently (8 and 0, 9 and 1 share a slot)."""
        loop = catalog.fixture(name).loop()
        subs = [sl.Subloop(loop, frozenset(order)) for order in (members, members[::-1])]
        assert list(subs[0].members) != list(subs[1].members)
        assert [sl.normality_witness(loop, sub) for sub in subs] == [want, want]

    def test_escape_ignores_insertion_order(self, sts9):
        loop = sts9.loop()
        members = [0, 1, 2, 9]  # 1.2 = 3 escapes; 9 shares a slot with 1
        for order in (members, members[::-1]):
            with pytest.raises(NotASubloop, match=r"not closed: 1\.2 escapes$"):
                sl.Subloop(loop, frozenset(order))


class TestSubloopArrays:
    def test_match_reference(self, sts19_example):
        """The subloop check, as_loop and quotient give the reference's first
        witness, table, relabeling, cosets and epi on seeded subloops of
        seven loops, closed or not, normal or not."""
        rng = random.Random(8)
        systems = [catalog.fixture(k) for k in ("fano_labeled", "sts9_labeled", "sts15_2")]
        systems += [catalog.pg(3), catalog.pg(4), catalog.ag(2), sts19_example]
        seen = set()
        for loop in (s.loop() for s in systems):
            for size in (0, 1, 1, 2, 2, 3, loop.n - 1):
                for _ in range(4):
                    seed = rng.sample(range(1, loop.n), min(size, loop.n - 1))
                    sub = sl.generated_subloop(loop, seed)
                    # a generated subloop with one element more or less
                    extra = rng.choice([[], [rng.randrange(loop.n)]])
                    raw = set(sub.members) | set(extra)
                    if len(raw) > 1 and rng.random() < 0.3:
                        raw.discard(rng.choice(sorted(raw - {0})))
                    try:
                        want = reference_check_subloop(loop, raw)
                    except NotASubloop as exc:
                        for build in (sl.subloop, sl.Subloop):
                            with pytest.raises(NotASubloop, match=re.escape(str(exc)) + "$"):
                                build(loop, raw)
                        seen.add("escape")
                        continue
                    got = sl.subloop(loop, raw)
                    assert got.members == want == sl.Subloop(loop, raw).members
                    table, order = got.as_loop()
                    ref_table, ref_order = reference_as_loop(got)
                    assert np.array_equal(table.table, ref_table) and order == ref_order
                    if not sl.is_normal(loop, got):
                        seen.add("not normal")
                        continue
                    q = sl.quotient(loop, got)
                    ref_table, ref_cosets, ref_epi = reference_quotient(loop, got)
                    assert np.array_equal(q.loop.table, ref_table)
                    assert q.cosets == ref_cosets and q.epi == ref_epi
                    assert all(type(x) is int for c in q.cosets for x in c)
                    assert all(type(x) is int for x in q.epi)
                    seen.add("normal")
        assert seen == {"escape", "not normal", "normal"}


class TestQuotient:
    def test_sts19_by_hyperplane(self, sts19_example):
        loop = sts19_example.loop()
        sub = sl.subloop(loop, set(range(10)))
        q = sl.quotient(loop, sub)
        assert q.order == 2

    def test_by_trivial(self, fano):
        loop = fano.loop()
        q = sl.quotient(loop, sl.subloop(loop, {0}))
        assert np.array_equal(q.loop.table, loop.table)

    def test_pg3_by_order2_is_fano(self, pg3):
        loop = pg3.loop()
        q = sl.quotient(loop, sl.subloop(loop, {0, 1}))
        assert sl.are_isomorphic(q.loop.system(), catalog.pg(2)) is not None

    def test_epi_is_homomorphism(self, pg3):
        loop = pg3.loop()
        q = sl.quotient(loop, sl.subloop(loop, {0, 1}))
        for x in range(loop.n):
            for y in range(loop.n):
                assert q.epi[loop.mul(x, y)] == q.loop.mul(q.epi[x], q.epi[y])

    def test_not_normal_rejected(self, sts15_2):
        loop = sts15_2.loop()
        n = sl.subloop(loop, {0, P(5), P(9), P(12)})
        with pytest.raises(NotNormal):
            sl.quotient(loop, n)


class TestCosetGeneratedSubsystem:
    def test_veblen_pair(self, sts15_2):
        loop = sts15_2.loop()
        n = sl.subloop(loop, {0, P(0)})  # point 0 is the Veblen point
        sub = sl.coset_generated_subsystem(loop, n, P(3))
        assert sub.members == {0, P(0), P(3), loop.mul(P(0), P(3))}

    def test_sts19_hyperplane_gives_whole(self, sts19_example):
        loop = sts19_example.loop()
        n = sl.subloop(loop, set(range(10)))
        sub = sl.coset_generated_subsystem(loop, n, 10)
        assert len(sub.members) == loop.n

    def test_pg3_fano_subloop(self, pg3):
        loop = pg3.loop()
        n = sl.generated_subloop(loop, {1, 2, 4, 5})
        sub = sl.coset_generated_subsystem(loop, n, 9)
        assert len(sub.members) == 16

    def test_element_inside_rejected(self, pg3):
        loop = pg3.loop()
        n = sl.subloop(loop, {0, 1})
        with pytest.raises(ElementInsideN):
            sl.coset_generated_subsystem(loop, n, 1)


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or fn(*args))
    return calls


class TestScansOncePerObject:
    def test_one_pasch_scan_per_system(self, monkeypatch):
        s = catalog.fixture("sts13_a").relabel(range(13))  # a fresh system
        calls = _count_calls(monkeypatch, _kernels, "pasch_census")
        assert sl.veblen_points_pasch(s) == sl.veblen_points(s)
        sl.census(s)
        assert sl.are_isomorphic(s, s) is not None
        assert len(calls) == 1
        # every point of s has one invariant, so are_isomorphic(s, r) scans a
        # new relabel r once its search fails a placement, and s not again
        never_fails = s.relabel(range(13))  # three placements, none failing
        fails = s.relabel([1, 0] + list(range(2, 13)))  # fifteen, some failing
        assert sl.are_isomorphic(s, never_fails) is not None
        assert len(calls) == 1
        assert sl.are_isomorphic(s, fails) is not None
        assert len(calls) == 2
        # a later census scans each relabel once in all
        for r in (never_fails, fails, never_fails, fails):
            sl.census(r)
        assert len(calls) == 3

    def test_one_centre_scan_per_loop(self, monkeypatch):
        s, loop = catalog.pg(3), catalog.ag(2).loop()
        calls = _count_calls(monkeypatch, _kernels, "center_mask")
        assert len(sl.veblen_points(s)) == 15
        assert s.loop().is_associative() and s.loop().center() == frozenset(range(16))
        assert sl.veblen_points(s) == frozenset(range(15))
        assert len(calls) == 1
        assert not loop.is_associative() and loop.center() == {0}
        assert len(calls) == 2

    def test_associativity_is_the_centre_scan(self):
        assert not hasattr(_kernels, "is_associative")


class TestVeblen:
    def test_sts15_2(self, sts15_2):
        assert sl.veblen_points(sts15_2) == {0}

    def test_pg3_all(self, pg3):
        assert sl.veblen_points(pg3) == set(range(15))

    def test_sts9_none(self):
        assert sl.veblen_points(catalog.ag(2)) == frozenset()

    def test_duality_on_fixtures(self, sts15_2, pg3, fano, sts9, sts19_example):
        for s in (sts15_2, pg3, fano, sts9, sts19_example, catalog.fixture("sts13_a")):
            assert sl.veblen_points(s) == sl.veblen_points_pasch(s)

    def test_nonexistence_orders(self):
        for s in (catalog.ag(2), catalog.fixture("sts13_a"), catalog.fixture("sts13_b")):
            assert sl.veblen_points(s) == frozenset()

    def test_size_is_power_of_two_minus_one(self, constructed_family):
        for _, s in constructed_family[:200]:
            k = len(sl.veblen_points(s)) + 1
            assert k & (k - 1) == 0

    def test_veblen_set_is_normal_projective_subloop(self, sts15_2, pg3):
        for s in (sts15_2, pg3):
            pts = sl.veblen_points(s)
            loop = s.loop()
            sub = sl.subloop(loop, {0} | {P(p) for p in pts})
            assert sl.is_normal(loop, sub)
            small, _ = sub.as_loop()
            assert small.is_associative()


KERNEL_SYSTEMS = ["pg2", "pg3", "pg4", "pg5", "ag2", "ag3", "ag4", "sts13_a", "sts13_b", "sts15_2", "sts19"]


class TestHyperplanes:
    def test_sts19_embedded(self, sts19_example):
        assert sl.is_projective_hyperplane(sts19_example, range(9))

    def test_triple_in_fano(self, fano):
        assert sl.is_projective_hyperplane(fano, fano.triples[0])

    def test_triple_in_sts15(self, sts15_2):
        assert not sl.is_projective_hyperplane(sts15_2, sts15_2.triples[0])

    def test_not_subsystem_rejected(self, fano):
        with pytest.raises(NotASubsystem):
            sl.is_projective_hyperplane(fano, {0, 1, 3})

    @pytest.mark.parametrize("subset, outside", [([0, 1, 2, 9], "[9]"), ([0, 1, 2, -7], "[-7]")])
    def test_points_outside_the_carrier_rejected(self, fano, subset, outside):
        """9 would leak a numpy IndexError, -7 would index row 0."""
        with pytest.raises(NotASubsystem, match=re.escape(f"points {outside} outside 0..6")):
            sl.is_projective_hyperplane(fano, subset)

    def test_reported_pair_matches_reference(self, sts15_2):
        """The first pair that closes outside, in the subset's iteration order."""
        rng = random.Random(3)
        for size in range(2, 12):
            subset = frozenset(rng.sample(range(15), size))
            want = None
            for x in subset:
                for y in subset:
                    if want is None and x < y and sts15_2.third(x, y) not in subset:
                        want = f"pair ({x},{y}) closes outside the subset"
            if want is None:
                continue
            with pytest.raises(NotASubsystem, match=re.escape(want) + "$"):
                sl.is_projective_hyperplane(sts15_2, subset)

    def test_enumeration(self, sts15_2):
        hs = sl.hyperplanes(sts15_2)
        assert len(hs) == 7
        assert all(len(h) == 7 for h in hs)
        assert sl.hyperplanes(catalog.ag(2)) == ()

    @pytest.mark.parametrize(
        "name",
        ["pg4", "pg5", "ag3", "ag4", "sts13_a", "sts13_b", "sts15_2", "double19", "sts19", "sts31"],
    )
    def test_checked_a_second_way(self, name):
        """Every set is a hyperplane by the subsystem test, and there are
        2^(v - rank) - 1 of them, the nonzero vectors of the kernel of the
        triple-point incidence rows."""
        s = _hyperplane_system(name)
        hs = sl.hyperplanes(s)
        rows = [(1 << a) | (1 << b) | (1 << c) for a, b, c in s.triples]
        assert len(hs) == 2 ** (s.v - gf2.rank(rows, s.v)) - 1
        assert len(set(hs)) == len(hs)
        assert all(sl.is_projective_hyperplane(s, h) for h in hs)

    @pytest.mark.parametrize("name", [*KERNEL_SYSTEMS, "sts31", "schreier63"])
    def test_matches_reference(self, name):
        """The sets read off the loop's generators are the zero sets of the
        GF(2) nullspace over all v points, in the same order, on the system
        and on two seeded relabellings."""
        s = _hyperplane_system(name)
        for system in (s, _relabelled(s, 1), _relabelled(s, 2)):
            assert sl.hyperplanes(system) == reference_hyperplanes(system)

    def test_smallest_systems(self, sts1, sts3):
        """v = 1: the one homomorphism onto Z_2 has the empty kernel; v = 3:
        each point is a hyperplane."""
        assert sl.hyperplanes(sts1) == reference_hyperplanes(sts1) == (frozenset(),)
        points = tuple(frozenset({p}) for p in range(3))
        assert sl.hyperplanes(sts3) == reference_hyperplanes(sts3) == points

    @pytest.mark.parametrize("name", ["pg4", "ag3", "sts15_2", "sts31"])
    def test_meets_every_triple_matches_reference(self, name):
        """On hyperplanes, Fano subplanes and single triples, the array test
        agrees with meeting every triple, checked one triple at a time."""
        s = _relabelled(_hyperplane_system(name), 5)
        planes = sl.census(s).fano_planes
        for subset in [*sl.hyperplanes(s), *planes[:20], *s.triples[:20]]:
            want = all(set(subset) & set(t) for t in s.triples)
            assert sl.is_projective_hyperplane(s, subset) is want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_projective_count(self, n):
        """PG(n,2) has as many hyperplanes as points."""
        assert len(sl.hyperplanes(catalog.pg(n))) == 2 ** (n + 1) - 1


class TestCensus:
    def test_pg3_formulas(self, pg3):
        c = sl.census(pg3)
        assert set(c.pasch_through) == {42}
        assert set(c.fano_through) == {7}
        assert set(c.fano_containing_triple) == {3}

    def test_sts15_2(self, sts15_2):
        c = sl.census(sts15_2)
        assert c.fano_total == 7
        assert c.fano_through[0] == 7

    def test_sts9_empty(self):
        c = sl.census(catalog.ag(2))
        assert c.pasch_total == 0 and c.fano_total == 0

    def test_degenerate_orders(self, sts1, sts3):
        for s in (sts1, sts3):
            c = sl.census(s)
            assert c.pasch_total == 0 and c.fano_total == 0

    def test_veblen_count_formulas(self, sts15_2, pg3):
        for s in (sts15_2, pg3):
            c = sl.census(s)
            for p in sl.veblen_points(s):
                assert c.pasch_through[p] == (s.v - 1) * (s.v - 3) // 4
                assert c.fano_through[p] == (s.v - 1) * (s.v - 3) // 24

    def test_veblen_product_closure(self, pg3, sts15_2):
        for s in (pg3, sts15_2):
            pts = sl.veblen_points(s)
            for a in pts:
                for b in pts:
                    if a != b:
                        assert s.third(a, b) in pts

    @pytest.mark.parametrize(
        "name", ["pg3", "pg4", "pg5", "ag3", "ag4", "sts13_a", "sts13_b", "sts19_double"]
    )
    def test_matches_reference(self, name):
        if name == "sts19_double":
            s = sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
        elif name[2:].isdigit():
            s = getattr(catalog, name[:2])(int(name[2:]))
        else:
            s = catalog.fixture(name)
        assert sl.census(s) == reference_census(s)

    def test_matches_reference_on_family(self, constructed_family):
        for label, s in constructed_family:
            assert sl.census(s) == reference_census(s), label

    def test_matches_reference_on_relabelled_schreier31(self, sts15_2):
        rng = random.Random(31)
        q = sts15_2.loop()
        n = sl.ElemAbelian2(1)
        for _ in range(8):
            f = sl.FactorSystem(q, 1, [rng.randrange(2) for _ in range(sts15_2.b)])
            s = sl.build_schreier(n, q, f).system()
            perm = list(range(s.v))
            rng.shuffle(perm)
            s = s.relabel(perm)
            assert sl.census(s) == reference_census(s)

    @pytest.mark.parametrize("n, planes", [(3, 15), (4, 155), (5, 1395), (6, 11811)])
    def test_projective_closed_form(self, n, planes):
        """pg(n) is PG(n,2) on GF(2)^(n+1); its Fano subplanes are the
        3-dimensional subspaces, counted by the Gaussian binomial."""
        gauss = 1
        for i in range(3):
            gauss = gauss * (2 ** (n + 1 - i) - 1) // (2 ** (i + 1) - 1)
        s = catalog.pg(n)
        c = sl.census(s)
        assert c.fano_total == planes == gauss
        assert set(c.fano_through) == {7 * planes // s.v}
        assert set(c.fano_containing_triple) == {7 * planes // s.b}
        assert list(c.fano_planes) == sorted(c.fano_planes)
        assert all(list(plane) == sorted(set(plane)) for plane in c.fano_planes)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_affine_has_no_planes(self, n):
        c = sl.census(catalog.ag(n))
        assert c.fano_planes == () and set(c.fano_through) == {0}

    def test_one_scan_per_system(self, monkeypatch):
        """The Pasch-closure Veblen points, the census, are_isomorphic(s, s)
        and automorphisms(s) of a fresh system read one pasch_census call,
        made with the system's third-point table and lines; the Fano planes
        come from that call, with no kernel of their own."""
        pg3 = catalog.pg(3)  # a fresh system: the session one may hold its Pasch scan
        calls = []
        kernel = _kernels.pasch_census
        monkeypatch.setattr(
            _kernels, "pasch_census", lambda *args, **kw: calls.append((args, kw)) or kernel(*args)
        )
        assert sl.veblen_points_pasch(pg3) == frozenset(range(15))
        assert sl.census(pg3).fano_total == 15
        assert sl.are_isomorphic(pg3, pg3) is not None
        assert sl.automorphisms(pg3).order == 20160
        assert len(calls) == 1
        (args, kwargs), = calls
        assert len(args) == 2 and args[0] is pg3.third_table and args[1] is pg3.lines
        assert not kwargs
        assert not hasattr(_kernels, "fano_planes")

    def test_kept_census_stays_small(self):
        """A kept census of pg(5) holds its 1395 planes as tuples of ints:
        about 155 KB, where frozensets of the same planes take about 1 MB."""
        s = catalog.pg(5)
        tracemalloc.start()
        try:
            c = sl.census(s)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c.fano_total == 1395
        assert retained < 400_000


def _set_block(monkeypatch, block, v):
    """Blocks of one entry, of four points with every line above them
    (r(r-1)/2 pairs each, r = (v-1)/2), or as large as the default."""
    r = (v - 1) // 2
    if block == "one entry":
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 1)
    elif block == "four points":
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 4 * r * (r - 1) // 2)


def _kernel_system(name):
    if name == "sts19":  # a Schreier extension of sts9 with a proper centre
        return _orbit_representatives("sts9_labeled", 1)[1]
    return _named_system(name)


def _check_scan(s):
    """The three outputs of pasch_census against the point-by-point
    oracles: counts and closed flags, and the Fano rows with their dtype
    and order."""
    counts, closed, planes = _kernels.pasch_census(s.third_table, s.lines)
    assert counts.dtype == np.int64 and closed.dtype == np.bool_
    assert (counts.tolist(), closed.tolist()) == reference_pasch_census(s)
    want = reference_fano_rows(s.third_table)
    assert planes.dtype == want.dtype == np.int32
    assert planes.shape == want.shape and np.array_equal(planes, want)


class TestPaschKernel:
    @pytest.mark.parametrize("block", ["default", "one entry", "four points"])
    @pytest.mark.parametrize("name", KERNEL_SYSTEMS)
    def test_matches_reference(self, monkeypatch, name, block):
        """The block scan gives the point-by-point counts, closed flags and
        Fano rows, whether a block is one line, the pairs of four points or
        as many as fit in the default temporaries."""
        s = _kernel_system(name)
        _set_block(monkeypatch, block, s.v)
        _check_scan(s)

    @pytest.mark.parametrize("block", ["default", "one entry"])
    def test_no_pairs(self, monkeypatch, sts1, sts3, block):
        """STS(1) and STS(3) have no two lines through a point: every count
        is 0, every point closed, and the planes an empty (0, 7) int32."""
        _set_block(monkeypatch, block, 3)
        for s in (sts1, sts3):
            counts, closed, planes = _kernels.pasch_census(s.third_table, s.lines)
            assert counts.tolist() == [0] * s.v and closed.all()
            assert planes.dtype == np.int32 and planes.shape == (0, 7)
            _check_scan(s)

    def test_temporaries_stay_bounded(self):
        """pg(6) has 59,055 pairs of lines through a point and above it. A
        block of lines ends with the line whose pairs pass the next multiple
        of 2^12, so each int32 temporary holds fewer than 2^12 + 62 pairs
        (about 16 KB), far below one table of all pairs. Beyond the arrays
        it returns (11,811 Fano rows, 331 KB, held twice while the blocks'
        rows are joined) the scan stays under 400 KB, and in all under the
        1.25 MB that a separate Fano scan was held to."""
        s = catalog.pg(6)
        tracemalloc.start()
        try:
            out = _kernels.pasch_census(s.third_table, s.lines)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out[2]) == 11811
        assert peak - sum(x.nbytes for x in out) < 400_000
        assert peak < 1_250_000


def _least_point_system(name):
    """A fresh system, its Pasch scan not yet cached."""
    if name == "schreier63":
        return _schreier_system(catalog.pg(4), 63)
    if name == "sts19":
        return _kernel_system(name)
    return _relabelled(_kernel_system(name), int(name[2:]))


class TestLeastPointScan:
    """pasch_census finds each configuration and each Fano plane once, at
    its least point, from the pairs of lines above it; the oracles scan
    every pair of lines through every point. Checked on relabelled systems,
    on an STS(19) and an STS(63) with a proper centre, at every block
    size."""

    @pytest.mark.parametrize("block", ["default", "one entry", "four points"])
    @pytest.mark.parametrize("name", ["pg4", "pg5", "ag4", "sts19", "schreier63"])
    def test_matches_reference(self, monkeypatch, name, block):
        s = _least_point_system(name)
        _set_block(monkeypatch, block, s.v)
        _check_scan(s)
        # the Pasch-closure reading of the Veblen points against the centre
        assert sl.veblen_points_pasch(s) == sl.veblen_points(s)


class TestCenterAndFanoKernels:
    """The block scans of center_mask and of pasch_census's Fano rows give
    the arrays of the one-at-a-time scans, dtype and row order included,
    whether a block is one entry, a few candidates or points, or as large as
    the default."""

    @pytest.mark.parametrize("block", ["default", "one entry", "three candidates"])
    @pytest.mark.parametrize("name", KERNEL_SYSTEMS)
    def test_center_matches_reference(self, monkeypatch, name, block):
        table = _kernel_system(name).loop().table
        if block == "one entry":
            monkeypatch.setattr(_kernels, "_CENTRE_ENTRIES", 1)
        elif block == "three candidates":
            monkeypatch.setattr(_kernels, "_CENTRE_ENTRIES", 3 * table.size)
        got, want = _kernels.center_mask(table), reference_center_mask(table)
        assert got.dtype == want.dtype == np.bool_
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [1, 1 << 12])
    def test_center_on_tables_that_do_not_commute(self, monkeypatch, block):
        """The identity is read as written, (a.b).z against a.(b.z), on any
        n x n table: the multiplication table of the non-abelian group S3 and
        seeded random tables."""
        monkeypatch.setattr(_kernels, "_CENTRE_ENTRIES", block)
        perms = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        s3 = np.array([[index[tuple(p[x] for x in q)] for q in perms] for p in perms], np.int32)
        rng = np.random.default_rng(5)
        tables = [s3] + [rng.integers(0, n, (n, n), dtype=np.int32) for n in (1, 2, 5, 17, 70)]
        for table in tables:
            assert np.array_equal(_kernels.center_mask(table), reference_center_mask(table))
        assert _kernels.center_mask(s3).all()  # a group: associative at every z

    @pytest.mark.parametrize("n", [3, 70, 130])
    @pytest.mark.parametrize("block", ["default", "one entry", "three candidates"])
    def test_center_fails_at_one_row(self, monkeypatch, n, block):
        """On x.y = y with row r swapping the two least points p, q other
        than r, p and q are central at every row but r and fail there;
        every other z is central. Checked for r = 0, 1, n//2 and n-1, so a
        row filter that skips row 0, stops before the last row or skips
        rows between rounds keeps p and q."""
        if block == "one entry":
            monkeypatch.setattr(_kernels, "_CENTRE_ENTRIES", 1)
        elif block == "three candidates":
            monkeypatch.setattr(_kernels, "_CENTRE_ENTRIES", 3 * n * n)
        for r in sorted({0, 1, n // 2, n - 1}):
            p, q = [x for x in range(3) if x != r][:2]
            table = np.tile(np.arange(n, dtype=np.int32), (n, 1))
            table[r, [p, q]] = [q, p]
            want = np.ones(n, dtype=np.bool_)
            want[[p, q]] = False
            assert np.array_equal(reference_center_mask(table), want)
            assert np.array_equal(_kernels.center_mask(table), want)

    @pytest.mark.parametrize("block", ["default", "one entry", "four points"])
    @pytest.mark.parametrize("name", KERNEL_SYSTEMS)
    def test_fano_matches_reference(self, monkeypatch, name, block):
        """The rows against the row oracle, and their point sets against the
        pure-Python plane search."""
        s = _kernel_system(name)
        _set_block(monkeypatch, block, s.v)
        got = _kernels.pasch_census(s.third_table, s.lines)[2]
        want = reference_fano_rows(s.third_table)
        assert got.dtype == want.dtype == np.int32
        assert got.shape == want.shape and np.array_equal(got, want)
        assert sorted(map(frozenset, got.tolist()), key=sorted) == list(reference_fano_planes(s))

    def test_on_relabelled_systems(self):
        """Relabelling changes which lines lie above each point and their
        order; the rows and masks still match."""
        for name in ("pg4", "sts15_2", "sts19"):
            for seed in (1, 2):
                s = _relabelled(_kernel_system(name), seed)
                table = s.loop().table
                assert np.array_equal(_kernels.center_mask(table), reference_center_mask(table))
                _check_scan(s)

    @pytest.mark.parametrize("kernel, limit", [("fano_planes", 1_250_000), ("center_mask", 400_000)])
    def test_temporaries_stay_bounded(self, kernel, limit):
        """On pg(6) (v = 127, loop order 128): the Fano planes come out of
        the Pasch scan, 11811 rows (331 KB, held twice while the blocks are
        joined) gathered fewer than 2^12 + 62 line pairs at a time;
        center_mask compares one row at a time while all 128 candidates
        survive, two 128 x 128 int32 gathers. A scan of all points, or of
        all rows and candidates, at once would take several MB. The scan's
        own temporaries are bounded in
        TestPaschKernel::test_temporaries_stay_bounded."""
        s = catalog.pg(6)
        if kernel == "center_mask":
            table = s.loop().table
            run = lambda: _kernels.center_mask(table)
        else:
            run = lambda: _kernels.pasch_census(s.third_table, s.lines)[2]
        tracemalloc.start()
        try:
            out = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if kernel == "fano_planes":
            assert len(out) == 11811
        assert peak < limit


class TestNormalTripleFano:
    def test_pg3(self, pg3):
        loop = pg3.loop()
        tri = sl.generated_subloop(loop, {1, 2})
        assert sl.check_normal_triple_fano(loop, tri, 9)

    def test_sts15_veblen_triple(self, sts15_2):
        loop = sts15_2.loop()
        tri = sl.generated_subloop(loop, {P(0), P(1)})
        for outer in (P(3), P(7), P(11)):
            assert sl.check_normal_triple_fano(loop, tri, outer)

    def test_non_normal_refused(self, sts15_2):
        loop = sts15_2.loop()
        tri = sl.subloop(loop, {0, P(5), P(9), P(12)})
        with pytest.raises(NotNormal):
            sl.check_normal_triple_fano(loop, tri, P(0))


class TestAutomorphisms:
    def test_orders(self, sts3):
        assert sl.automorphisms(catalog.pg(2)).order == 168
        assert sl.automorphisms(catalog.ag(2)).order == 432
        assert sl.automorphisms(sts3).order == 6

    def test_generators_generate(self):
        g = sl.automorphisms(catalog.pg(2))
        assert len(reference_closure(g.generators, 7)) == g.order

    @pytest.mark.parametrize(
        "name", ["fano", "sts9", "sts13_a", "sts13_b", "sts15_2", "ag2", "pg3"]
    )
    def test_generators_are_the_greedy_choice(self, name):
        """The generators read off the chain are the greedy choice: the
        sorted elements, each time the first one outside the subgroup
        generated so far. Checked on the system and three relabellings."""
        s = _named_system(name)
        for system in (s, _relabelled(s, 1), _relabelled(s, 2), _relabelled(s, 3)):
            g = sl.automorphisms(system)
            listed = tuple(sorted(reference_search_isomorphisms(system, system, find_all=True)))
            assert g.elements == listed
            assert g.generators == reference_generators(listed, system.v)
            assert len(reference_closure(g.generators, system.v)) == g.order == len(listed)

    @pytest.mark.parametrize("name", ["fano", "sts13_a", "sts15_2", "pg3"])
    def test_chain_shape(self, name):
        """base[i] lies outside the subsystem generated by base[:i], and
        transversals[i] sends base[i] to each point of its basic orbit in
        ascending order while fixing base[:i]."""
        s = _relabelled(_named_system(name), 4)
        g = sl.automorphisms(s)
        for i, (b, level) in enumerate(zip(g.base, g.transversals)):
            assert P(b) not in sl.generated_subloop(s.loop(), [P(x) for x in g.base[:i]]).members
            images = [u[b] for u in level]
            assert images == sorted(images) and b in images
            assert all(u[x] == x for u in level for x in g.base[:i])
        assert sl.generated_subloop(s.loop(), [P(x) for x in g.base]).order == s.v + 1
        assert g.order == np.prod([len(level) for level in g.transversals])

    def test_every_generator_preserves_triples(self, sts15_2):
        g = sl.automorphisms(sts15_2)
        tset = set(sts15_2.triples)
        for perm in g.generators:
            assert {tuple(sorted(perm[p] for p in t)) for t in tset} == tset

    def test_bound(self, pg3):
        with pytest.raises(BoundExceeded):
            sl.automorphisms(pg3, bound=10)


class TestLargeGroups:
    """Groups far past the node budget in size come back from the chain
    without listing their elements."""

    @pytest.mark.parametrize(
        "name, order",
        [("ag3", 303_264), ("pg4", np.prod([2**5 - 2**i for i in range(5)]))],
    )
    def test_order_and_generators(self, name, order):
        s = _named_system(name)
        tset = set(s.triples)
        start = time.perf_counter()
        g = sl.automorphisms(s)
        assert time.perf_counter() - start < 1.0
        assert g.order == order
        for perm in g.generators:
            assert sorted(perm) == list(range(s.v))
            assert {tuple(sorted(perm[p] for p in t)) for t in tset} == tset

    def test_generators_generate(self):
        """Each greedy generator lies outside the group of the ones before
        it, and all of them generate a group of the chain's order, by an
        independent Schreier-Sims."""
        combinatorics = pytest.importorskip("sympy.combinatorics")
        g = sl.automorphisms(catalog.pg(4))
        perms = [combinatorics.Permutation(list(p)) for p in g.generators]
        for j in range(1, len(perms)):
            assert not combinatorics.PermutationGroup(perms[:j]).contains(perms[j])
        assert combinatorics.PermutationGroup(perms).order() == g.order == 9_999_360

    def test_elements_refused_without_listing(self):
        g = sl.automorphisms(catalog.pg(4))
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceeded, match="order 9999360 exceeds the listing budget"):
                g.elements
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestAreIsomorphic:
    def test_sts13_pair_distinct(self):
        a = catalog.fixture("sts13_a")
        b = catalog.fixture("sts13_b")
        assert sl.are_isomorphic(a, b) is None

    def test_relabeling_found(self, sts15_2):
        import random

        rng = random.Random(7)
        perm = list(range(15))
        rng.shuffle(perm)
        other = sts15_2.relabel(perm)
        found = sl.are_isomorphic(sts15_2, other)
        assert found is not None
        assert sts15_2.relabel(found) == other

    def test_pg3_vs_sts15_2(self, pg3, sts15_2):
        assert sl.are_isomorphic(pg3, sts15_2) is None

    def test_different_orders(self, fano, pg3):
        assert sl.are_isomorphic(fano, pg3) is None


def _named_system(name):
    if name[:2] in ("ag", "pg"):
        return getattr(catalog, name[:2])(int(name[2:]))
    if name == "double19":
        return sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
    return catalog.fixture({"fano": "fano_labeled", "sts9": "sts9_labeled"}.get(name, name))


def _schreier_system(q, seed):
    """The Schreier extension of the system q by Z_2 with seeded factor
    values: an STS(2v+1) whose loop centre holds the kernel."""
    loop, rng = q.loop(), random.Random(seed)
    values = [rng.randrange(2) for _ in range(q.b)]
    return sl.build_schreier(sl.ElemAbelian2(1), loop, sl.FactorSystem(loop, 1, values)).system()


def _hyperplane_system(name):
    if name == "sts31":
        return _schreier_system(catalog.fixture("sts15_2"), 31)
    if name == "schreier63":
        return _schreier_system(catalog.pg(4), 63)
    return _kernel_system(name)


def _relabelled(s, seed):
    perm = list(range(s.v))
    random.Random(seed).shuffle(perm)
    return s.relabel(perm)


def _orbit_representatives(key, t):
    """The Schreier extensions of a fixture by classify's orbit
    representatives: one system per isomorphism class."""
    q = catalog.fixture(key).loop()
    n = sl.ElemAbelian2(t)
    reps = sl.classify(n, q).orbit_reps
    return [sl.build_schreier(n, q, sl.FactorSystem(q, t, vals)).system() for vals in reps]


class TestCentreRoute:
    @pytest.mark.parametrize(
        "key, t", [("fano_labeled", 1), ("fano_labeled", 2), ("sts9_labeled", 1)]
    )
    def test_same_verdicts_and_maps_as_plain_search(self, key, t):
        systems = _orbit_representatives(key, t)
        for i, a in enumerate(systems):
            for j, b in enumerate(systems):
                b = _relabelled(b, 10 * i + j)
                want = reference_search_isomorphisms(a, b, find_all=False)
                assert sl.are_isomorphic(a, b) == (want[0] if want else None), (i, j)
                assert (want != []) == (i == j)

    def test_sts39_rejections(self):
        """The five STS(39) over sts9 (t = 2), each pair with a relabelled
        second system, rejected through the centre; each also against
        itself."""
        systems = _orbit_representatives("sts9_labeled", 2)
        assert len(systems) == 5
        for i, a in enumerate(systems):
            for j, b in enumerate(systems):
                if i != j:
                    b = _relabelled(b, 10 * i + j)
                assert (sl.are_isomorphic(a, b, bound=39) is not None) == (i == j), (i, j)

    # sha256 of repr(map) for sts9 t = 2 representative rep against its
    # random.Random(seed) relabel, from the unbudgeted reference_search_isomorphisms
    STS39_MAPS = {
        (1, 1): "b118a12d4532f69fbafb2f106197c1987b24a19a0dfe866e48f174caeddf3483",
        (1, 4): "49d7bf16664615aeb3f69fab37e10842ddb910a99c8b8d6bc744c4a9e19099f5",
        (2, 1): "9d3d69c74b4b25cb3fa96b3ab50f0df76b59920e80c8718a3248d29923741ed4",
        (2, 4): "cd4e174ac6bdfb61a3cc807e6ba552dfdafe0232e24949d391f71c3f89858bc0",
    }

    @pytest.mark.parametrize("rep, seed", STS39_MAPS)
    def test_hard_sts39_positives_answer(self, rep, seed):
        """Relabelled STS(39) pairs whose search fails some 115,000
        candidate placements before its first map: each answers within the
        node budget, with the oracle's map."""
        a = _orbit_representatives("sts9_labeled", 2)[rep]
        found = sl.are_isomorphic(a, _relabelled(a, seed), bound=63)
        assert hashlib.sha256(repr(found).encode()).hexdigest() == self.STS39_MAPS[rep, seed]

    @staticmethod
    def _fresh(s):
        return sl.TripleSystem(s.v, s.lines)

    @pytest.mark.parametrize("t, bound", [(1, 31), (2, 63)])
    def test_route_decomposes_and_classifies_each_system_once(self, monkeypatch, t, bound):
        """The STS(19) and the STS(39) in every ordered pair, the second
        relabelled: the route's verdicts on systems that keep their
        decomposition over the centre equal those on fresh systems, and
        each system is decomposed once and each first system classified
        once."""
        calls = {"decompose": 0, "classify": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        firsts = [self._fresh(s) for s in _orbit_representatives("sts9_labeled", t)]
        seconds = [_relabelled(s, 7) for s in firsts]
        pairs = [(i, j) for i in range(len(firsts)) for j in range(len(firsts)) if i != j]
        fresh = [dc._centre_rejects(self._fresh(firsts[i]), self._fresh(seconds[j])) for i, j in pairs]
        monkeypatch.setattr(schreier, "classify", counted("classify", schreier.classify))
        monkeypatch.setattr(
            schreier, "factor_system_from_extension",
            counted("decompose", schreier.factor_system_from_extension),
        )
        kept = [dc._centre_rejects(firsts[i], seconds[j]) for i, j in pairs]
        assert kept == fresh and all(kept)
        once = {"decompose": 2 * len(firsts), "classify": len(firsts)}
        assert calls == once
        for i, j in pairs:  # and through are_isomorphic, with the stored route
            assert sl.are_isomorphic(firsts[i], seconds[j], bound=bound) is None
        assert calls == once

    def test_stored_route_leaves_no_cycle(self):
        """A system whose decomposition and classification are stored is
        freed by reference counting alone."""
        a, b = (self._fresh(s) for s in _orbit_representatives("sts9_labeled", 1)[:2])
        gc.disable()
        try:
            assert dc._centre_rejects(a, b)
            assert a._centre[1] is not None and b._centre is not None
            gone = weakref.ref(a), weakref.ref(b)
            del a, b
            assert [ref() for ref in gone] == [None, None]
        finally:
            gc.enable()

    def test_refused_classification_is_not_stored(self, monkeypatch):
        """A classify that raises BoundExceeded leaves the route undecided
        and stores no orbits, so a later call classifies again."""
        a, b = (self._fresh(s) for s in _orbit_representatives("sts9_labeled", 1)[:2])

        def refuse(*args, **kwargs):
            raise BoundExceeded("refused")

        monkeypatch.setattr(schreier, "classify", refuse)
        assert not dc._centre_rejects(a, b)
        assert a._centre is not None and a._centre[1] is None
        monkeypatch.undo()
        assert dc._centre_rejects(a, b)
        assert a._centre[1] is not None

    def test_rejection_consults_the_route_once(self, monkeypatch):
        calls = []
        route = dc._centre_rejects
        monkeypatch.setattr(dc, "_centre_rejects", lambda a, b: calls.append(1) or route(a, b))
        a, b = _orbit_representatives("sts9_labeled", 1)[:2]
        assert sl.are_isomorphic(a, b) is None
        assert len(calls) == 1

    # Pasch scans of the relabels at seeds 0, 1 and 2: the projective and
    # affine searches never fail a placement (any map of independent points
    # extends), the sts13_a ones do, and sts15_2 has three invariant classes
    RELABEL_SCANS = {"sts13_a": [1, 1, 1], "sts15_2": [1, 1, 1]}

    @pytest.mark.parametrize(
        "name, bound",
        [
            ("ag3", 31),
            ("ag4", 81),
            ("pg3", 31),
            ("pg4", 31),
            ("pg5", 63),
            ("sts13_a", 31),
            ("sts15_2", 31),
        ],
    )
    def test_positives_never_consult_the_route(self, monkeypatch, name, bound):
        """Each map is the first map of the unbudgeted oracle search, and
        each relabel is scanned as pinned: once its search fails a
        placement, or before the search when the source's points have
        several invariants. sts13_a is also refused against sts13_b, by the
        plain search alone: its centre is trivial, so the route does not
        decide."""

        def boom(*args, **kwargs):
            raise AssertionError("centre route consulted")

        monkeypatch.setattr(schreier, "classify", boom)
        monkeypatch.setattr(schreier, "factor_system_from_extension", boom)
        scanned, scan = [], _kernels.pasch_census
        monkeypatch.setattr(_kernels, "pasch_census", lambda t, l: scanned.append(t) or scan(t, l))
        s = _named_system(name)
        assert sl.are_isomorphic(s, s, bound=bound) == tuple(range(s.v))
        for seed in range(3):
            other = _relabelled(s, seed)
            found = sl.are_isomorphic(s, other, bound=bound)
            scans = self.RELABEL_SCANS.get(name, [0, 0, 0])[seed]
            assert sum(t is other.third_table for t in scanned) == scans, seed
            assert found is not None and s.relabel(found) == other
            assert found == reference_search_isomorphisms(s, other, find_all=False)[0]
        if name == "sts13_a":
            other = _named_system("sts13_b")
            assert reference_search_isomorphisms(s, other, find_all=False) == []
            assert sl.are_isomorphic(s, other) is None


class TestDeferredTargetScan:
    """When every point of the source has one Pasch invariant, the target
    is scanned at the first failed placement and not before."""

    @staticmethod
    def _count(monkeypatch, target):
        """[pasch scans of target, nodes visited], as are_isomorphic runs."""
        counts, scan, visit = [0, 0], _kernels.pasch_census, _search._Search.visit

        def counted_scan(third, lines):
            counts[0] += third is target.third_table
            return scan(third, lines)

        def counted_visit(search):
            counts[1] += 1
            visit(search)

        monkeypatch.setattr(_kernels, "pasch_census", counted_scan)
        monkeypatch.setattr(_search._Search, "visit", counted_visit)
        return counts

    @pytest.mark.parametrize("pair", ["pg4 / sts31", "sts13_a / sts13_b"])
    def test_refusal_through_the_skipped_scan(self, monkeypatch, pair):
        """A one-class source against a target whose invariants differ: no
        map, as the oracle finds none, after one scan of the target within
        v + 1 nodes, and the centre route is not consulted. Once scanned,
        the target is refused before the search."""
        if pair == "pg4 / sts31":
            a, b = catalog.pg(4), _relabelled(_hyperplane_system("sts31"), 1)
        else:
            a, b = (sl.TripleSystem(13, catalog.fixture(k).lines) for k in ("sts13_a", "sts13_b"))
        assert len(set(dc._invariants(a))) == 1
        monkeypatch.setattr(dc, "_centre_rejects", lambda *args: pytest.fail("route consulted"))
        counts = self._count(monkeypatch, b)
        assert sl.are_isomorphic(a, b) is None
        assert counts[0] == 1 and 0 < counts[1] <= a.v + 1
        nodes = counts[1]
        assert sl.are_isomorphic(a, b) is None
        assert counts == [1, nodes]
        assert reference_search_isomorphisms(a, b, find_all=False) == []

    @pytest.mark.parametrize("name", ["sts15_2", "sts19"])
    def test_several_classes_scan_the_target_first(self, monkeypatch, name):
        """A source whose points have several invariants has its targets
        scanned before the first node: a relabel, and for an STS(19) the
        other two STS(19), whose invariants agree with its own."""
        if name == "sts15_2":
            a = _named_system(name)
            targets = [_relabelled(a, 1)]
        else:
            a, *others = _orbit_representatives("sts9_labeled", 1)
            targets = [_relabelled(a, 1)] + [sl.TripleSystem(19, s.lines) for s in others]
        assert len(set(dc._invariants(a))) > 1
        for b in targets:
            counts = self._count(monkeypatch, b)
            at_first_node = []
            visit = _search._Search.visit
            monkeypatch.setattr(
                _search._Search, "visit",
                lambda search: at_first_node.append(counts[0]) or visit(search),
            )
            assert (sl.are_isomorphic(a, b) is None) == (b is not targets[0])
            assert at_first_node[0] == 1 and counts[0] == 1
            monkeypatch.undo()


class TestNodeBudget:
    def test_are_isomorphic_refuses_past_the_budget(self, monkeypatch, fano):
        # a node is one candidate placement: a map is found in three, one per
        # point outside the subsystem the earlier ones generate
        monkeypatch.setattr(dc, "_NODE_BUDGET", 2)
        with pytest.raises(BoundExceeded, match="budget of 2 nodes"):
            sl.are_isomorphic(fano, _relabelled(fano, 1))
        monkeypatch.setattr(dc, "_NODE_BUDGET", 3)
        assert sl.are_isomorphic(fano, fano) == tuple(range(7))

    def test_a_node_is_one_candidate_placement(self, monkeypatch):
        """Pinned placement counts: a relabelled STS(31) pair whose search
        backtracks, and the chain of a relabelled STS(19), in which the
        invariant test on forced images prunes. Each runs at its count and
        is refused one below it."""
        s31 = _orbit_representatives("fano_labeled", 2)[1]
        s19 = _relabelled(_orbit_representatives("sts9_labeled", 1)[2], 5)
        for kind, count, search in (
            ("isomorphism", 6587, lambda: sl.are_isomorphic(s31, _relabelled(s31, 1))),
            ("automorphism", 266, lambda: sl.automorphisms(s19)),
        ):
            monkeypatch.setattr(dc, "_NODE_BUDGET", count - 1)
            with pytest.raises(BoundExceeded, match=f"{kind} search exceeded its budget"):
                search()
            monkeypatch.setattr(dc, "_NODE_BUDGET", count)
            search()

    def test_automorphisms_refuse_past_the_budget(self, monkeypatch, fano):
        """The chain searches count their nodes against the same budget."""
        monkeypatch.setattr(dc, "_NODE_BUDGET", 5)
        with pytest.raises(BoundExceeded, match="budget of 5 nodes"):
            sl.automorphisms(fano)

    def test_one_value_bounds_all_three_searches(self, monkeypatch, fano):
        """One patched module value bounds are_isomorphic, automorphisms and
        find_equivalence alike; each is read per call."""
        op = steiner_operator.from_factor_system(catalog.fixture("f1_sts9"))
        searches = (
            ("isomorphism", lambda: sl.are_isomorphic(fano, _relabelled(fano, 1))),
            ("automorphism", lambda: sl.automorphisms(fano)),
            ("isotopy", lambda: sl.find_equivalence(op, op)),
        )
        monkeypatch.setattr(dc, "_NODE_BUDGET", 2)
        for kind, search in searches:
            with pytest.raises(BoundExceeded, match=f"^{kind} search exceeded its"):
                search()
        monkeypatch.setattr(dc, "_NODE_BUDGET", 10)
        for _, search in searches:
            search()

    def test_failing_placements_stop_at_the_first_clash(self, monkeypatch):
        """Pinned: the points that failing candidate placements place before
        they return False, over the STS(31) search above. A pair whose third
        point is placed already is checked where the closure meets it;
        checking it only when the queued pair of the same triple comes off
        the queue places 98,304 points here, and queuing every pair 18,432."""
        s31 = _orbit_representatives("fano_labeled", 2)[1]
        place, placed = _search._Search.place, [0, 0]

        def counted(search, p, q):
            mark = len(search.placed)
            ok = place(search, p, q)
            if not ok:
                placed[0] += 1
                placed[1] += len(search.placed) - mark
            return ok

        monkeypatch.setattr(_search._Search, "place", counted)
        assert sl.are_isomorphic(s31, _relabelled(s31, 1)) is not None
        assert placed == [6144, 12288]


_PLACE_SOURCES = ("fano", "sts9", "sts13_a", "sts15_2", "pg3", "fano_labeled", "sts9_labeled")


def _plans(third, inv):
    """The two closure plans the searches walk: the isomorphism search's,
    along the rarest invariant class first, then ascending ("free"), and
    the automorphism chain's, along the natural order ("base")."""
    size = Counter(inv)
    rarest = sorted(range(len(third)), key=lambda p: (size[inv[p]], p))
    return {
        "free": _search.Plan(third, inv, rarest),
        "base": _search.Plan(third, inv, range(len(third))),
    }


def _drawn_place_source(data):
    """A catalog system of _PLACE_SOURCES or a drawn Schreier extension of
    a labelled one (t = 0 is the catalog system itself)."""
    key = data.draw(st.sampled_from(_PLACE_SOURCES))
    t = data.draw(st.integers(0, 2)) if key.endswith("_labeled") else 0
    s = _named_system(key)
    if t:
        q, n = s.loop(), sl.ElemAbelian2(t)
        values = data.draw(st.lists(st.integers(0, n.size - 1), min_size=s.b, max_size=s.b))
        s = sl.build_schreier(n, q, sl.FactorSystem(q, t, values)).system()
    return s


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_place_matches_the_closure_oracle(data):
    """Candidate placements on a catalog system or a drawn Schreier
    extension (t = 0 is the catalog system itself) against a relabelled
    copy, each of the next point of a plan's direct order (the free order
    or the chain's base), from a partial map the same placements built:
    the verdict, the map and the points placed, in order and up to a clash,
    are the pair-scan oracle's; the map is the least closed one, pre
    inverts img, and undo restores the map before the placement. Uniform
    invariants let the closure run on."""
    s1 = _drawn_place_source(data)
    v = s1.v
    perm = data.draw(st.permutations(range(v)))
    s2 = s1.relabel(perm)
    if data.draw(st.booleans()):
        inv1, inv2 = dc._invariants(s1), dc._invariants(s2)
    else:
        inv1 = inv2 = [0] * v
    third1, third2 = s1.third_table.tolist(), s2.third_table.tolist()
    plan = _plans(third1, inv1)[data.draw(st.sampled_from(["free", "base"]))]
    search = _search._Search(plan, third2, inv2, budget=1, kind="test")
    for _ in range(data.draw(st.integers(1, 6))):
        unplaced = [x for x in plan.direct if search.img[x] == -1]
        if not unplaced:
            break
        p = unplaced[0]
        q = data.draw(st.one_of(st.just(perm[p]), st.integers(0, v - 1)))
        before = (list(search.img), list(search.pre), list(search.placed))
        img, pre, placed = (list(x) for x in before)
        ok = reference_pair_scan_place(third1, inv1, third2, inv2, img, pre, placed, p, q)
        want = reference_place(third1, inv1, third2, inv2, search.img, p, q)
        assert search.place(p, q) == ok == (want is not None)
        assert (search.img, search.pre, search.placed) == (img, pre, placed)
        if ok:
            assert search.img == want
            assert search.pre == [want.index(y) if y in want else -1 for y in range(v)]
        if not ok or data.draw(st.booleans()):
            search.undo(len(before[2]))
            assert (search.img, search.pre, search.placed) == before


class TestClosurePlan:
    """The plans the searches walk, against the pair-scan closure."""

    SOURCES = ("fano", "sts9", "sts13_a", "sts15_2", "pg3", "pg4", "ag3", "double19")

    @staticmethod
    def _systems():
        for name in TestClosurePlan.SOURCES:
            yield name, _named_system(name)
        yield "sts31", _hyperplane_system("sts31")

    def test_a_complete_plan_holds_each_triple_once(self):
        """Both plans of a system name every triple of the source once, at
        its last point in the order the plan places points; the direct
        points are those with steps, and every point is placed once."""
        for name, s in self._systems():
            for plan in _plans(s.third_table.tolist(), dc._invariants(s)).values():
                steps = plan.steps
                assert tuple(steps) == plan.direct, name
                order = [x for p in plan.direct for x in (p, *(x for x, *_ in steps[p]))]
                assert sorted(order) == list(range(s.v)), name
                at = {x: i for i, x in enumerate(order)}
                triples = [
                    (x, *pair) for level in steps.values() for x, a, c, more in level
                    for pair in ((a, c), *more)
                ]
                assert sorted(tuple(sorted(t)) for t in triples) == sorted(s.triples), name
                assert all(at[x] > max(at[a], at[c]) for x, a, c in triples), name

    def test_the_chain_base_is_the_hyperplane_base(self):
        """The chain plan's direct points are the base of
        _kernels.generator_forms, behind hyperplanes: two routines for the
        points outside the subsystem that the points before them generate."""
        for name, s in self._systems():
            third = s.third_table.tolist()
            got = _plans(third, dc._invariants(s))["base"].direct
            assert list(got) == _kernels.generator_forms(third)[0], name

    @pytest.mark.parametrize("kind", ["free", "base"])
    def test_places_points_in_the_oracle_order(self, kind):
        """Each direct point of a plan, placed at its image under a
        relabelling, places the points of its closure in the pair-scan
        oracle's order, level by level, over the relabel's own invariants."""
        for name, s in self._systems():
            perm = list(range(s.v))
            random.Random(7).shuffle(perm)
            other = s.relabel(perm)
            third1, third2 = s.third_table.tolist(), other.third_table.tolist()
            inv1, inv2 = dc._invariants(s), dc._invariants(other)
            plan = _plans(third1, inv1)[kind]
            search = _search._Search(plan, third2, inv2, budget=1, kind="test")
            img, pre, placed = [-1] * s.v, [-1] * s.v, []
            for p in plan.direct:
                assert search.img[p] == -1, name
                assert reference_pair_scan_place(
                    third1, inv1, third2, inv2, img, pre, placed, p, perm[p]
                )
                assert search.place(p, perm[p])
                assert search.placed == placed, name
            assert search.img == img == perm, name


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_chain_base_matches_generator_forms_on_drawn_systems(data):
    """The chain plan's direct points and the base of
    _kernels.generator_forms agree on drawn Schreier extensions too."""
    third = _drawn_place_source(data).third_table.tolist()
    plan = _search.Plan(third, [0] * len(third), range(len(third)))
    assert list(plan.direct) == _kernels.generator_forms(third)[0]


class TestScanBound:
    def test_dense_loop_above_scan_limit(self, fano, monkeypatch):
        import steinerloops.design_core as dc

        monkeypatch.setattr(dc, "SCAN_ORDER_LIMIT", 4)
        loop = sl.loop_from_system(fano)
        assert loop.table.shape == (8, 8)
        assert loop.mul(1, 2) == fano.third(0, 1) + 1
        assert loop.mul(3, 3) == 0 and loop.mul(0, 5) == 5
        assert sl.system_from_loop(loop) == fano
        with pytest.raises(BoundExceeded):
            loop.center()
        with pytest.raises(BoundExceeded):
            loop.is_associative()


class TestAdmissibility:
    def test_orders(self):
        assert [v for v in range(1, 22) if sl.admissible(v)] == [1, 3, 7, 9, 13, 15, 19, 21]

    def test_factorizations(self):
        assert not sl.admissible_factorization(14, (2, 7))
        assert sl.admissible_factorization(20, (2, 10))
        assert not sl.admissible_factorization(20, (4, 5))
        assert sl.admissible_factorization(16, (2, 8))


def _all_subloops(loop):
    """Every subloop, by closing each known subloop with one more element."""
    start = frozenset({0})
    seen = {start}
    queue = [start]
    while queue:
        h = queue.pop()
        for x in range(1, loop.n):
            if x in h:
                continue
            grown = sl.generated_subloop(loop, set(h) | {x}).members
            if grown not in seen:
                seen.add(grown)
                queue.append(grown)
    return seen


@pytest.mark.parametrize("name", ["fano_labeled", "sts9_labeled", "sts13_a", "sts15_2"])
def test_quotient_by_every_normal_subloop(name):
    s = catalog.fixture(name)
    loop = s.loop()
    for members in _all_subloops(loop):
        sub = sl.Subloop(loop, members)
        if len(members) < loop.n and sl.is_normal(loop, sub):
            q = sl.quotient(loop, sub)
            assert q.order * len(members) == loop.n


def test_quotient_normal_subloops_sts19(sts19_example):
    loop = sts19_example.loop()
    for members in _all_subloops(loop):
        sub = sl.Subloop(loop, members)
        if len(members) < loop.n and sl.is_normal(loop, sub):
            sl.quotient(loop, sub)
