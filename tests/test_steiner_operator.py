import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from conftest import (
    reference_candidate_maps,
    reference_double_operator,
    reference_find_equivalence,
    reference_operator_check,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_loop_checks import Checked, _extension_sources, _refuse

import steinerloops as sl
from steinerloops import catalog, formats
from steinerloops import design_core as dc
from steinerloops import steiner_operator as so
from steinerloops.errors import (
    BadDiagonal,
    BadIdentityBlock,
    BadSection,
    BoundExceeded,
    DiagonalViolation,
    Incompletable,
    NotLatin,
    NotSymmetric,
    OperatorError,
    ShapeMismatch,
    TotalSymmetryViolation,
    TransposeViolation,
    ValidationError,
)

n1 = sl.ElemAbelian2(1)


@pytest.fixture(scope="module")
def sts9_loop():
    return catalog.fixture("sts9_loop_table")


@pytest.fixture(scope="module")
def example_op(sts9_loop):
    return sl.double_operator(sts9_loop, catalog.fixture("phi_11"))


@pytest.fixture(scope="module")
def fano_q():
    return catalog.fixture("fano_labeled").loop()


class TestLatinSquare:
    def test_valid(self):
        sq = sl.LatinSquare([[0, 1], [1, 0]])
        assert sq.n == 2 and sq.is_symmetric()

    def test_invalid(self):
        with pytest.raises(ValidationError):
            sl.LatinSquare([[0, 1], [0, 1]])
        with pytest.raises(ValidationError):
            sl.LatinSquare([[0, 1, 2], [1, 2, 0]])


class TestValidateOperator:
    """Conditions (i)-(iv) are checked when an operator is constructed."""

    def test_example_operator(self, example_op):
        op = so.SteinerOperator(example_op.q, example_op.n_loop, example_op.blocks.copy())
        assert op == example_op
        assert np.array_equal(example_op.blocks[1, 1], catalog.fixture("phi_11").entries)

    def test_trivial_quotient(self, sts9_loop):
        q1 = sl.SteinerLoop([[0]])
        op = so.SteinerOperator(q1, sts9_loop, sts9_loop.table[None, None])
        rebuilt = sl.build_extension(op)
        assert np.array_equal(rebuilt.table, sts9_loop.table)

    def test_inconsistent_swap_detected(self, example_op):
        blocks = example_op.blocks.copy()
        # swapping two rows of one off-diagonal block keeps it Latin but
        # breaks the cancellation condition against the diagonal block
        blocks[0, 1][[1, 2]] = blocks[0, 1][[2, 1]]
        blocks[1, 0] = blocks[0, 1].T
        with pytest.raises(TotalSymmetryViolation):
            so.SteinerOperator(example_op.q, example_op.n_loop, blocks)

    def test_matches_reference_on_mutations(self, example_op, fano_q):
        """Seeded mutations of three operators: construction raises exactly
        what the loop-based reference check raises (type, message, block),
        and the mutations reach every condition."""
        ops = [
            example_op,
            so.from_factor_system(catalog.fixture("f_sts15_example")),
            so.from_factor_system(sl.zero_factor_system(sl.ElemAbelian2(2), fano_q)),
        ]
        rng = np.random.default_rng(20240917)

        def outcome(check, *args):
            try:
                check(*args)
            except (OperatorError, AssertionError) as exc:
                return type(exc), str(exc), getattr(exc, "block", None)
            return None

        seen = set()
        for op in ops:
            m, k = op.q.n, op.n_loop.n
            for _ in range(300):
                blocks = op.blocks.copy()
                for _ in range(rng.integers(1, 3)):
                    p, r = (int(i) for i in rng.integers(0, m, size=2))
                    a, b = (int(i) for i in rng.integers(0, k, size=2))
                    kind = rng.integers(5)
                    block = blocks[p, r]
                    if kind == 0:
                        block[a, b] = rng.integers(0, k)
                    elif kind == 1:
                        block[[a, b]] = block[[b, a]]
                    elif kind == 2:
                        block[:, [a, b]] = block[:, [b, a]]
                    elif kind == 3:
                        block[...] = rng.permutation(k)[block]
                    else:  # rows stay permutations, columns break
                        block[a] = block[b]
                    if rng.integers(2):
                        blocks[r, p] = block.T
                want = outcome(reference_operator_check, op.q, op.n_loop, blocks)
                got = outcome(so.SteinerOperator, op.q, op.n_loop, blocks)
                assert got == want
                seen.add(None if want is None else want[0])
        assert seen == {
            None,
            NotLatin,
            BadIdentityBlock,
            TransposeViolation,
            DiagonalViolation,
            TotalSymmetryViolation,
        }

    def test_checked_once_per_operator(self, sts9_loop, monkeypatch):
        """double() builds its operator from the checked square without the
        block check, and building the extension does not check either; an
        operator from outside is checked once, on construction."""
        calls = []
        check = so._check_blocks
        monkeypatch.setattr(so, "_check_blocks", lambda *args: calls.append(1) or check(*args))
        sl.double(sts9_loop, catalog.fixture("phi_11"))
        assert calls == []
        op = sl.double_operator(sts9_loop, catalog.fixture("phi_11"))
        sl.build_extension(so.SteinerOperator(op.q, op.n_loop, op.blocks))
        assert len(calls) == 1


class TestBuildExtension:
    def test_sts19_example(self, example_op):
        loop = sl.build_extension(example_op)
        assert loop.n == 20
        s = loop.system()
        assert sl.is_projective_hyperplane(s, range(9))

    def test_printed_triple(self, sts9_loop):
        s = sl.double(sts9_loop, catalog.fixture("phi_11"))
        # (1bar,4).(1bar,1) = (0bar,2): points 13, 10, 1
        assert (1, 10, 13) in s.triples

    def test_schreier_blocks_match(self, fano_q):
        f = catalog.fixture("f_sts15_example")
        via_operator = sl.build_extension(so.from_factor_system(f))
        via_schreier = sl.build_schreier(n1, fano_q, f)
        assert np.array_equal(via_operator.table, via_schreier.table)

    def test_embedded_subloop_normal(self, example_op):
        loop = sl.build_extension(example_op)
        sub = sl.subloop(loop, set(range(10)))
        assert sl.is_normal(loop, sub)
        q = sl.quotient(loop, sub)
        assert q.order == 2

    def test_order_arithmetic(self, fano_q):
        f = sl.zero_factor_system(sl.ElemAbelian2(2), fano_q)
        op = so.from_factor_system(f)
        assert sl.build_extension(op).n == 8 * 4

    def test_xor_shaped_blocks_reduce_to_factor_system(self, fano_q):
        f = catalog.fixture("f_sts15_example")
        op = so.from_factor_system(f)
        # block (P,Q) sends (x, y) to x ^ y ^ f(P,Q), so (0, 0) recovers f
        qs = fano_q.system()
        recovered = [int(op.blocks[a + 1, b + 1, 0, 0]) for a, b, _ in qs.triples]
        assert tuple(recovered) == f.values


class TestOperatorFromExtension:
    def test_sts19_round_trip(self, example_op):
        loop = sl.build_extension(example_op)
        sub = sl.subloop(loop, set(range(10)))
        op2 = sl.operator_from_extension(loop, sub)
        rebuilt = sl.build_extension(op2)
        assert sl.are_isomorphic(rebuilt.system(), loop.system()) is not None
        # (P, x) -> section(P) . x is an explicit isomorphism rebuilt -> loop
        section = [0, 10]
        iso = np.array(
            [loop.mul(section[p], x) for p in range(2) for x in range(10)], dtype=np.int32
        )
        assert np.array_equal(iso[rebuilt.table], loop.table[iso[:, None], iso[None, :]])
        # the diagonal block is again a symmetric square with identity diagonal
        d = op2.blocks[1, 1]
        assert np.array_equal(d, d.T) and not np.diagonal(d).any()

    def test_pg3_with_order2(self, pg3):
        loop = pg3.loop()
        op = sl.operator_from_extension(loop, sl.subloop(loop, {0, 1}))
        rebuilt = sl.build_extension(op)
        assert sl.are_isomorphic(rebuilt.system(), pg3) is not None

    def test_trivial_subloop(self, fano):
        loop = fano.loop()
        op = sl.operator_from_extension(loop, sl.subloop(loop, {0}))
        assert op.blocks.shape == (8, 8, 1, 1)
        assert np.array_equal(sl.build_extension(op).table, loop.table)

    def test_custom_section(self, example_op):
        loop = sl.build_extension(example_op)
        sub = sl.subloop(loop, set(range(10)))
        op2 = sl.operator_from_extension(loop, sub, section=[0, 13])
        rebuilt = sl.build_extension(op2)
        assert sl.are_isomorphic(rebuilt.system(), loop.system()) is not None

    def test_bad_section(self, example_op):
        loop = sl.build_extension(example_op)
        sub = sl.subloop(loop, set(range(10)))
        with pytest.raises(BadSection):
            sl.operator_from_extension(loop, sub, section=[1, 10])
        with pytest.raises(BadSection):
            sl.operator_from_extension(loop, sub, section=[0, 3])

    def test_round_trip_all_proper_normal_subloops(self, sts15_2):
        loop = sts15_2.loop()
        for h in sl.hyperplanes(sts15_2):
            sub = sl.subloop(loop, {0} | {p + 1 for p in h})
            op = sl.operator_from_extension(loop, sub)
            rebuilt = sl.build_extension(op)
            assert sl.are_isomorphic(rebuilt.system(), sts15_2) is not None


class TestCompleteFromBlocks:
    def test_derives_printed_block(self, sts9_loop):
        op = sl.complete_from_blocks(
            sl.SteinerLoop([[0, 1], [1, 0]]),
            sts9_loop,
            {1: catalog.fixture("phi_11")},
            {},
        )
        assert np.array_equal(op.blocks[0, 1], catalog.fixture("phi_om1").entries)
        assert op.blocks[0, 1][2, 1] == 4

    def test_determination(self, fano_q):
        f = catalog.fixture("f_sts15_example")
        op = so.from_factor_system(f)
        diagonal = {p: sl.LatinSquare(op.blocks[p, p]) for p in range(1, 8)}
        qs = fano_q.system()
        off = {}
        for a, b, _ in qs.triples:
            off[(a + 1, b + 1)] = sl.LatinSquare(op.blocks[a + 1, b + 1])
        assert len(off) == 7  # one block per quotient triple
        rebuilt = sl.complete_from_blocks(fano_q, op.n_loop, diagonal, off)
        assert np.array_equal(rebuilt.blocks, op.blocks)

    def test_any_latin_data_completes(self, fano_q):
        """Swapping the supplied block for a different Latin square still
        completes: the block conditions only couple blocks within one
        quotient triple, so well-formed data is never inconsistent. The
        completion fails only on missing or malformed blocks."""
        f = catalog.fixture("f_sts15_example")
        op = so.from_factor_system(f)
        diagonal = {p: sl.LatinSquare(op.blocks[p, p]) for p in range(1, 8)}
        qs = fano_q.system()
        off = {}
        for a, b, _ in qs.triples:
            off[(a + 1, b + 1)] = sl.LatinSquare(op.blocks[a + 1, b + 1])
        first = next(iter(off))
        off[first] = sl.LatinSquare(np.roll(off[first].entries, 1, axis=0))
        rebuilt = sl.complete_from_blocks(fano_q, op.n_loop, diagonal, off)
        assert sl.build_extension(rebuilt).n == 16

    def test_missing_diagonal(self, sts9_loop):
        with pytest.raises(Incompletable):
            sl.complete_from_blocks(sl.SteinerLoop([[0, 1], [1, 0]]), sts9_loop, {}, {})

    def test_missing_off_block(self, fano_q):
        f = catalog.fixture("f_sts15_example")
        op = so.from_factor_system(f)
        diagonal = {p: sl.LatinSquare(op.blocks[p, p]) for p in range(1, 8)}
        with pytest.raises(Incompletable):
            sl.complete_from_blocks(fano_q, op.n_loop, diagonal, {})

    def test_two_blocks_for_one_triple(self, fano_q):
        f = catalog.fixture("f_sts15_example")
        op = so.from_factor_system(f)
        diagonal = {p: sl.LatinSquare(op.blocks[p, p]) for p in range(1, 8)}
        qs = fano_q.system()
        off = {}
        for a, b, c in qs.triples:
            off[(a + 1, b + 1)] = sl.LatinSquare(op.blocks[a + 1, b + 1])
        a, b, c = qs.triples[0]
        off[(a + 1, c + 1)] = sl.LatinSquare(op.blocks[a + 1, c + 1])
        with pytest.raises(Incompletable):
            sl.complete_from_blocks(fano_q, op.n_loop, diagonal, off)


class TestDouble:
    def test_sts19(self, sts9_loop, sts19_example):
        s = sl.double(sts9_loop, catalog.fixture("phi_11"))
        assert s == sts19_example
        assert s.v == 19
        embedded = sl.TripleSystem(9, [t for t in s.triples if max(t) < 9])
        assert sl.are_isomorphic(embedded, catalog.ag(2)) is not None

    def test_sts3_doubles_to_fano(self, sts3):
        loop3 = sts3.loop()
        for sq in sl.enumerate_symmetric_squares(4):
            s = sl.double(loop3, sq)
            assert sl.are_isomorphic(s, catalog.pg(2)) is not None

    def test_sts1_doubles_to_sts3(self, sts1):
        s = sl.double(sts1.loop(), sl.LatinSquare([[0, 1], [1, 0]]))
        assert s.triples == ((0, 1, 2),)

    def test_rejects_asymmetric(self, sts9_loop):
        sq = catalog.fixture("phi_om1")  # Latin but not symmetric
        with pytest.raises(NotSymmetric):
            sl.double(sts9_loop, sq)

    def test_rejects_bad_diagonal(self, sts3):
        sq = sl.LatinSquare([[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]])
        with pytest.raises(BadDiagonal):
            sl.double(sts3.loop(), sq)

    def test_doubled_hyperplane_meets_every_triple(self, sts9_loop):
        s = sl.double(sts9_loop, catalog.fixture("phi_11"))
        emb = set(range(9))
        assert all(emb & set(t) for t in s.triples)

    def test_enumeration_count_order4(self):
        assert sum(1 for _ in sl.enumerate_symmetric_squares(4)) == 6


def assert_derived(op, blocks):
    """op holds exactly these blocks, read-only, and they pass the block
    check and its loop-based oracle."""
    assert np.array_equal(op.blocks, blocks) and not op.blocks.flags.writeable
    so._check_blocks(op.q.table, op.n_loop.table, op.blocks)
    reference_operator_check(op.q, op.n_loop, op.blocks)


class TestDerivedOperators:
    """double_operator, operator_from_extension and from_factor_system
    build their blocks from checked data without the block check; the blocks
    equal those of a route that checks them."""

    @pytest.mark.parametrize("key, k", [("pg1", 4), ("fano_labeled", 8), ("sts9_labeled", 10)])
    def test_double_matches_completion(self, key, k):
        obj = catalog.pg(1) if key == "pg1" else catalog.fixture(key)
        n_loop = obj.loop()
        assert n_loop.n == k
        for square in itertools.islice(sl.enumerate_symmetric_squares(k), 12):
            op = sl.double_operator(n_loop, square)
            assert_derived(op, reference_double_operator(n_loop, square).blocks)
            assert sl.double(n_loop, square) == sl.build_extension(op).system()

    def test_double_phi_blocks(self, sts9_loop):
        op = sl.double_operator(sts9_loop, catalog.fixture("phi_11").entries)
        assert np.array_equal(op.blocks[0, 1], catalog.fixture("phi_om1").entries)
        assert np.array_equal(op.blocks[1, 0], catalog.fixture("phi_om1").entries.T)
        assert_derived(op, reference_double_operator(sts9_loop, catalog.fixture("phi_11")).blocks)
        for double_operator in (sl.double_operator, reference_double_operator):
            with pytest.raises(NotSymmetric):
                double_operator(sts9_loop, catalog.fixture("phi_om1"))

    @given(which=st.integers(0, 2), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_extension_matches_products(self, which, data):
        """Block (P, Q) sends (x, y) to s(PQ) . ((s(P) . x) . (s(Q) . y)),
        read back in the subloop's labels, product by product."""
        loop, n = _extension_sources()[which]
        cosets = sl.quotient(loop, n).cosets
        section = [0] + [data.draw(st.sampled_from(sorted(c))) for c in cosets[1:]]
        op = sl.operator_from_extension(loop, n, section)
        _, order = n.as_loop()
        label = {e: i for i, e in enumerate(order)}
        epi = {e: i for i, c in enumerate(cosets) for e in c}
        m, k = len(cosets), len(order)
        blocks = np.empty((m, m, k, k), dtype=np.int32)
        for p, r, x, y in itertools.product(range(m), range(m), range(k), range(k)):
            prod = loop.mul(loop.mul(section[p], order[x]), loop.mul(section[r], order[y]))
            s = section[epi[prod]]
            blocks[p, r, x, y] = label[loop.mul(s, prod)]
        assert_derived(op, blocks)
        assert so.SteinerOperator(op.q, op.n_loop, op.blocks) == op

    def test_extension_refuses_foreign_parent(self, pg3):
        """A subloop whose parent is a relabelled copy of the loop yields a
        subloop table that block (0,0) does not match."""
        loop = pg3.loop()
        perm = np.arange(loop.n)
        perm[[1, 2]] = [2, 1]
        table = np.empty_like(loop.table)
        table[perm[:, None], perm] = perm[loop.table]
        copy = sl.SteinerLoop(table)
        with pytest.raises(BadIdentityBlock, match=r"block \(0,0\) is not the subloop table"):
            sl.operator_from_extension(loop, sl.Subloop(copy, frozenset(range(8))))
        sl.operator_from_extension(loop, sl.Subloop(loop, frozenset(range(8))))

    @given(
        name=st.sampled_from(["fano_labeled", "sts9_labeled", "sts13_a"]),
        t=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_factor_system_matches_values(self, name, t, data):
        q = catalog.fixture(name).loop()
        qs = q.system()
        values = data.draw(st.lists(st.integers(0, (1 << t) - 1), min_size=qs.b, max_size=qs.b))
        f = sl.FactorSystem(q, t, values)
        op = so.from_factor_system(f)
        on_triple = {frozenset(tri): v for tri, v in zip(qs.triples, values)}
        x = np.arange(1 << t)
        blocks = np.empty((q.n, q.n, 1 << t, 1 << t), dtype=np.int32)
        for p, r in itertools.product(range(q.n), repeat=2):
            fpr = on_triple.get(frozenset((p - 1, r - 1, int(q.table[p, r]) - 1)), 0)
            blocks[p, r] = x[:, None] ^ x ^ fpr
        assert_derived(op, blocks)
        assert np.array_equal(op.n_loop.table, x[:, None] ^ x)


class TestWhereTheBlockCheckRuns:
    def test_derived_operators_skip_the_check(self, monkeypatch, sts9_loop, fano_q):
        square = catalog.fixture("phi_11")
        f = sl.FactorSystem(fano_q, 2, [0, 1, 2, 3, 1, 2, 3])
        loop, n = _extension_sources()[0]
        builders = {
            "double": lambda: sl.double(sts9_loop, square).third_table,
            "double_operator": lambda: sl.double_operator(sts9_loop, square).blocks,
            "operator_from_extension": lambda: sl.operator_from_extension(loop, n).blocks,
            "from_factor_system": lambda: so.from_factor_system(f).blocks,
        }
        want = {name: build() for name, build in builders.items()}
        monkeypatch.setattr(so, "_check_blocks", _refuse)
        for name, build in builders.items():
            assert np.array_equal(build(), want[name]), name

    def test_entering_operators_reach_the_check(self, monkeypatch, example_op):
        q, n_loop = example_op.q, example_op.n_loop
        text = formats.render_operator(example_op)
        monkeypatch.setattr(so, "_check_blocks", _refuse)
        entries = {
            "SteinerOperator": lambda: so.SteinerOperator(q, n_loop, example_op.blocks),
            "complete_from_blocks": lambda: sl.complete_from_blocks(
                q, n_loop, {1: catalog.fixture("phi_11")}, {}
            ),
            "parse_operator": lambda: formats.parse_operator(text, q, n_loop),
        }
        for name, enter in entries.items():
            try:
                enter()
            except Checked:
                continue
            pytest.fail(f"{name} skipped the block check")


class TestIsotopy:
    def test_identity_family(self, example_op):
        fam = sl.IsotopyFamily((tuple(range(10)), tuple(range(10))))
        assert sl.verify_isotopy_family(example_op, example_op, fam)

    def test_coboundary_gamma(self, fano_q):
        f = catalog.fixture("f_sts15_example")
        phi = sl.Cochain1(fano_q, 1, (1, 0, 0, 1, 1, 0, 1))
        f2 = f + sl.coboundary(phi)
        op1 = so.from_factor_system(f)
        op2 = so.from_factor_system(f2)
        gamma = sl.IsotopyFamily(
            tuple(tuple(x ^ phi.at(p) for x in range(2)) for p in range(8))
        )
        assert sl.verify_isotopy_family(op1, op2, gamma)

    def test_wrong_gamma_fails(self, fano_q):
        f = catalog.fixture("f_sts15_example")
        op = so.from_factor_system(f)
        gamma = sl.IsotopyFamily(
            (tuple(range(2)),) + tuple((1, 0) if p == 3 else (0, 1) for p in range(1, 8))
        )
        assert not sl.verify_isotopy_family(op, op, gamma)

    def test_find_identity(self, example_op):
        fam = sl.find_equivalence(example_op, example_op)
        assert fam is not None
        assert sl.verify_isotopy_family(example_op, example_op, fam)

    def test_find_for_equivalent_schreier(self, fano_q):
        f = catalog.fixture("f_sts15_example")
        phi = sl.Cochain1(fano_q, 1, (0, 1, 0, 1, 0, 1, 1))
        f2 = f + sl.coboundary(phi)
        fam = sl.find_equivalence(so.from_factor_system(f), so.from_factor_system(f2))
        assert fam is not None

    def test_none_for_inequivalent(self):
        op1 = so.from_factor_system(catalog.fixture("f1_sts9"))
        op2 = so.from_factor_system(catalog.fixture("f2_sts9"))
        assert sl.find_equivalence(op1, op2) is None

    def test_node_bound_counts_family_nodes(self, example_op, monkeypatch):
        """The identity family places one map per non-identity quotient
        element, branched or forced: m - 1 nodes in all. Candidate maps
        spend none."""
        m = example_op.q.n
        monkeypatch.setattr(dc, "_NODE_BUDGET", m - 1)
        fam = sl.find_equivalence(example_op, example_op)
        assert fam == sl.IsotopyFamily((tuple(range(10)),) * m)
        monkeypatch.setattr(dc, "_NODE_BUDGET", m - 2)
        with pytest.raises(BoundExceeded):
            sl.find_equivalence(example_op, example_op)

    def test_inequivalent_t4_pair_within_its_budget(self, monkeypatch):
        """Over sts9 at t = 4, f and then g drawn from one random.Random(0)
        are not equivalent. The plan search says so in 17,169 placed maps;
        branching at every quotient element in label order took about
        136,000."""
        q = catalog.fixture("sts9_labeled").loop()
        rng = random.Random(0)
        values = [[rng.randrange(16) for _ in range(12)] for _ in range(2)]
        op1, op2 = (so.from_factor_system(sl.FactorSystem(q, 4, v)) for v in values)
        monkeypatch.setattr(dc, "_NODE_BUDGET", 17_169)
        assert sl.find_equivalence(op1, op2) is None
        monkeypatch.setattr(dc, "_NODE_BUDGET", 17_168)
        with pytest.raises(BoundExceeded):
            sl.find_equivalence(op1, op2)

    def test_shape_mismatch(self, example_op, fano_q):
        other = so.from_factor_system(sl.zero_factor_system(n1, fano_q))
        with pytest.raises(ShapeMismatch):
            sl.find_equivalence(example_op, other)

    @pytest.mark.parametrize("maps", [11, 9])
    def test_family_of_the_wrong_length_refused(self, maps):
        """Over the sts9 quotient (m = 10, k = 2) a family needs ten maps:
        eleven were accepted, nine raised IndexError."""
        op = so.from_factor_system(catalog.fixture("f1_sts9"))
        assert sl.verify_isotopy_family(op, op, [(0, 1)] * 10)
        with pytest.raises(ShapeMismatch, match="10 maps of 2 points"):
            sl.verify_isotopy_family(op, op, [(0, 1)] * maps)

    def test_empty_family_refused(self):
        with pytest.raises(ShapeMismatch, match="isotopy family holds no maps"):
            sl.IsotopyFamily(())

    def test_empty_family_refused_by_verify(self):
        op = so.from_factor_system(catalog.fixture("f1_sts9"))
        with pytest.raises(ShapeMismatch, match="isotopy family holds no maps"):
            sl.verify_isotopy_family(op, op, [])

    def test_maps_of_the_wrong_size_refused(self):
        op = so.from_factor_system(catalog.fixture("f1_sts9"))
        with pytest.raises(ShapeMismatch, match="10 maps of 2 points"):
            sl.verify_isotopy_family(op, op, [(0, 1, 2)] * 10)

    def test_equivalence_matches_factor_system_theory(self, fano_q):
        import random

        rng = random.Random(13)
        for _ in range(10):
            f1 = sl.FactorSystem(fano_q, 1, [rng.randint(0, 1) for _ in range(7)])
            f2 = sl.FactorSystem(fano_q, 1, [rng.randint(0, 1) for _ in range(7)])
            fam = sl.find_equivalence(so.from_factor_system(f1), so.from_factor_system(f2))
            assert (fam is not None) == (sl.are_equivalent(f1, f2) is not None)

    def test_equivalence_matches_theory_dimension_two(self, fano_q):
        """Same agreement over a four-element subloop carrier, where each
        quotient element has up to four candidate maps (one per value at the
        subloop identity) and the search must combine them."""
        import random

        rng = random.Random(31337)
        n2 = sl.ElemAbelian2(2)
        for trial in range(10):
            f1 = sl.FactorSystem(fano_q, 2, [rng.randrange(4) for _ in range(7)])
            if trial % 2:
                phi = sl.Cochain1(fano_q, 2, tuple(rng.randrange(4) for _ in range(7)))
                f2 = f1 + sl.coboundary(phi)
            else:
                f2 = sl.FactorSystem(fano_q, 2, [rng.randrange(4) for _ in range(7)])
            fam = sl.find_equivalence(so.from_factor_system(f1), so.from_factor_system(f2))
            assert (fam is not None) == (sl.are_equivalent(f1, f2) is not None)


def assert_search_matches_reference(op1, op2, nodes):
    """find_equivalence returns the oracle's family (or None) within exactly
    nodes placed maps (pinned per pair), and _candidate_maps lists the
    oracle's candidates in the oracle's order."""
    cands = so._candidate_maps(op1, op2)
    assert len(cands) == op1.q.n - 1
    for p in range(1, op1.q.n):
        want, _ = reference_candidate_maps(op1, op2, p)
        assert cands[p - 1].tolist() == [list(g) for g in want]
    fam, cand_nodes, family_nodes = reference_find_equivalence(op1, op2)
    # the oracle's search ran both stages on one budget of this default
    assert cand_nodes + family_nodes <= dc._NODE_BUDGET
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc, "_NODE_BUDGET", nodes)
        assert sl.find_equivalence(op1, op2) == fam
        if nodes:
            mp.setattr(dc, "_NODE_BUDGET", nodes - 1)
            with pytest.raises(BoundExceeded):
                sl.find_equivalence(op1, op2)
    return fam


class TestIsotopySearchMatchesReference:
    """The closed-form candidates and the search along the quotient's
    closure plan give the families of the backtracking oracle in
    tests/conftest.py, within node counts pinned per pair."""

    # nodes per pair, in the order test_schreier_operators makes them
    SCHREIER_NODES = {
        "fano_labeled": (34, 7, 7, 7, 228, 7, 228, 7, 2184, 7, 1672, 7),
        "sts9_labeled": (47, 36, 47, 36, 309, 209, 309, 232),
        "sts15_2": (34, 60, 34, 15, 228, 15, 228, 810),
    }

    @pytest.mark.parametrize(
        "key, ts",
        [("fano_labeled", (1, 2, 3)), ("sts9_labeled", (1, 2)), ("sts15_2", (1, 2))],
    )
    def test_schreier_operators(self, key, ts):
        """Half the pairs are f against f + delta(phi), half against an
        independent f'."""
        rng = random.Random(20241018)
        q = catalog.fixture(key).loop()
        qs = q.system()
        found, nodes = [], iter(self.SCHREIER_NODES[key])
        for t in ts:
            for i in range(4):
                f1 = sl.FactorSystem(q, t, [rng.randrange(1 << t) for _ in range(qs.b)])
                if i % 2:
                    phi = sl.Cochain1(q, t, tuple(rng.randrange(1 << t) for _ in range(qs.v)))
                    f2 = f1 + sl.coboundary(phi)
                else:
                    f2 = sl.FactorSystem(q, t, [rng.randrange(1 << t) for _ in range(qs.b)])
                op1, op2 = so.from_factor_system(f1), so.from_factor_system(f2)
                found.append(assert_search_matches_reference(op1, op2, next(nodes)) is not None)
        assert next(nodes, None) is None
        assert any(found) and not all(found)

    @pytest.mark.parametrize("key", ["sts9_labeled", "sts15_2"])
    def test_schreier_candidates_t3(self, key):
        """Candidate lists alone over an eight-element carrier."""
        rng = random.Random(20241018)
        q = catalog.fixture(key).loop()
        qs = q.system()
        f1 = sl.FactorSystem(q, 3, [rng.randrange(8) for _ in range(qs.b)])
        f2 = sl.FactorSystem(q, 3, [rng.randrange(8) for _ in range(qs.b)])
        op1, op2 = so.from_factor_system(f1), so.from_factor_system(f2)
        cands = so._candidate_maps(op1, op2)
        for p in range(1, q.n):
            want, _ = reference_candidate_maps(op1, op2, p)
            assert cands[p - 1].tolist() == [list(g) for g in want]

    def test_doubling_operators(self, sts9_loop):
        """Every ordered pair of the first 12 symmetric squares of order 10
        and phi_11. The order-2 quotient has one point and no triple: an
        operator against itself takes its first candidate in one node, and
        every other pair here has no candidate, so no node."""
        squares = list(itertools.islice(sl.enumerate_symmetric_squares(10), 12))
        ops = [sl.double_operator(sts9_loop, sq) for sq in squares]
        ops.append(sl.double_operator(sts9_loop, catalog.fixture("phi_11")))
        found = [
            assert_search_matches_reference(a, b, int(a is b)) is not None
            for a in ops
            for b in ops
        ]
        assert found.count(True) >= len(ops) and not all(found)

    # nodes per ordered pair (a, b) of each frame's operators, row a
    EXTENSION_NODES = (
        (
            (3, 3, 3, 3, 36, 36, 36, 36, 36, 36, 36, 36),
            (3, 3, 3, 3, 36, 36, 36, 36, 36, 36, 36, 36),
            (3, 3, 3, 3, 36, 36, 36, 36, 36, 36, 36, 36),
            (3, 3, 3, 3, 36, 36, 36, 36, 36, 36, 36, 36),
            (36, 36, 36, 36, 3, 3, 36, 36, 36, 36, 3, 21),
            (36, 36, 36, 36, 3, 3, 36, 36, 36, 36, 3, 21),
            (36, 36, 36, 36, 36, 36, 3, 3, 3, 3, 36, 36),
            (36, 36, 36, 36, 36, 36, 3, 3, 3, 3, 36, 36),
            (36, 36, 36, 36, 36, 36, 3, 3, 3, 3, 36, 36),
            (36, 36, 36, 36, 36, 36, 3, 3, 3, 3, 36, 36),
            (36, 36, 36, 36, 3, 3, 36, 36, 36, 36, 3, 21),
            (36, 36, 36, 36, 21, 21, 36, 36, 36, 36, 21, 3),
        ),
        (
            (7, 7, 7, 7, 164, 164, 164, 164, 36, 36),
            (7, 7, 7, 7, 164, 164, 164, 164, 36, 36),
            (7, 7, 7, 7, 164, 164, 164, 164, 36, 36),
            (7, 7, 7, 7, 164, 164, 164, 164, 36, 36),
            (164, 164, 164, 164, 7, 121, 164, 164, 36, 36),
            (164, 164, 164, 164, 121, 7, 164, 164, 36, 36),
            (164, 164, 164, 164, 164, 164, 7, 11, 36, 36),
            (164, 164, 164, 164, 164, 164, 11, 7, 36, 36),
            (36, 36, 36, 36, 36, 36, 36, 36, 7, 7),
            (36, 36, 36, 36, 36, 36, 36, 36, 7, 7),
        ),
    )

    def test_extension_operators(self, fano_q, sts15_2):
        """Operators of normal subloops {W, a, b, c} over a triple, under
        seeded random sections; every ordered pair over one quotient table."""
        rng = random.Random(20241019)
        n2 = sl.ElemAbelian2(2)
        q15 = sts15_2.loop()
        loops = [
            catalog.pg(3).loop(),
            q15,
            sl.build_schreier(n1, fano_q, catalog.fixture("f_sts15_example")),
            catalog.pg(4).loop(),
            sl.build_schreier(n2, fano_q, sl.FactorSystem(fano_q, 2, [1, 0, 0, 0, 0, 0, 0])),
            sl.build_schreier(n1, q15, sl.FactorSystem(q15, 1, [1] + [0] * (sts15_2.b - 1))),
        ]
        frames = {}
        for loop in loops:
            subs = [sl.subloop(loop, {0, a + 1, b + 1, c + 1}) for a, b, c in loop.system().triples]
            subs = [sub for sub in subs if sl.is_normal(loop, sub)]
            for sub in rng.sample(subs, min(2, len(subs))):
                cosets = sl.quotient(loop, sub).cosets
                for _ in range(2):
                    section = [0] + [rng.choice(sorted(c)) for c in cosets[1:]]
                    op = sl.operator_from_extension(loop, sub, section)
                    frames.setdefault(op.q.table.tobytes(), []).append(op)
        assert [ops[0].q.n for ops in frames.values()] == [4, 8]
        found = [
            assert_search_matches_reference(a, b, n) is not None
            for ops, rows in zip(frames.values(), self.EXTENSION_NODES, strict=True)
            for a, row in zip(ops, rows, strict=True)
            for b, n in zip(ops, row, strict=True)
        ]
        assert any(found) and not all(found)


class TestIsotopyFamilyGoldens:
    """Families over extensions at t = 3, past the oracle's reach: sha256 of
    repr(family.maps) for f against f + delta(phi), as the search that
    branched at every quotient element in label order found them; f against
    an independent g has no family. Values come from random.Random(7 * seed
    + 3): f, then phi, then g."""

    GOLDEN = {
        ("fano_labeled", 0): "445dbd133a2ca3a31fa49c4a37524586b728a5977e15c89aea0b8078c221d9aa",
        ("fano_labeled", 1): "b870b16956e6f9c2bac5c1b9b2682ebc326b35112bd3bd51c3a57887d62931c4",
        ("fano_labeled", 2): "cddbc7a6c514a561b888dcb1547ab2f71bcba1c5a5969ff4ee90d7b02b359a42",
        ("sts9_labeled", 0): "db5672bd15b72d77dc517b3eab3ce9641ea39f8a03fe8fd71ed32fe384589139",
        ("sts9_labeled", 1): "4f0faf30d806f0496d3b0d88c269051a96da486c67f142d6adec9dd02e347995",
        ("sts9_labeled", 2): "577e1f490cf7471534ac55d02ef875ef21ace126abfc4c83e9c6ee7535a04510",
    }

    @pytest.mark.parametrize("key, seed", sorted(GOLDEN))
    def test_t3_families(self, key, seed):
        q = catalog.fixture(key).loop()
        qs = q.system()
        rng = random.Random(7 * seed + 3)
        f = sl.FactorSystem(q, 3, [rng.randrange(8) for _ in range(qs.b)])
        phi = sl.Cochain1(q, 3, tuple(rng.randrange(8) for _ in range(qs.v)))
        g = sl.FactorSystem(q, 3, [rng.randrange(8) for _ in range(qs.b)])

        def operator(fs):
            loop = sl.build_schreier(sl.ElemAbelian2(3), q, fs)
            return sl.operator_from_extension(loop, sl.Subloop(loop, range(8)))

        op = operator(f)
        fam = sl.find_equivalence(op, operator(f + sl.coboundary(phi)))
        assert hashlib.sha256(repr(fam.maps).encode()).hexdigest() == self.GOLDEN[key, seed]
        assert sl.find_equivalence(op, operator(g)) is None


class TestCandidateGather:
    """_candidate_maps gathers every p's candidates at once, in bounded
    blocks."""

    @staticmethod
    def _wide_pair():
        """Schreier operators with k = 64 over the order-4 loop of STS(3)."""
        q = catalog.pg(1).loop()
        f1 = sl.FactorSystem(q, 6, [5])
        f2 = f1 + sl.coboundary(sl.Cochain1(q, 6, (1, 2, 3)))
        return so.from_factor_system(f1), so.from_factor_system(f2)

    def test_temporaries_stay_bounded(self):
        """Every (p, c) pair of a k = 64 operator gathers k * k = 4,096
        entries of block (p, p), so a block of 2^14 entries holds 4 pairs:
        its int64 index and int32 gather come to about 200 KB, against
        about 7 MB for one gather of all 192 pairs. The returned maps are
        192 rows of 64 int32 (48 KB)."""
        op1, op2 = self._wide_pair()
        tracemalloc.start()
        try:
            cands = so._candidate_maps(op1, op2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # x -> x + c carries every block of a Schreier operator to itself
        translations = [[x ^ c for x in range(64)] for c in range(64)]
        assert [g.tolist() for g in cands] == [translations] * 3
        assert peak < 600_000

    def test_wide_search(self):
        op1, op2 = self._wide_pair()
        fam = sl.find_equivalence(op1, op2)
        assert fam is not None and so.verify_isotopy_family(op1, op2, fam)

    def test_order_one_quotient(self, fano_q):
        """The whole loop as its own normal subloop: one identity map, and
        no candidates to gather."""
        op = sl.operator_from_extension(fano_q, sl.Subloop(fano_q, frozenset(range(8))))
        assert op.q.n == 1 and so._candidate_maps(op, op) == []
        assert sl.find_equivalence(op, op).maps == (tuple(range(8)),)
