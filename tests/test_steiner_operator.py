import numpy as np
import pytest
from conftest import reference_operator_check

import steinerloops as sl
from steinerloops import catalog
from steinerloops import steiner_operator as so
from steinerloops.errors import (
    BadDiagonal,
    BadIdentityBlock,
    BadSection,
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
        """double() checks its operator once, on construction; building the
        extension does not check again."""
        calls = []
        check = so._check_blocks
        monkeypatch.setattr(so, "_check_blocks", lambda *args: calls.append(1) or check(*args))
        sl.double(sts9_loop, catalog.fixture("phi_11"))
        assert len(calls) == 1
        op = sl.double_operator(sts9_loop, catalog.fixture("phi_11"))
        calls.clear()
        sl.build_extension(op)
        assert calls == []


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

    def test_shape_mismatch(self, example_op, fano_q):
        other = so.from_factor_system(sl.zero_factor_system(n1, fano_q))
        with pytest.raises(ShapeMismatch):
            sl.find_equivalence(example_op, other)

    def test_equivalence_matches_factor_system_theory(self, fano_q):
        import random

        rng = random.Random(13)
        for _ in range(10):
            f1 = sl.FactorSystem(fano_q, 1, [rng.randint(0, 1) for _ in range(7)])
            f2 = sl.FactorSystem(fano_q, 1, [rng.randint(0, 1) for _ in range(7)])
            fam = sl.find_equivalence(so.from_factor_system(f1), so.from_factor_system(f2))
            assert (fam is not None) == (sl.are_equivalent(f1, f2) is not None)

    def test_equivalence_matches_theory_dimension_two(self, fano_q):
        """Same agreement over a four-element subloop carrier, where the
        search has genuine per-element permutation choices."""
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
