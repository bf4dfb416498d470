import numpy as np
import pytest

import steinerloops as sl
from steinerloops import catalog, formats
from steinerloops.errors import FormatError


class TestSystemFormat:
    def test_round_trip(self, sts15_2, tmp_path):
        path = tmp_path / "s.sts"
        formats.write_system(sts15_2, path, comments=["example file"])
        assert formats.read_system(path) == sts15_2

    def test_layout(self, sts3):
        text = formats.render_system(sts3)
        assert text == "3 1\n0 1 2\n"

    def test_comments_ignored(self):
        text = "# hello\n3 1\n# mid\n0 1 2\n"
        assert formats.parse_system(text).v == 3

    def test_sorted_lines(self, pg3):
        text = formats.render_system(pg3)
        lines = text.strip().splitlines()[1:]
        assert lines == sorted(lines, key=lambda l: tuple(int(x) for x in l.split()))

    def test_bad_header(self):
        with pytest.raises(FormatError):
            formats.parse_system("x y\n")
        with pytest.raises(FormatError):
            formats.parse_system("3 2\n0 1 2\n")

    def test_deterministic(self, sts15_2):
        assert formats.render_system(sts15_2) == formats.render_system(sts15_2)


class TestLoopCsv:
    def test_round_trip(self, fano, tmp_path):
        loop = fano.loop()
        path = tmp_path / "loop.csv"
        formats.write_loop_csv(loop, path)
        back = formats.read_loop_csv(path)
        assert np.array_equal(back.table, loop.table)

    def test_identity_label(self, sts3):
        text = formats.render_loop_csv(sts3.loop())
        first = text.splitlines()[0]
        assert first == ",W,0,1,2"

    def test_bad_row_label(self):
        text = ",W,0\n0,0,W\nW,W,0\n"
        with pytest.raises(FormatError):
            formats.parse_loop_csv(text)


class TestFactorFormat:
    def test_round_trip(self, tmp_path):
        f = catalog.fixture("f_sts15_example")
        path = tmp_path / "f.fs"
        formats.write_factor_system(f, path)
        back = formats.read_factor_system(path, f.q)
        assert back.values == f.values

    def test_header_and_order(self):
        f = catalog.fixture("f_sts15_example")
        lines = formats.render_factor_system(f).strip().splitlines()
        assert lines[0] == "7 1"
        assert len(lines) == 8
        # triples appear in the canonical lexicographic order of the system
        tris = [tuple(int(x) for x in l.split()[:3]) for l in lines[1:]]
        assert tris == list(f.q_system.triples)

    def test_wrong_triple_order_rejected(self):
        f = catalog.fixture("f_sts15_example")
        lines = formats.render_factor_system(f).splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(FormatError):
            formats.parse_factor_system("\n".join(lines), f.q)

    def test_non_numeric_header_and_label(self):
        f = catalog.fixture("f_sts15_example")
        with pytest.raises(FormatError, match="first line must be 'w t'"):
            formats.parse_factor_system("x 1\n", f.q)
        lines = formats.render_factor_system(f).splitlines()
        lines[1] = "0 x 2 1"
        with pytest.raises(FormatError, match="bad point label"):
            formats.parse_factor_system("\n".join(lines), f.q)

    def test_t2_bits(self):
        q = catalog.fixture("fano_labeled").loop()
        f = sl.FactorSystem(q, 2, [0, 1, 2, 3, 0, 1, 2])
        back = formats.parse_factor_system(formats.render_factor_system(f), q)
        assert back.values == f.values


class TestSquareAndOperator:
    def test_square_round_trip(self, tmp_path):
        sq = catalog.fixture("phi_11")
        path = tmp_path / "sq.txt"
        formats.write_square(sq, path)
        assert formats.read_square(path) == sq

    def test_square_labels(self):
        text = formats.render_square(sl.LatinSquare([[0, 1], [1, 0]]))
        assert text == "W 0\n0 W\n"

    def test_operator_round_trip(self, tmp_path):
        op = sl.double_operator(
            catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11")
        )
        path = tmp_path / "op.txt"
        formats.write_operator(op, path)
        back = formats.read_operator(path, op.q, op.n_loop)
        assert np.array_equal(back.blocks, op.blocks)

    def test_operator_header_mismatch(self):
        op = sl.double_operator(
            catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11")
        )
        text = formats.render_operator(op)
        with pytest.raises(FormatError):
            formats.parse_operator(text, op.n_loop, op.n_loop)

    def test_operator_non_numeric_header(self):
        op = sl.double_operator(
            catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11")
        )
        text = formats.render_operator(op).replace("2 10", "2 x", 1)
        with pytest.raises(FormatError, match="first line must be 'm n'"):
            formats.parse_operator(text, op.q, op.n_loop)


class TestReportJson:
    def test_schema_and_counts(self):
        q = catalog.fixture("fano_labeled").loop()
        rep = sl.classify(sl.ElemAbelian2(1), q)
        payload = formats.report_to_dict(rep)
        assert payload["schema"] == 1
        assert payload["total"] == 128
        assert len(payload["classes"]) == 8
        assert formats.render_report_json(rep) == formats.render_report_json(rep)
