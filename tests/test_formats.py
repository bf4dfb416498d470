import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinerloops as sl
from steinerloops import catalog, formats
from steinerloops.errors import BadTriple, FormatError


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

    @pytest.mark.parametrize(
        "name, plain, commented",
        [
            (
                "pg5",
                "bebb53f6fdddb96a0216e8b9cd238a4a3155b8fb6cd0b075a2da8d94ebe18f04",
                "e0fdb1b8ffc4faa18e7109b0d4fdf9314ca5e0b00b835f126ef50e57aecb2e3f",
            ),
            (
                "ag4",
                "7f341197e7581b41a32b56d076e00671043b1e26636d342919d3c7d46d4281b8",
                "21e5581ee1b797edd9caa9cf04f80d975fe144aa228026a77ef23b80b05e4a39",
            ),
            (
                "double19",
                "a050400ea18dda461eb6f2e71572c567dbc9a5331d464c4a89530468b457852f",
                "8218f0889468b3ce10b19c2ad2aac64a82143b9391198058667acf1c1accee53",
            ),
        ],
    )
    def test_rendered_bytes_pinned(self, name, plain, commented):
        """sha256 of the text written by the line-at-a-time renderer, with
        and without comments; a fresh system and a read-back one agree."""
        s = _system(name)
        for got in (s, formats.parse_system(formats.render_system(s))):
            assert hashlib.sha256(formats.render_system(got).encode()).hexdigest() == plain
            text = formats.render_system(got, comments=["a", "b c"])
            assert hashlib.sha256(text.encode()).hexdigest() == commented


def _system(name):
    if name == "double19":
        return sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
    return getattr(catalog, name[:2])(int(name[2:]))


_FANO_LINES = ["0 1 2", "0 3 4", "0 5 6", "1 3 5", "1 4 6", "2 3 6", "2 4 5"]


def _fano_text(replace):
    """The Fano plane's file with the triple lines at some indices replaced."""
    lines = [replace.get(i, line) for i, line in enumerate(_FANO_LINES)]
    return "7 7\n" + "\n".join(lines) + "\n"


class TestSystemParseErrors:
    """The parser's error contract: each bad line raises the error of the
    first bad line in file order, labels past int64 reach the constructor's
    BadTriple, and labels int() accepts parse as int() reads them."""

    @pytest.mark.parametrize("line", ["0 1", "0 1 2 3", "5", "0 1 2 3 4 5"])
    def test_label_count(self, line):
        with pytest.raises(FormatError) as got:
            formats.parse_system(_fano_text({3: line}))
        assert str(got.value) == f"triple line needs three labels: {line!r}"

    @pytest.mark.parametrize("line", ["0 x 2", "0 1 3.0", "0 1 0x2", "- 1 2"])
    def test_bad_label(self, line):
        with pytest.raises(FormatError) as got:
            formats.parse_system(_fano_text({2: line}))
        assert str(got.value) == f"bad point label in {line!r}"

    def test_first_bad_line_named(self):
        """Whichever fault comes first in the file is the one reported."""
        cases = [
            ({1: "0 x 2", 4: "1 3"}, "bad point label in '0 x 2'"),
            ({1: "0 3", 4: "1 y 5"}, "triple line needs three labels: '0 3'"),
            ({2: "0 5", 5: "2 3"}, "triple line needs three labels: '0 5'"),
            ({2: "a b", 5: "c d e"}, "triple line needs three labels: 'a b'"),
            ({2: "a b c", 5: "c"}, "bad point label in 'a b c'"),
        ]
        for replace, message in cases:
            with pytest.raises(FormatError) as got:
                formats.parse_system(_fano_text(replace))
            assert str(got.value) == message

    @pytest.mark.parametrize("big", [10**30, 2**63, -(10**30), -(2**63) - 1])
    def test_labels_past_int64(self, big):
        with pytest.raises(BadTriple) as got:
            formats.parse_system(_fano_text({4: f"1 {big} 6"}))
        assert got.value.triple == tuple(sorted((1, big, 6)))

    def test_out_of_range_and_repeated(self):
        for line, triple in (("1 4 7", (1, 4, 7)), ("1 4 4", (1, 4, 4)), ("-1 4 6", (-1, 4, 6))):
            with pytest.raises(BadTriple) as got:
                formats.parse_system(_fano_text({4: line}))
            assert got.value.triple == triple

    def test_labels_int_accepts(self, fano):
        text = _fano_text({0: "+0 1_0 2", 1: "0 +3 4", 2: " 0\t5  06 "})
        with pytest.raises(BadTriple, match=r"\(0, 2, 10\)"):
            formats.parse_system(text)
        text = _fano_text({0: "+0 0_1 2", 1: "0 +3 4", 2: " 0\t5  06 ", 6: "٢ 4 5"})
        assert formats.parse_system(text) == fano

    def test_comments_and_blank_lines(self, fano):
        text = "\n# c\n  7 7  \n\n" + "\n# mid\n\n".join(_FANO_LINES) + "\n  # end\n\n"
        assert formats.parse_system(text) == fano

    def test_triple_order_free(self, fano):
        lines = [" ".join(reversed(line.split())) for line in reversed(_FANO_LINES)]
        assert formats.parse_system("7 7\n" + "\n".join(lines)) == fano


@given(
    key=st.sampled_from(["fano_labeled", "sts9_labeled", "sts13_a", "sts15_2"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_system_text_round_trip(key, seed):
    s = catalog.fixture(key)
    perm = list(range(s.v))
    random.Random(seed).shuffle(perm)
    s = s.relabel(perm)
    text = formats.render_system(s)
    back = formats.parse_system(text)
    assert back == s and back.triples == s.triples
    assert formats.render_system(back) == text


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
