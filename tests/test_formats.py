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


def _factor_lines(replace=None, drop=0):
    """The f_sts15_example factor-system file, its lines replaced or the
    last ones dropped."""
    lines = formats.render_factor_system(catalog.fixture("f_sts15_example")).splitlines()
    lines = [(replace or {}).get(i, line) for i, line in enumerate(lines)]
    return "\n".join(lines[: len(lines) - drop]) + "\n"


def _doubling_operator():
    return sl.double_operator(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))


class TestRejectBranches:
    """The FormatError text of each reject branch of the loop, square,
    factor-system and operator parsers, and of the two-number header lines
    that systems, factor systems and operators share."""

    LOOP = {
        "empty": ("# only a comment\n\n", "empty loop file"),
        "one element": (",W\nW,W\n", "loop file must be an (n+1) x (n+1) labeled table"),
        "corner label": ("W,W,0\nW,W,0\n0,0,W\n", "loop file must be an (n+1) x (n+1) labeled table"),
        "row count": (",W,0\nW,W,0\n", "loop file must be an (n+1) x (n+1) labeled table"),
        "row length": (",W,0\nW,W,0\n0,0\n", "row 1 has 1 entries, expected 2"),
        "row label order": (",W,0\n0,0,W\nW,W,0\n", "row label '0' out of order"),
        "label out of range": (",W,0\nW,W,0\n0,0,1\n", "element label '1' out of range"),
        "bad label": (",W,0\nW,W,0\n0,0,x\n", "bad element label 'x'"),
    }

    @pytest.mark.parametrize("case", LOOP)
    def test_loop_csv(self, case):
        text, message = self.LOOP[case]
        with pytest.raises(FormatError) as got:
            formats.parse_loop_csv(text)
        assert str(got.value) == message

    @pytest.mark.parametrize("text", ["", "# c\n", "W 0\n0\n", "W 0 1\n0 W 1\n", "W\nW\n"])
    def test_square_not_n_by_n(self, text):
        with pytest.raises(FormatError) as got:
            formats.parse_square(text)
        assert str(got.value) == "square file must hold an n x n table"

    HEADERS = {
        "system": (formats.parse_system, (), "v b"),
        "factor-system": (formats.parse_factor_system, ("q",), "w t"),
        "operator": (formats.parse_operator, ("q", "n"), "m n"),
    }

    @pytest.mark.parametrize("kind", HEADERS)
    @pytest.mark.parametrize("head", ["x y", "7", "7 1 1", "7 1.0", "- 1"])
    def test_header(self, kind, head):
        parse, loops, names = self.HEADERS[kind]
        op = _doubling_operator()
        args = [op.q if name == "q" else op.n_loop for name in loops]
        with pytest.raises(FormatError) as got:
            parse("# c\n\n", *args)
        assert str(got.value) == f"empty {kind} file"
        with pytest.raises(FormatError) as got:
            parse(f"# c\n{head}\n0 1 2\n", *args)
        assert str(got.value) == f"first line must be '{names}'"

    FACTOR = {
        "order": (_factor_lines({0: "9 1"}), "file order 9 does not match the quotient order 7"),
        "line count": (_factor_lines(drop=1), "expected 7 value lines, found 6"),
        "value line": (_factor_lines({1: "0 1 2 0 1"}), "bad value line '0 1 2 0 1'"),
        "no bits": (_factor_lines({1: "0 1 2"}), "bad value line '0 1 2'"),
        "point label": (_factor_lines({1: "0 1 x 0"}), "bad point label in '0 1 x 0'"),
        "triple order": (
            _factor_lines({1: "0 3 4 0", 2: "0 1 2 0"}),
            "line 2: triple (0, 3, 4) out of canonical order ((0, 1, 2))",
        ),
        "bit value": (_factor_lines({1: "0 1 2 2"}), "bad value bits '2'"),
        "bit count": (_factor_lines({1: "0 1 2 01"}), "bad value bits '01'"),
        "bits at t = 0": ("7 0\n0 1 2 0\n" + "0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n",
                          "bad value line '0 1 2 0'"),
    }

    @pytest.mark.parametrize("case", FACTOR)
    def test_factor_system(self, case):
        text, message = self.FACTOR[case]
        with pytest.raises(FormatError) as got:
            formats.parse_factor_system(text, catalog.fixture("f_sts15_example").q)
        assert str(got.value) == message

    def test_operator_header_and_row_count(self):
        op = _doubling_operator()
        lines = formats.render_operator(op).splitlines()
        with pytest.raises(FormatError) as got:
            formats.parse_operator("\n".join(lines), op.n_loop, op.n_loop)
        assert str(got.value) == "operator header does not match the given loops"
        with pytest.raises(FormatError) as got:
            formats.parse_operator("\n".join(lines[:-1]), op.q, op.n_loop)
        assert str(got.value) == "expected 40 block rows, found 39"

    @pytest.mark.parametrize("p, r, x", [(0, 0, 0), (0, 1, 9), (1, 0, 3), (1, 1, 9)])
    def test_operator_short_row(self, p, r, x):
        op = _doubling_operator()
        lines = formats.render_operator(op).splitlines()
        at = lines.index(f"# block {p} {r}") + 1 + x
        lines[at] = " ".join(lines[at].split()[:-1])
        with pytest.raises(FormatError) as got:
            formats.parse_operator("\n".join(lines), op.q, op.n_loop)
        assert str(got.value) == f"block ({p},{r}) row {x} needs 10 labels"

    def test_operator_first_bad_row_named(self):
        """A bad label before a short row is the fault reported, and the
        other way round."""
        op = _doubling_operator()
        lines = formats.render_operator(op).splitlines()
        first, later = lines.index("# block 0 1") + 2, lines.index("# block 1 0") + 4
        bad = list(lines)
        bad[first], bad[later] = bad[first].replace("W", "x"), "W 0"
        with pytest.raises(FormatError) as got:
            formats.parse_operator("\n".join(bad), op.q, op.n_loop)
        assert str(got.value) == "bad element label 'x'"
        bad = list(lines)
        bad[first], bad[later] = "W 0", bad[later].replace("W", "10")
        with pytest.raises(FormatError) as got:
            formats.parse_operator("\n".join(bad), op.q, op.n_loop)
        assert str(got.value) == "block (0,1) row 1 needs 10 labels"


class TestReportJson:
    def test_schema_and_counts(self):
        q = catalog.fixture("fano_labeled").loop()
        rep = sl.classify(sl.ElemAbelian2(1), q)
        payload = formats.report_to_dict(rep)
        assert payload["schema"] == 1
        assert payload["total"] == 128
        assert len(payload["classes"]) == 8
        assert formats.render_report_json(rep) == formats.render_report_json(rep)
