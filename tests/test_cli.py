import json

import pytest

import steinerloops as sl
from steinerloops import catalog, formats
from steinerloops.cli import main
from steinerloops.errors import Incompletable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_sts15_2(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seed-fixture", "sts15_2")
        assert code == 0
        payload = json.loads(out)
        assert payload["veblen"] == [0]
        assert payload["fano_total"] == 7
        assert payload["projective"] is False

    def test_pg3(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seed-fixture", "pg3")
        payload = json.loads(out)
        assert code == 0
        assert payload["projective"] is True
        assert payload["veblen_count"] == 15

    def test_ag2(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seed-fixture", "ag2")
        payload = json.loads(out)
        assert payload["veblen"] == []
        assert payload["pasch_total"] == 0

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seed-fixture", "sts3", "--format", "text")
        assert code == 0 and "veblen" in out

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "/nonexistent.sts")
        assert code == 2 and "error" in err

    def test_bound_exceeded(self, capsys):
        code, _, _ = run(capsys, "analyze", "--seed-fixture", "pg3", "--bound-v", "7")
        assert code == 3


class TestExtend:
    def test_schreier_example(self, capsys, tmp_path, sts15_2):
        out_path = tmp_path / "built.sts"
        code, _, _ = run(
            capsys, "extend", "schreier", "--q", "fano", "--t", "1",
            "--f", "f_sts15_example", "--output", str(out_path),
        )
        assert code == 0
        built = formats.read_system(out_path)
        assert sl.are_isomorphic(built, sts15_2) is not None
        assert out_path.read_text().startswith("# built by: steiner extend")

    def test_schreier_zero_gives_pg3(self, capsys, tmp_path):
        out_path = tmp_path / "zero.sts"
        code, _, _ = run(
            capsys, "extend", "schreier", "--q", "fano", "--t", "1",
            "--f", "zero", "--output", str(out_path),
        )
        assert code == 0
        assert sl.are_isomorphic(formats.read_system(out_path), catalog.pg(3)) is not None

    def test_double_example(self, capsys, tmp_path, sts19_example):
        out_path = tmp_path / "doubled.sts"
        code, _, _ = run(
            capsys, "extend", "double", "--n", "sts9_loop_table",
            "--square", "phi_11", "--output", str(out_path),
        )
        assert code == 0
        assert formats.read_system(out_path) == sts19_example

    def test_double_subcommand_alias(self, capsys, tmp_path, sts19_example):
        out_path = tmp_path / "doubled2.sts"
        code, _, _ = run(
            capsys, "double", "--n", "sts9_loop_table",
            "--square", "phi_11", "--output", str(out_path),
        )
        assert code == 0
        assert formats.read_system(out_path) == sts19_example

    def test_operator_kind(self, capsys, tmp_path, sts19_example):
        op = sl.double_operator(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
        op_path = tmp_path / "op.txt"
        formats.write_operator(op, op_path)
        n_path = tmp_path / "n.sts"
        formats.write_system(catalog.fixture("sts9_labeled"), n_path)
        out_path = tmp_path / "built.sts"
        code, _, _ = run(
            capsys, "extend", "operator", "--q", "sts1", "--n", str(n_path),
            "--op", str(op_path), "--output", str(out_path),
        )
        assert code == 0
        assert formats.read_system(out_path) == sts19_example

    def test_missing_args(self, capsys):
        code, _, err = run(capsys, "extend", "schreier", "--q", "fano")
        assert code == 2

    def test_output_revalidates(self, capsys, tmp_path):
        out_path = tmp_path / "x.sts"
        run(capsys, "extend", "schreier", "--q", "sts3", "--t", "1",
            "--f", "zero", "--output", str(out_path))
        s = formats.read_system(out_path)  # raises if the file is malformed
        assert s.v == 7

    @pytest.mark.parametrize(
        "argv",
        [
            ("schreier", "--q", "pg5", "--t", "5", "--f", "zero"),
            ("operator", "--q", "pg3", "--n", "fano", "--op", "unused.op"),
            ("double", "--n", "pg5", "--square", "phi_11"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_bound_checked_before_build(self, capsys, monkeypatch, argv):
        import steinerloops.cli as cli_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("the extension was built despite --bound-v")

        monkeypatch.setattr(cli_mod.schreier, "build_schreier", forbidden)
        monkeypatch.setattr(cli_mod.formats, "read_operator", forbidden)
        monkeypatch.setattr(cli_mod.steiner_operator, "double_operator", forbidden)
        monkeypatch.setattr(cli_mod.steiner_operator, "build_extension", forbidden)
        code, _, err = run(capsys, "extend", *argv)
        assert code == 3 and "exceeds --bound-v 63" in err


class TestEnumerateClassify:
    def test_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "fano", "--t", "1")
        assert code == 0
        assert json.loads(out)["total"] == 128

    def test_enumerate_bound(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--q", "sts9", "--t", "3")
        assert code == 3

    def test_classify_fano(self, capsys):
        code, out, _ = run(capsys, "classify", "--q", "fano", "--t", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["total"] == 128
        assert payload["equivalence_class_count"] == 8
        assert payload["isomorphism_class_count"] == 2

    def test_classify_t0(self, capsys):
        code, out, _ = run(capsys, "classify", "--q", "fano", "--t", "0")
        assert json.loads(out)["total"] == 1

    def test_classify_bound(self, capsys):
        code, _, _ = run(capsys, "classify", "--q", "fano", "--t", "1", "--bound-tb", "3")
        assert code == 3

    def test_classify_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "classify", "--q", "fano", "--t", "1", "--output", str(a))
        run(capsys, "classify", "--q", "fano", "--t", "1", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestIsomorphic:
    def test_built_vs_fixture(self, capsys, tmp_path):
        out_path = tmp_path / "s.sts"
        run(capsys, "extend", "schreier", "--q", "fano", "--t", "1",
            "--f", "f_sts15_example", "--output", str(out_path))
        code, out, _ = run(capsys, "isomorphic", str(out_path), "sts15_2")
        assert code == 0
        assert json.loads(out)["isomorphic"] is True

    def test_distinct_pair(self, capsys):
        code, out, _ = run(capsys, "isomorphic", "sts13_a", "sts13_b")
        assert json.loads(out)["isomorphic"] is False

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "isomorphic", "pg2", "fano", "--format", "text")
        assert out.strip() == "isomorphic true"


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(catalog.fixture_keys())
        assert any("external" in l for l in lines)

    def test_get_system(self, capsys, tmp_path):
        path = tmp_path / "f.sts"
        code, _, _ = run(capsys, "catalog", "get", "fano_labeled", "--output", str(path))
        assert code == 0
        assert formats.read_system(path) == catalog.fixture("fano_labeled")

    def test_get_square(self, capsys):
        code, out, _ = run(capsys, "catalog", "get", "phi_11")
        assert code == 0 and out.splitlines()[0].startswith("W")

    def test_get_unknown(self, capsys):
        code, _, _ = run(capsys, "catalog", "get", "nope")
        assert code == 2


def test_incompletable_exit_code(capsys, monkeypatch, tmp_path):
    import steinerloops.cli as cli_mod

    def boom(n_loop, square):
        raise Incompletable(0, 1)

    monkeypatch.setattr(cli_mod.steiner_operator, "double_operator", boom)
    code, _, err = run(capsys, "double", "--n", "sts9_loop_table", "--square", "phi_11")
    assert code == 4
