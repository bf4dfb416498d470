import argparse
import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import steinerloops as sl
from steinerloops import catalog, formats
from steinerloops.cli import build_parser, main
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

    def test_projective_from_the_centre_scan(self, capsys, monkeypatch):
        """projective is read off the Veblen points; the associativity scan
        is not run a second time."""

        def forbidden(self):
            raise AssertionError("second scan of the loop")

        monkeypatch.setattr(sl.SteinerLoop, "is_associative", forbidden)
        for key, projective in (("pg3", True), ("sts15_2", False), ("sts3", True)):
            code, out, _ = run(capsys, "analyze", "--seed-fixture", key)
            assert code == 0 and json.loads(out)["projective"] is projective

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["pg5"], "5624eec768c80deaec3dd9c311ddf3656ac7097d9910a0a507e50d1644b472ae"),
            (
                ["pg6", "--bound-v", "127"],
                "b732fe83eb089abb97eddb220f7c2ed175b03ac6f9cf593eb1e53b2ab91dc8d1",
            ),
            (
                ["ag4", "--bound-v", "81"],
                "7ef5f8a32b956bdb472886884226885341367c082d839c613a8ff57b62cbdf5e",
            ),
            (["sts15_2"], "9654bbe478510b4f4bc682d99da9fbe95af5bddeea272f7d99434a9f3aea30e4"),
            (
                ["sts15_2", "--format", "text"],
                "a36276b7a9c955690f8423c4349b80a5355c40a49ad0cfad406b263c71a8daf7",
            ),
        ],
        ids=["pg5", "pg6", "ag4", "sts15_2-json", "sts15_2-text"],
    )
    def test_analyze_golden(self, capsys, argv, digest):
        """The whole report stays byte for byte."""
        code, out, err = run(capsys, "analyze", "--seed-fixture", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        op_path.write_text(formats.render_operator(op))
        n_path = tmp_path / "n.sts"
        n_path.write_text(formats.render_system(catalog.fixture("sts9_labeled")))
        out_path = tmp_path / "built.sts"
        code, _, _ = run(
            capsys, "extend", "operator", "--q", "sts1", "--n", str(n_path),
            "--op", str(op_path), "--output", str(out_path),
        )
        assert code == 0
        assert formats.read_system(out_path) == sts19_example

    def test_operator_kind_rejects_broken_cancellation(self, capsys, tmp_path):
        """Two swapped rows in block (0,1), mirrored into block (1,0), keep
        every block Latin and the pair transposed; the operator file is
        refused at the first block pair that breaks cancellation."""
        op = sl.double_operator(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
        blocks = op.blocks.copy()
        blocks[0, 1][[1, 2]] = blocks[0, 1][[2, 1]]
        blocks[1, 0] = blocks[0, 1].T
        op_path = tmp_path / "op.txt"
        op_path.write_text(
            "2 10\n"
            + "".join(
                " ".join("W" if e == 0 else str(e - 1) for e in row) + "\n"
                for row in blocks.reshape(-1, 10)
            )
        )
        code, out, err = run(
            capsys, "extend", "operator", "--q", "sts1", "--n", "sts9_loop_table",
            "--op", str(op_path),
        )
        assert code == 2 and out == ""
        assert err == "error: blocks at (1,0) break the cancellation condition\n"

    def test_fixture_over_relabelled_quotient_rejected(self, capsys, tmp_path):
        """A catalog factor system is tied to its quotient's labelling: the
        same plane with other triples must not reinterpret its values."""
        q_path = tmp_path / "fano_relabelled.sts"
        q_path.write_text("7 7\n0 1 3\n0 2 6\n0 4 5\n1 2 4\n1 5 6\n2 3 5\n3 4 6\n")
        code, out, err = run(
            capsys, "extend", "schreier", "--q", str(q_path), "--t", "1",
            "--f", "f_sts15_example",
        )
        assert code == 2 and out == ""
        assert "does not match --q/--t" in err

    def test_factor_file_over_other_t(self, capsys, tmp_path):
        """A factor-system file carries its own t: one that differs from
        --t is refused by the extension, not by the fixture check."""
        path = tmp_path / "f.fs"
        path.write_text(formats.render_factor_system(catalog.fixture("f_sts15_example")))
        code, out, err = run(
            capsys, "extend", "schreier", "--q", "fano", "--t", "2", "--f", str(path)
        )
        assert (code, out, err) == (2, "", "error: factor system does not match the given frame\n")

    def test_missing_args(self, capsys):
        """Each kind requires its options: a usage error naming those missing."""
        with pytest.raises(SystemExit) as got:
            main(["extend", "schreier", "--q", "fano"])
        assert got.value.code == 2
        assert "the following arguments are required: --t, --f" in capsys.readouterr().err

    def test_output_revalidates(self, capsys, tmp_path):
        out_path = tmp_path / "x.sts"
        run(capsys, "extend", "schreier", "--q", "sts3", "--t", "1",
            "--f", "zero", "--output", str(out_path))
        s = formats.read_system(out_path)  # raises if the file is malformed
        assert s.v == 7

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["extend", "schreier", "--q", "fano", "--t", "1", "--f", "f_sts15_example"],
                "c1be39ff8ae22b630ba38f18db7b973437dd27772ec781ed31b8339a927493f3",
            ),
            (
                ["extend", "schreier", "--q", "fano", "--t", "2", "--f", "zero"],
                "f51b6aec7bbfd29ec305a91146fc2d2605e02ee04800d095b603cef9540175f3",
            ),
            (
                ["extend", "schreier", "--q", "pg4", "--t", "1", "--f", "zero"],
                "636383f41543eef99cab6e41a877beb9d65505811985d4e3b7bd5a1eb7fae0a4",
            ),
            (
                ["extend", "double", "--n", "sts9_loop_table", "--square", "phi_11"],
                "ac11a0495a7696f8d7aa2783105d0922d145dcf8f02a1955967484d47731aba3",
            ),
            (
                ["double", "--n", "sts9_loop_table", "--square", "phi_11"],
                "587f2351af4429c4395ede13ae6f6ae70db8c44676443d1ae41d48d928f9e856",
            ),
        ],
        ids=["schreier-fano-t1", "schreier-fano-t2-zero", "schreier-pg4-zero", "double", "alias"],
    )
    def test_extend_golden(self, capsys, argv, digest):
        """The written system stays byte for byte."""
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", [["extend", "double"], ["double"]], ids=["extend", "alias"])
    @pytest.mark.parametrize(
        "case, message",
        [
            ("not-latin", "rows and columns must be permutations"),
            ("not-symmetric", "doubling square must be symmetric"),
            ("bad-diagonal", "doubling square must carry the identity on its diagonal"),
            ("wrong-side", "square side must match the subloop order"),
        ],
    )
    def test_double_error_golden(self, capsys, tmp_path, command, case, message):
        """Square files that cannot double the order-10 loop: stdout,
        stderr and exit code stay as they are."""
        x = np.arange(10)
        phi = catalog.fixture("phi_11").entries.copy()
        phi[0, 1] = phi[0, 2]
        squares = {
            "not-latin": phi,
            "not-symmetric": catalog.fixture("phi_om1").entries,
            "bad-diagonal": (x[:, None] + x) % 10,
            "wrong-side": x[:4, None] ^ x[:4],
        }
        path = tmp_path / "square.txt"
        path.write_text(
            "".join(
                " ".join("W" if e == 0 else str(e - 1) for e in row) + "\n"
                for row in squares[case]
            )
        )
        got = run(capsys, *command, "--n", "sts9_loop_table", "--square", str(path))
        assert got == (2, "", f"error: {message}\n")

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


class TestGeneratorKeys:
    """pgN and agN keys are refused by their order before they are built."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--seed-fixture", "pg40"], "order 2199023255551 exceeds --bound-v 63"),
            (["analyze", "--seed-fixture", "ag40"], f"order {3**40} exceeds --bound-v 63"),
            (["isomorphic", "pg40", "pg40"], "order 2199023255551 exceeds --bound-v 63"),
            (["isomorphic", "fano", "ag40"], f"order {3**40} exceeds --bound-v 63"),
            (
                ["extend", "schreier", "--q", "pg40", "--t", "1", "--f", "zero"],
                "built order 4398046511103 exceeds --bound-v 63",
            ),
            (
                ["extend", "operator", "--q", "pg40", "--n", "fano", "--op", "unused.op"],
                "order 2199023255551 exceeds --bound-v 63",
            ),
            (
                ["extend", "operator", "--q", "sts1", "--n", "pg40", "--op", "unused.op"],
                "built order 4398046511103 exceeds --bound-v 63",
            ),
            (
                ["extend", "double", "--n", "pg40", "--square", "phi_11"],
                "built order 4398046511103 exceeds --bound-v 63",
            ),
            (
                ["enumerate", "--q", "pg40", "--t", "1"],
                f"t*b = {(2**41 - 1) * (2**41 - 2) // 6} exceeds --bound-tb 24",
            ),
            (
                ["classify", "--q", "ag40", "--t", "2"],
                f"t*b = {2 * 3**40 * (3**40 - 1) // 6} exceeds enumeration bound 24",
            ),
            (["enumerate", "--q", "pg40", "--t", "0"], "order 2199023255551 exceeds --bound-v 63"),
            (["classify", "--q", "ag40", "--t", "0"], f"order {3**40} exceeds --bound-v 63"),
        ],
        ids=[
            "analyze-pg", "analyze-ag", "isomorphic-pg", "isomorphic-ag", "schreier-q",
            "operator-q", "operator-n", "double-n", "enumerate", "classify", "enumerate-t0",
            "classify-t0",
        ],
    )
    def test_refused_before_build(self, capsys, monkeypatch, argv, message):
        def forbidden(n):
            raise AssertionError("the system was built despite its bound")

        monkeypatch.setattr(catalog, "pg", forbidden)
        monkeypatch.setattr(catalog, "ag", forbidden)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["extend", "double", "--n", "sts9_loop_table", "--square", "pg40"], "pg40"),
            (["double", "--n", "sts9_loop_table", "--square", "sts3"], "sts3"),
            (["extend", "schreier", "--q", "fano", "--t", "1", "--f", "ag2"], "ag2"),
            (["extend", "schreier", "--q", "fano", "--t", "1", "--f", "sts1"], "sts1"),
            (["double", "--n", "sts9_loop_table", "--square", "fano"], "fano"),
            (["analyze", "--seed-fixture", "phi_11"], "phi_11"),
            (["extend", "schreier", "--q", "phi_11", "--t", "1", "--f", "zero"], "phi_11"),
        ],
        ids=["square-pg", "square-sts", "f-ag", "f-sts", "square-alias", "system", "loop"],
    )
    def test_keys_of_another_kind(self, capsys, monkeypatch, argv, key):
        """Squares and factor systems have no generated keys, so pgN, agN,
        sts1 and sts3 are never built there; a key of another kind is an
        unknown key wherever it is given."""

        def forbidden(n):
            raise AssertionError("a generated system was built")

        monkeypatch.setattr(catalog, "pg", forbidden)
        monkeypatch.setattr(catalog, "ag", forbidden)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: unknown catalog key {key!r}\n")

    def test_within_bounds_still_built(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seed-fixture", "pg2", "--bound-v", "7")
        assert code == 0 and json.loads(out)["v"] == 7
        code, _, err = run(capsys, "analyze", "--seed-fixture", "pg0")
        assert code == 2 and err == "error: projective dimension must be >= 1\n"


class TestEnumerateClassify:
    def test_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "fano", "--t", "1")
        assert code == 0
        assert json.loads(out)["total"] == 128

    def test_enumerate_total_in_closed_form(self, capsys, monkeypatch):
        import steinerloops.cli as cli_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("factor systems were enumerated just to count them")

        monkeypatch.setattr(cli_mod.schreier, "enumerate_factor_systems", forbidden)
        code, out, _ = run(capsys, "enumerate", "--q", "fano", "--t", "3")
        assert code == 0
        assert json.loads(out)["total"] == 2097152

    def test_enumerate_output_lists_systems(self, capsys, tmp_path):
        path = tmp_path / "systems.json"
        code, _, _ = run(capsys, "enumerate", "--q", "sts3", "--t", "2", "--output", str(path))
        payload = json.loads(path.read_text())
        assert code == 0 and payload["total"] == 4
        assert payload["systems"] == [[0], [1], [2], [3]]

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

    def test_classify_t0(self, capsys, monkeypatch):
        """t = 0 leaves one class, so Aut(q) is not listed, even for pg5,
        whose group is far above the automorphism bound."""
        import steinerloops.cli as cli_mod

        code, out, _ = run(capsys, "classify", "--q", "fano", "--t", "0")
        assert json.loads(out)["total"] == 1

        def forbidden(*args, **kwargs):
            raise AssertionError("automorphisms listed for a single class")

        monkeypatch.setattr(cli_mod.schreier, "automorphisms", forbidden)
        code, out, err = run(capsys, "classify", "--q", "pg5", "--t", "0")
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["equivalence_class_count"] == payload["isomorphism_class_count"] == 1

    def test_enumerate_classify_order_bound(self, capsys):
        """Both commands refuse a quotient above --bound-v, also when it is
        read from a fixture or a file rather than built from a key."""
        for command in ("enumerate", "classify"):
            code, out, err = run(capsys, command, "--q", "fano", "--t", "1", "--bound-v", "5")
            assert (code, out, err) == (3, "", "error: order 7 exceeds --bound-v 5\n")

    def test_classify_bound(self, capsys):
        code, _, _ = run(capsys, "classify", "--q", "fano", "--t", "1", "--bound-tb", "3")
        assert code == 3

    def test_classify_class_bound(self, capsys):
        code, out, err = run(
            capsys, "classify", "--q", "sts13_a", "--t", "2", "--bound-tb", "100"
        )
        assert (code, out) == (3, "")
        assert err == "error: 67108864 equivalence classes exceed bound 65536\n"

    def test_classify_gl_dimension_bound(self, capsys):
        """A single class still needs a witness alpha with 2^t entries, so
        t > 4 stays refused."""
        code, out, err = run(capsys, "classify", "--q", "sts3", "--t", "5")
        assert code == 3 and out == ""
        assert err == "error: GL enumeration limited to dimension 4\n"

    @pytest.mark.parametrize(
        "q, t, digest",
        [
            ("fano", 1, "591e4743bb06fc35791ef1338fb6759f66779ae8b2d5ecdb44e49e22cdb6afea"),
            ("fano", 2, "79acba0c3cf6fae909ea896ed3d2eb6f5672367ab42e7f8fb816d480c25000c3"),
            ("fano", 3, "14c81feb660ab8f183376fa5d692217c547974427c78b36ffe089ec4dc34c609"),
            ("sts9", 1, "aeed4bf0f381bb3b1cea7fbad6ff4b8855d533510a3f9696306970ae53f90a4d"),
            ("sts9", 2, "66da2bdffa6b5b02d9e7f6ad71dcf4c88e1548f3d6f91ab76eb09f83df2705e3"),
            ("sts3", 3, "721ab3e74057b31e038084702e61ac7cfaf95a3baad59c016762d44deaf613dc"),
        ],
        ids=["fano-t1", "fano-t2", "fano-t3", "sts9-t1", "sts9-t2", "sts3-t3"],
    )
    def test_classify_golden(self, capsys, q, t, digest):
        """The whole report, witnesses included, stays byte for byte."""
        code, out, _ = run(capsys, "classify", "--q", q, "--t", str(t))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_classify_internal_check_exit_code(self, capsys, monkeypatch):
        import steinerloops.cli as cli_mod

        # the fano kernel has dimension 3; a wrong one must fail the cross-check.
        # The fixture system may already hold its elimination from an earlier
        # call, so it is set aside for the kernel to be found again.
        monkeypatch.setattr(cli_mod.schreier.gf2, "nullspace_basis", lambda *args: [1, 2])
        monkeypatch.setattr(cli_mod.catalog.fixture("fano_labeled"), "_elimination", None)
        code, out, err = run(capsys, "classify", "--q", "fano", "--t", "1")
        assert code == 1 and out == ""
        assert err == (
            "error: internal check failed: "
            "class count disagrees with the homomorphism count\n"
        )

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

    @staticmethod
    def _inputs(tmp_path, case):
        """Two system files: two non-isomorphic STS(19) (Schreier over sts9,
        t = 1, the first two orbit representatives), or a system and a
        seeded relabel of it."""
        q = catalog.fixture("sts9_labeled").loop()
        n = sl.ElemAbelian2(1)
        sts19 = [
            sl.build_schreier(n, q, sl.FactorSystem(q, 1, vals)).system()
            for vals in sl.classify(n, q).orbit_reps[:2]
        ]
        first = catalog.fixture("sts15_2") if case == "relabel15" else sts19[0]
        if case == "pair19":
            second = sts19[1]
        else:
            perm = list(range(first.v))
            random.Random(5).shuffle(perm)
            second = first.relabel(perm)
        paths = [tmp_path / "first.sts", tmp_path / "second.sts"]
        for path, s in zip(paths, (first, second)):
            path.write_text(formats.render_system(s))
        return [str(path) for path in paths]

    GOLDEN = {
        ("pair19", "text"): "f948199b14ca703da9b15b80a39aa8e1b173776981e785bbb662ff357c60e284",
        ("pair19", "json"): "d5bd7e25fb0ace6a5544c1a8d681794f97579eb42a324416a3fb96dff8f24b9b",
        ("relabel19", "text"): "607618d7413748d9ab0af79c7ba74ca84b2bad270ae68ead0bec06b1dd5c1634",
        ("relabel19", "json"): "f262595f4373742b5383593e78524f858230d196674952e8ae73033e508b6b5a",
        ("relabel15", "text"): "607618d7413748d9ab0af79c7ba74ca84b2bad270ae68ead0bec06b1dd5c1634",
        ("relabel15", "json"): "4b5ad1f532670306a64d08fec491bb76ad5089e28ed9d77973a77fb04861e751",
    }

    @pytest.mark.parametrize("case, fmt", GOLDEN)
    def test_isomorphic_golden(self, capsys, tmp_path, case, fmt):
        """Verdict and map stay byte for byte, rejections included."""
        code, out, err = run(capsys, "isomorphic", *self._inputs(tmp_path, case), "--format", fmt)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[case, fmt]

    def test_node_budget(self, capsys, monkeypatch):
        import steinerloops.design_core as dc

        monkeypatch.setattr(dc, "_NODE_BUDGET", 2)
        # a found map takes three candidate placements
        code, out, err = run(capsys, "isomorphic", "pg2", "fano")
        assert (code, out) == (3, "")
        assert err == "error: isomorphism search exceeded its budget of 2 nodes\n"
        monkeypatch.setattr(dc, "_NODE_BUDGET", 3)
        code, _, err = run(capsys, "isomorphic", "pg2", "fano")
        assert (code, err) == (0, "")


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


class TestOptions:
    """Each command declares the options its cmd_* reads and no other: the
    parser's options per command equal the table below, a run of each
    command reads every one of them, and an option a command does not read
    is a usage error."""

    KINDS = {
        "schreier": ["--q", "fano", "--t", "1", "--f", "zero"],
        "operator": ["--q", "sts1", "--n", "sts9_loop_table", "--op", "OPERATOR"],
        "double": ["--n", "sts9_loop_table", "--square", "phi_11"],
    }
    OPTIONS = {
        "analyze": {"input", "seed_fixture", "output", "format", "bound_v"},
        "extend": {"kind"},
        "extend schreier": {"q", "t", "f", "output", "bound_v"},
        "extend operator": {"q", "n", "op", "output", "bound_v"},
        "extend double": {"n", "square", "output", "bound_v"},
        "enumerate": {"q", "t", "output", "bound_v", "bound_tb"},
        "classify": {"q", "t", "output", "bound_v", "bound_tb"},
        "double": {"n", "square", "output", "bound_v"},
        "isomorphic": {"first", "second", "output", "format", "bound_v"},
        "catalog": {"action", "key", "output"},
    }
    # the values the double command and the extend parser fix for cmd_extend
    FIXED = {"double": {"kind"}} | {f"extend {kind}": {"kind"} for kind in KINDS}
    RUNS = {
        "analyze": [["--seed-fixture", "sts3", "--format", "text"], ["--input", "FANO"]],
        "extend": [[kind, *argv] for kind, argv in KINDS.items()],
        **{f"extend {kind}": [argv] for kind, argv in KINDS.items()},
        "enumerate": [["--q", "fano", "--t", "1"]],
        "classify": [["--q", "fano", "--t", "1"]],
        "double": [["--n", "sts9_loop_table", "--square", "phi_11"]],
        "isomorphic": [["fano", "pg2", "--format", "text"]],
        "catalog": [["list"], ["get", "phi_11"]],
    }

    @staticmethod
    def _declared(command):
        parser = build_parser()
        for name in command.split():  # a command, then the kind of an extension
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = sub.choices[name]
        return {a.dest for a in parser._actions if a.dest != "help"}

    @staticmethod
    def _reads(argv):
        """The names the command of argv reads off its parsed arguments."""
        args, read = build_parser().parse_args(argv), set()

        class Spy(argparse.Namespace):
            def __getattribute__(self, name):
                if not name.startswith("_"):
                    read.add(name)
                return super().__getattribute__(name)

        assert args.func(Spy(**vars(args))) == 0
        return read

    @pytest.mark.parametrize("command", OPTIONS)
    def test_every_option_is_read(self, capsys, tmp_path, command):
        fano, op = tmp_path / "fano.sts", tmp_path / "double.op"
        fano.write_text(formats.render_system(catalog.fixture("fano_labeled")))
        op.write_text(
            formats.render_operator(
                sl.double_operator(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))
            )
        )
        paths = {"FANO": str(fano), "OPERATOR": str(op)}
        assert self._declared(command) == self.OPTIONS[command]
        read = set()
        for argv in self.RUNS[command]:
            argv = [paths.get(a, a) for a in argv]
            read |= self._reads([*command.split(), *argv, "--output", str(tmp_path / "out")])
        assert self.OPTIONS[command] <= read
        if command == "extend":  # each kind, below, reads its own options
            return
        assert read - self.OPTIONS[command] <= {"command"} | self.FIXED.get(command, set())

    def test_settable_values(self):
        assert sum(len(self._declared(command)) for command in self.OPTIONS) == 42

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "list", "--bound-tb", "3"],
            ["catalog", "list", "--format", "text"],
            ["catalog", "get", "phi_11", "--bound-v", "7"],
            ["analyze", "--seed-fixture", "fano", "--bound-tb", "3"],
            ["isomorphic", "fano", "fano", "--bound-tb", "3"],
            ["extend", "double", "--n", "sts9_loop_table", "--square", "phi_11", "--format", "text"],
            ["extend", "double", "--n", "sts9_loop_table", "--square", "phi_11", "--t", "3"],
            ["extend", "double", "--n", "sts9_loop_table", "--square", "phi_11", "--op", "x.op"],
            ["extend", "schreier", "--q", "fano", "--t", "1", "--f", "zero", "--n", "fano"],
            ["extend", "schreier", "--q", "fano", "--t", "1", "--f", "zero", "--square", "phi_11"],
            ["extend", "operator", "--q", "sts1", "--n", "fano", "--op", "x.op", "--f", "zero"],
            ["double", "--n", "sts9_loop_table", "--square", "phi_11", "--bound-tb", "3"],
            ["enumerate", "--q", "fano", "--t", "1", "--format", "text"],
            ["classify", "--q", "fano", "--t", "1", "--format", "text"],
        ],
        ids=lambda argv: " ".join(argv[:1] + [a for a in argv if a.startswith("--")][-1:]),
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert got.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "unrecognized arguments: " in out.err
        assert [a for a in argv if a.startswith("--")][-1] in out.err


def test_incompletable_exit_code(capsys, monkeypatch, tmp_path):
    import steinerloops.cli as cli_mod

    def boom(n_loop, square):
        raise Incompletable(0, 1)

    monkeypatch.setattr(cli_mod.steiner_operator, "double_operator", boom)
    code, _, err = run(capsys, "double", "--n", "sts9_loop_table", "--square", "phi_11")
    assert code == 4


# a Fano plane with its last triple replaced by {0, 1, 4}, which repeats 0,1
REPEATED_PAIR = "7 7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n0 1 4\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "--seed-fixture", "pg5"], 0),
        (["classify", "--q", "sts9", "--t", "2"], 0),
        (["extend", "double", "--n", "sts9_loop_table", "--square", "phi_11"], 0),
        (["analyze", "--input", "REPEATED_PAIR"], 2),
    ],
)
def test_commands_leave_numpy_ma_unloaded(tmp_path, argv, code):
    """numpy.unique and its set routines import numpy.ma on first use, about
    16 ms and 1 MB in a fresh process; no command should pay that. Each
    command runs in a fresh interpreter, which reports its exit code and
    whether numpy.ma was imported."""
    path = tmp_path / "repeated.sts"
    path.write_text(REPEATED_PAIR)
    argv = [str(path) if a == "REPEATED_PAIR" else a for a in argv]
    script = (
        "import contextlib, io, sys\n"
        "from steinerloops.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(sl.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(code), "False"]
