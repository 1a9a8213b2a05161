"""End-to-end command-line behaviour, mostly through subprocesses."""

import io
import subprocess
import sys

import pytest

import corpus
from structind import cli, semantics
from structind.parser import MAX_TYPE_NESTING
from structind.render import parse_sexpr
from structind.semantics import Exhaustive, Node, SoundnessReport


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "structind", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


class TestRendering:
    def test_stdin_text_default(self):
        result = run_cli([], stdin=corpus.NAT)
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout == (
            "-- Nat\n"
            "∀P:Nat → \U0001d539. ((P Z) ∧ ∀n1:Nat. ((P n1) ⇒ (P (S n1)))) "
            "⇒ ∀n:Nat. (P n)\n"
        )

    def test_latex_format(self):
        result = run_cli(["--format", "latex"], stdin=corpus.BOOL)
        assert result.returncode == 0
        assert result.stdout.startswith("% Bool\n")
        assert "\\forall P:Bool \\rightarrow {\\mathbb{B}}. " in result.stdout

    def test_sexpr_output_parses_back(self):
        result = run_cli(["--format", "sexpr"], stdin=corpus.LIST)
        assert result.returncode == 0
        comment, body, blank = result.stdout.split("\n")
        assert comment == "; List"
        assert blank == ""
        assert parse_sexpr(body) is not None

    def test_multiple_decls_blank_line_separated(self):
        result = run_cli([], stdin=corpus.NAT + "\n" + corpus.BOOL)
        assert result.returncode == 0
        assert "-- Nat\n" in result.stdout
        assert "\n\n-- Bool\n" in result.stdout

    def test_pointed_flag(self):
        result = run_cli(["--pointed"], stdin=corpus.NAT)
        assert "(P ⊥) ∧ " in result.stdout

    def test_file_argument(self, tmp_path):
        path = tmp_path / "nat.hs"
        path.write_text(corpus.NAT, encoding="utf-8")
        result = run_cli([str(path)])
        assert result.returncode == 0
        assert result.stdout == run_cli([], stdin=corpus.NAT).stdout

    def test_output_file(self, tmp_path):
        out = tmp_path / "out.txt"
        result = run_cli(["--output", str(out)], stdin=corpus.NAT)
        assert result.returncode == 0
        assert result.stdout == ""
        assert out.read_text(encoding="utf-8") == run_cli([], stdin=corpus.NAT).stdout

    def test_runs_are_byte_identical(self):
        args = ["--check", "--depth", "3"]
        first = run_cli(args, stdin=corpus.NAT + "\n" + corpus.LIST)
        second = run_cli(args, stdin=corpus.NAT + "\n" + corpus.LIST)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    def test_nested_recursion_warning(self):
        rose = "data Rose a = Rose a (List (Rose a))\n"
        result = run_cli([], stdin=rose)
        assert result.returncode == 0
        assert "warning: no induction hypothesis for argument 2 of Rose.Rose" in result.stderr
        assert "List (Rose a)" in result.stderr


class TestCheck:
    def test_pass_summary_line(self):
        result = run_cli(["--check", "--depth", "3"], stdin=corpus.NAT)
        assert result.returncode == 0
        assert result.stdout.endswith("-- Nat: pass (universe 3, exhaustive 8 predicates)\n")

    def test_sampled_summary_line(self):
        result = run_cli(
            ["--check", "--depth", "3", "--samples", "50", "--seed", "7"],
            stdin=corpus.BTREE,
        )
        assert result.returncode == 0
        assert "-- BTree: pass (universe 38, sampled 50 predicates, seed 7)\n" in result.stdout

    def test_unsupported_type_is_skipped(self):
        result = run_cli(["--check"], stdin=corpus.LAMBDA)
        assert result.returncode == 0
        assert "warning: skipping soundness check for Lambda" in result.stderr
        assert "-- Lambda: skipped (" in result.stdout

    def test_oversized_universe_is_refused_before_enumerating(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("enumerate_terms called")

        monkeypatch.setattr(semantics, "enumerate_terms", fail)
        monkeypatch.setattr(cli, "enumerate_terms", fail)
        path = tmp_path / "btree.hs"
        path.write_text(corpus.BTREE, encoding="utf-8")
        assert cli.main(["--check", "--depth", "6", str(path)]) == 0
        captured = capsys.readouterr()
        reason = f"universe of more than {cli._MAX_UNIVERSE} terms at depth 6"
        assert captured.err == f"warning: skipping soundness check for BTree: {reason}\n"
        assert captured.out.endswith(f"-- BTree: skipped ({reason})\n")

    @pytest.mark.parametrize("limit, checked", [(38, True), (37, False)])
    def test_universe_limit_is_inclusive(self, limit, checked, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_MAX_UNIVERSE", limit)
        monkeypatch.setattr(sys, "stdin", io.StringIO(corpus.BTREE))
        assert cli.main(["--check", "--depth", "3", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert ("-- BTree: pass (universe 38, sampled 5 predicates" in out) == checked
        assert ("-- BTree: skipped (universe of more than 37 terms" in out) != checked

    def test_counterexample_exit_code(self, monkeypatch, capsys):
        # A correct generator never produces a failing report, so fake one.
        report = SoundnessReport(
            decl_name="Nat",
            universe_size=3,
            predicates_checked=5,
            mode=Exhaustive(),
            counterexample=((), Node("Z", ())),
        )
        monkeypatch.setattr(cli, "check_principle", lambda *a, **k: report)
        monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(corpus.NAT))
        code = cli.main(["--check"])
        out = capsys.readouterr().out
        assert code == 2
        assert "-- Nat: FAIL (universe 3, predicate of size 0 misses Z)\n" in out


class TestErrors:
    def test_parse_error_exit_1(self):
        result = run_cli([], stdin="data nat = Z")
        assert result.returncode == 1
        assert result.stdout == ""
        assert "<stdin>:1:6: error:" in result.stderr

    def test_parse_error_names_file(self, tmp_path):
        path = tmp_path / "bad.hs"
        path.write_text("data Nat = Z |\n", encoding="utf-8")
        result = run_cli([str(path)])
        assert result.returncode == 1
        assert f"{path}:2:1: error:" in result.stderr

    def test_titlecase_type_parameter(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("data X ǅbe = A\n"))
        assert cli.main([]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "<stdin>:1:8: error: type parameters must be lowercase names, found 'ǅbe'\n"
        )

    def test_nesting_too_deep(self, monkeypatch, capsys):
        text = "data D = D " + "(" * 1200 + "D" + ")" * 1200
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main([]) == 1
        assert capsys.readouterr().err == (
            f"<stdin>:1:{13 + MAX_TYPE_NESTING}: error: "
            f"type nested more than {MAX_TYPE_NESTING} levels deep\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "latex", "sexpr"])
    def test_nesting_at_the_cap_goes_through(self, fmt, monkeypatch, capsys):
        text = "data D a = D " + "(D " * MAX_TYPE_NESTING + "a" + ")" * MAX_TYPE_NESTING
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["--format", fmt, "--check"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{cli._COMMENT[fmt]} D\n")
        if fmt == "sexpr":
            assert parse_sexpr(out.split("\n")[1]) is not None

    def test_missing_file(self):
        result = run_cli(["/no/such/file"])
        assert result.returncode == 1
        assert "structind: error:" in result.stderr

    def test_unknown_flag(self):
        result = run_cli(["--bogus"], stdin=corpus.NAT)
        assert result.returncode == 3
        assert "structind: error:" in result.stderr

    def test_bad_format(self):
        result = run_cli(["--format", "html"], stdin=corpus.NAT)
        assert result.returncode == 3

    @pytest.mark.parametrize("flag, value", [("--depth", "0"), ("--samples", "0")])
    def test_nonpositive_numbers(self, flag, value):
        result = run_cli([flag, value], stdin=corpus.NAT)
        assert result.returncode == 3
        assert "at least 1" in result.stderr

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.hs"
        path.write_bytes(b"data Caf\xe9 = C\n")
        assert cli.main([str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"structind: error: {path}: not UTF-8 text")

    def test_non_utf8_stdin(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"data Nat = Z | S Nat\n\xff"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert cli.main([]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("structind: error: <stdin>: not UTF-8 text")

    def test_empty_input_is_fine(self):
        result = run_cli([], stdin="")
        assert result.returncode == 0
        assert result.stdout == ""


class TestRepeatedCalls:
    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        # One argument parser serves every call in a process; each call must
        # still behave like a fresh process.
        btree, nat = tmp_path / "btree.hs", tmp_path / "nat.hs"
        btree.write_text(corpus.BTREE, encoding="utf-8")
        nat.write_text(corpus.NAT + "\n" + corpus.LIST, encoding="utf-8")
        calls = [
            ["--check", "--samples", "5", "--seed", "3", "--format", "latex", str(btree)],
            ["--check", str(btree)],
            ["--format", "sexpr", "--pointed", str(nat)],
            [str(nat)],
            ["--check", "--depth", "2", str(btree), str(nat)],
            ["--samples", "0", str(nat)],
            ["--format", "html", str(nat)],
            ["--check", "--samples", "7", str(btree)],
            ["--check", str(btree)],
        ]
        for args in calls:
            code = cli.main(args)
            captured = capsys.readouterr()
            fresh = run_cli(args)
            assert (code, captured.out, captured.err) == (
                fresh.returncode,
                fresh.stdout,
                fresh.stderr,
            ), args
