"""End-to-end command-line behaviour, mostly through subprocesses."""

import functools
import io
import os
import subprocess
import sys

import pytest

import corpus
from line_count import lines_run
from structind import cli, parser, render, semantics
from structind.parser import MAX_TYPE_NESTING, parse_decl
from structind.render import parse_sexpr, render_sexpr
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

    @pytest.mark.parametrize("fmt", ["text", "latex"])
    def test_a_wide_parameter_list_is_read_and_rendered_in_linear_work(
        self, fmt, monkeypatch, capsys
    ):
        # At most 100 lines of the parser and the renderer run per parameter;
        # reading or binding one parameter must not walk the ones before it.
        n = 10_000
        params = " ".join(f"a{i}" for i in range(n))
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"data T {params} = C"))
        main = functools.partial(cli.main, ["--format", fmt])
        assert lines_run({parser.__file__, render.__file__}, main, 100 * n) == 0
        assert capsys.readouterr().out.count(":*. ") == n

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
            raise AssertionError("the universe was built")

        monkeypatch.setattr(semantics, "enumerate_terms", fail)
        monkeypatch.setattr(semantics, "_layers", fail)
        monkeypatch.setattr(cli, "enumerate_terms", fail)
        path = tmp_path / "btree.hs"
        path.write_text(corpus.BTREE, encoding="utf-8")
        assert cli.main(["--check", "--depth", "6", str(path)]) == 0
        captured = capsys.readouterr()
        reason = f"universe of more than {semantics.SAMPLED_LIMIT} terms at depth 6"
        assert captured.err == f"warning: skipping soundness check for BTree: {reason}\n"
        assert captured.out.endswith(f"-- BTree: skipped ({reason})\n")

    def test_a_deep_unary_type_is_built_in_linear_work(self, monkeypatch, capsys):
        # Each layer of `N` holds one term. Building the whole universe is
        # bounded by the number of lines of `semantics` that run while the
        # layer builder builds it, at most 100 a layer, rather than by
        # wall-clock time, which a loaded host can break; a build that walks
        # every older term in each layer passes that count within a few
        # thousand layers and stops there.
        depth = 100_000
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
                if lines > 100 * depth:
                    raise AssertionError(f"more than {100 * depth} lines to build the universe")
            return count_lines

        def trace_semantics(frame, event, arg):
            return count_lines if frame.f_code.co_filename == semantics.__file__ else None

        nat = parse_decl("data N = Z | S N")
        _, ctors = semantics._argument_slots(nat, semantics.GroundEnv({}), depth)
        tracer = sys.gettrace()
        sys.settrace(trace_semantics)
        try:
            for keys in semantics._layers(ctors, depth, False):
                pass
        finally:
            sys.settrace(tracer)
        assert len(keys) == semantics.universe_size(nat, semantics.GroundEnv({}), depth) == depth
        monkeypatch.setattr(sys, "stdin", io.StringIO("data N = Z | S N"))
        assert cli.main(["--check", "--depth", str(depth)]) == 0
        summary = f"-- N: pass (universe {depth}, sampled 200 predicates, seed 271828)\n"
        assert capsys.readouterr().out.endswith(summary)

    def test_a_check_reads_each_carrier_twice(self, monkeypatch, capsys):
        # Once to count the universe and pick the mode, once to check.
        reads = []
        carrier = semantics.GroundEnv.carrier

        def counted(env, param):
            reads.append(param)
            return carrier(env, param)

        monkeypatch.setattr(semantics.GroundEnv, "carrier", counted)
        monkeypatch.setattr(sys, "stdin", io.StringIO(corpus.SWAPTREE))
        assert cli.main(["--check", "--depth", "2"]) == 0
        assert capsys.readouterr().out.endswith(
            "-- SwapTree: pass (universe 3, exhaustive 8 predicates)\n"
        )
        assert sorted(reads) == ["a", "a", "b", "b"]

    @pytest.mark.parametrize(
        "name, source",
        [
            ("T", "data T = L | N" + " T" * 1200),
            ("Wide", "data Wide a = Leaf | Node" + " a (Wide a)" * 600),
        ],
    )
    def test_a_clause_nested_too_deeply_is_skipped(self, name, source):
        result = run_cli(["--check", "--depth", "1"], stdin=source)
        assert result.returncode == 0
        reason = "a clause nests too deeply to check"
        assert result.stderr == f"warning: skipping soundness check for {name}: {reason}\n"
        assert result.stdout.endswith(f"-- {name}: skipped ({reason})\n")

    def test_a_wide_clause_within_the_recursion_limit_is_checked(self):
        result = run_cli(["--check", "--depth", "1"], stdin="data T = L | N" + " T" * 400)
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.endswith("-- T: pass (universe 1, exhaustive 2 predicates)\n")

    @pytest.mark.parametrize("limit, checked", [(38, True), (37, False)])
    def test_universe_limit_is_inclusive(self, limit, checked, monkeypatch, capsys):
        monkeypatch.setattr(semantics, "SAMPLED_LIMIT", limit)
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

    def test_repeated_constructor_is_a_parse_error(self):
        result = run_cli(["--check"], stdin="data T = A | A")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "<stdin>:1:14: error: duplicate constructor 'A'\n"

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

    @pytest.mark.parametrize("fmt", ["text", "latex", "sexpr"])
    def test_long_generated_chains_go_through(self, fmt, monkeypatch, capsys):
        # A conjunct per constructor and a quantifier per argument, each
        # chain longer than the interpreter's recursion limit.
        many = "data Many = " + " | ".join(f"C{i}" for i in range(1500))
        wide = "data Wide a = Leaf | Node" + " a (Wide a)" * 600
        for text, flags, summary in [
            (many, ["--check"], "Many: pass (universe 1500, sampled 200 predicates"),
            (wide, [], None),
        ]:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert cli.main(["--format", fmt, *flags]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            lines = captured.out.split("\n")
            if summary:
                assert lines[3].startswith(f"{cli._COMMENT[fmt]} {summary}")
            if fmt == "sexpr":
                assert render_sexpr(parse_sexpr(lines[1])) == lines[1]

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
        assert result.stderr == f"structind: error: {flag} must be at least 1\n"

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

    @pytest.fixture
    def read(self, tmp_path, monkeypatch, capsys):
        """Exit code, stdout and stderr of `--check` on some bytes, from a file or from stdin."""

        def read(data, from_file):
            path = tmp_path / "decl.hs"
            path.write_bytes(data)
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            monkeypatch.setattr(sys, "stdin", stdin)
            code = cli.main(["--check", str(path)] if from_file else ["--check"])
            return code, *capsys.readouterr()

        return read

    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize("source", [corpus.NAT + "\n" + corpus.LIST, "data T = C |\n"])
    def test_a_leading_byte_order_mark_is_skipped(self, read, source, from_file):
        plain = read(source.encode(), from_file)
        assert plain[0] == (0 if "Nat" in source else 1)
        assert read(b"\xef\xbb\xbf" + source.encode(), from_file) == plain

    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize(
        "source, column", [("data T = C\ufeff\n", 11), ("\ufeff\ufeffdata T = C\n", 1)]
    )
    def test_any_other_byte_order_mark_is_a_positioned_error(
        self, read, tmp_path, source, column, from_file
    ):
        name = tmp_path / "decl.hs" if from_file else "<stdin>"
        assert read(source.encode(), from_file) == (
            1, "", f"{name}:1:{column}: error: unexpected character '\\ufeff'\n"
        )

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_stdout_write(self, failing, monkeypatch, capsys):
        def fail(*args):
            raise OSError(28, "No space left on device")

        stdout = io.StringIO()
        monkeypatch.setattr(stdout, failing, fail)
        monkeypatch.setattr(sys, "stdin", io.StringIO(corpus.NAT))
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main([]) == 1
        assert capsys.readouterr().err == "structind: error: [Errno 28] No space left on device\n"

    @staticmethod
    def _env(buffered):
        # With buffering the unwritten bytes outlive main() and the
        # interpreter flushes them again at exit; PYTHONUNBUFFERED hides that.
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @pytest.mark.skipif(sys.platform != "linux", reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False])
    def test_stdout_to_a_full_device(self, buffered):
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "structind"],
                input=corpus.NAT,
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=self._env(buffered),
            )
        assert result.returncode == 1
        assert result.stderr == "structind: error: [Errno 28] No space left on device\n"

    # One declaration: the reader leaves before any write. 2,000: the output
    # is far more than a pipe holds, and the reader takes one byte and
    # leaves. Unbuffered, CPython's text layer drops a pipe's short write
    # without an error, so the CLI writes the rest itself and meets the
    # broken pipe on the next write.
    @pytest.mark.parametrize(
        "buffered, count", [(True, 1), (False, 1), (True, 2000), (False, 2000)]
    )
    def test_reader_closes_the_pipe(self, buffered, count):
        source = "".join(f"data T{i} a = L{i} | N{i} a (T{i} a)\n" for i in range(count))
        proc = subprocess.Popen(
            [sys.executable, "-m", "structind"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env(buffered),
        )
        if count == 1:
            proc.stdout.close()
        proc.stdin.write(source.encode())
        proc.stdin.close()
        if count > 1:
            assert proc.stdout.read(1) == b"-"
            proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert err == "structind: error: [Errno 32] Broken pipe\n"

    def test_unwritable_output_file(self, tmp_path):
        result = run_cli(["--output", str(tmp_path)], stdin=corpus.NAT)
        assert result.returncode == 1
        assert result.stderr.startswith("structind: error: ")

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
