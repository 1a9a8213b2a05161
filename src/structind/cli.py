"""Command-line driver: parse declarations, print principles, optionally check them.

Exit codes: 0 on success, 1 on parse or input errors or output that
cannot be written, 2 when the soundness check finds a counterexample, 3 on
bad flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .generator import GenOptions, induction_principle, nested_recursion_warnings
from .parser import ParseError, parse_program
from .render import render_latex, render_sexpr, render_text, type_source
from .semantics import (
    DEFAULT_SEED,
    EXHAUSTIVE_LIMIT,
    Exhaustive,
    GroundEnv,
    Sampled,
    UnsupportedTypeError,
    check_principle,
    enumerate_terms,  # noqa: F401 -- kept importable here: perfbench/tracing.py patches it
    format_ground_term,
    universe_size,
)

_RENDERERS = {"text": render_text, "latex": render_latex, "sexpr": render_sexpr}
_COMMENT = {"text": "--", "latex": "%", "sexpr": ";"}


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _ArgumentParser:
    ap = _ArgumentParser(
        prog="structind",
        description="Generate structural induction principles for data declarations.",
    )
    ap.add_argument("files", nargs="*", help="declaration files (default: stdin)")
    ap.add_argument(
        "--format", choices=("text", "latex", "sexpr"), default="text", help="output format"
    )
    ap.add_argument(
        "--pointed", action="store_true", help="include the clause for the undefined value"
    )
    ap.add_argument("--check", action="store_true", help="run the finite-model soundness check")
    ap.add_argument("--depth", type=int, default=3, metavar="N", help="ground term depth bound")
    ap.add_argument(
        "--samples", type=int, default=200, metavar="N", help="predicates when sampling"
    )
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="N", help="sampling seed")
    ap.add_argument("--output", metavar="FILE", help="write output to FILE instead of stdout")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except _UsageError as e:
        ap.print_usage(sys.stderr)
        print(f"structind: error: {e}", file=sys.stderr)
        return 3
    for flag, value in (("--depth", args.depth), ("--samples", args.samples)):
        if value < 1:
            print(f"structind: error: {flag} must be at least 1", file=sys.stderr)
            return 3

    sources: list[tuple[str, str]] = []
    name = "<stdin>"
    try:  # a leading byte-order mark is skipped, as GHC skips it
        if args.files:
            for name in args.files:
                with open(name, encoding="utf-8-sig") as handle:
                    sources.append((name, handle.read()))
        else:
            sources.append((name, sys.stdin.read().removeprefix("\ufeff")))
    except OSError as e:
        print(f"structind: error: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:
        print(f"structind: error: {name}: not UTF-8 text: {e}", file=sys.stderr)
        return 1

    decls = []
    for name, text in sources:
        try:
            decls.extend(parse_program(text))
        except ParseError as e:
            print(f"{name}:{e.pos}: error: {e.message}", file=sys.stderr)
            return 1

    render = _RENDERERS[args.format]
    mark = _COMMENT[args.format]
    opts = GenOptions(pointed=args.pointed)
    lines: list[str] = []
    summaries: list[str] = []
    exit_code = 0
    for decl in decls:
        for w in nested_recursion_warnings(decl):
            print(
                f"warning: no induction hypothesis for argument {w.position} of "
                f"{decl.type_name}.{w.constructor}: {decl.type_name} occurs inside "
                f"'{type_source(w.arg_type)}' but is not its head",
                file=sys.stderr,
            )
        principle = induction_principle(decl, opts)
        lines.append(f"{mark} {decl.type_name}")
        lines.append(render(principle.formula))
        lines.append("")
        if args.check:
            env = GroundEnv.default_for(decl)
            try:
                # This count stops just past EXHAUSTIVE_LIMIT: it only picks the mode.
                size = universe_size(decl, env, args.depth, opts.pointed, EXHAUSTIVE_LIMIT)
                exhaustive = size <= EXHAUSTIVE_LIMIT
                mode = Exhaustive() if exhaustive else Sampled(args.samples, args.seed)
                report = check_principle(principle, env, args.depth, mode)
            except UnsupportedTypeError as e:
                print(
                    f"warning: skipping soundness check for {decl.type_name}: {e}",
                    file=sys.stderr,
                )
                summaries.append(f"{decl.type_name}: skipped ({e})")
                continue
            size = report.universe_size
            if report.passed:
                how = f"{report.predicates_checked} predicates"
                how = f"exhaustive {how}" if exhaustive else f"sampled {how}, seed {args.seed}"
                summaries.append(f"{decl.type_name}: pass (universe {size}, {how})")
            else:
                predicate, failing = report.counterexample
                summaries.append(
                    f"{decl.type_name}: FAIL (universe {size}, predicate of size "
                    f"{len(predicate)} misses {format_ground_term(failing)})"
                )
                exit_code = 2

    lines.extend(f"{mark} {s}" for s in summaries)
    text_out = "\n".join(lines)
    if text_out and not text_out.endswith("\n"):
        text_out += "\n"
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text_out)
        else:
            _write_stdout(text_out)
    except OSError as e:
        print(f"structind: error: {e}", file=sys.stderr)
        return 1
    return exit_code


def _write_stdout(text: str) -> None:
    """Write `text` to stdout in full or raise. Unbuffered, stdout's text
    layer writes straight to the raw file and drops the rest of a short
    write, so the bytes go out through `stdout.buffer`, as often as it
    takes, when the stream has one."""
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        out.flush()
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buffer.write(data) :]
    buffer.flush()


def run() -> None:
    code = main()
    try:  # bytes a failed write left buffered would fail the flush at exit too
        sys.stdout.flush()
    except OSError:  # main() has reported it; write them to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
