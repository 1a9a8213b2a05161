"""Spans around structind's public functions, recorded from outside the package.

`cli` imports what it calls directly (`from .parser import
parse_program`), so each function is patched under the name its caller
looks up: in `structind.cli` for calls made by the command line, and in
its own module for calls made by the benchmark or by another module
(`check_principle` calls `semantics.enumerate_terms`). Spans are kept in
memory; a layer's self time is its span time minus its children's.
Counting done inside a program call (formula sizes, output bytes) runs
in a `bench` span of its own, so it is charged to the benchmark.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def ast_nodes(node) -> int:
    """Number of AST nodes (formulas, sorts, types and terms) under `node`."""
    count = 0
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, tuple):
            stack.extend(n)
        elif hasattr(n, "__dataclass_fields__"):
            count += 1
            stack.extend(vars(n).values())
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span("bench"):
                    count(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child_time[i]
        return dict(out)


def _count_parse(counts, args, result):
    counts["parser.bytes"] += len(args[0].encode("utf-8"))


def _count_generate(counts, args, result):
    counts["generator.formula_nodes"] += ast_nodes(result.formula)


def _count_render(counts, args, result):
    counts["render.out_bytes"] += len(result.encode("utf-8"))


def _count_enumerate(counts, args, result):
    counts["semantics.universe_terms"] += len(result)


def _count_check(counts, args, report):
    counts["semantics.check.predicates"] += report.predicates_checked
    counts["semantics.check.predicate_terms"] += report.predicates_checked * report.universe_size
    if not report.passed:
        counts["semantics.check.witnesses"] += 1
        counts["semantics.check.witness_predicates"] += report.predicates_checked


@contextmanager
def patched(tracer: Tracer):
    """Install the spans for the duration of the block."""
    from structind import cli, core, render, semantics

    renderers = dict(cli._RENDERERS)
    targets = [
        (cli, "main", "cli", None),
        (cli, "parse_program", "parser", _count_parse),
        (cli, "induction_principle", "generator", _count_generate),
        (cli, "nested_recursion_warnings", "generator", None),
        (cli, "enumerate_terms", "semantics.enumerate", _count_enumerate),
        (cli, "check_principle", "semantics.check", _count_check),
        (semantics, "enumerate_terms", "semantics.enumerate", _count_enumerate),
        (semantics, "check_principle", "semantics.check", _count_check),
        (render, "parse_sexpr", "render.read_sexpr", None),
        (core, "prefix_perm_eq", "core.equiv", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, count in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        for fmt, fn in renderers.items():
            cli._RENDERERS[fmt] = tracer.wrap(f"render.{fmt}", fn, _count_render)
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
        cli._RENDERERS.update(renderers)
