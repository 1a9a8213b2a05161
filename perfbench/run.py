#!/usr/bin/env python3
"""The structind benchmark: one workload, run as a closed loop in one process.

    python3 perfbench/run.py --workload {emit,prove,refute,universe} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a structind source tree: the library is
imported from `src/` and the independent oracles from `tests/`. One
thread runs the workload's items back to back, in whole passes over the
same items, until `--seconds` have passed; the inputs are generated from
`--seed` during set-up, and every output is checked after the clock
stops. Each item is timed by its median over the passes, at reference
speed: before each item the benchmark times a fixed piece of work of its
own, and each pass's times are scaled by that pass's median calibration,
so that the host's drifting speed drops out (see `calibrate`). The last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer ones with `--trace 1`. A traced run measures the same passes
untraced and then traced, so it also reports the tracing overhead.
Items, spans and metrics are written to `.perfbench/out/`.

Workloads (item = what one loop iteration does):
  emit      one declaration through `cli.main` in text, LaTeX and
            s-expression form, then the s-expression read back with
            `parse_sexpr` and compared with `prefix_perm_eq`;
  prove     `cli.main --check` on a sound principle, |U| from 1 to 10,
            which tries all 2^|U| predicates;
  refute    `semantics.check_principle` on a clause-deletion mutant,
            |U| <= 16, which stops at its first counterexample;
  universe  `cli.main --check --samples` on trees at depth 3 and 4, with
            |U| from 147 to 1,446, which samples predicates.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("emit", "prove", "refute", "universe")
FORMATS = ("text", "latex", "sexpr")
HEADER = {"text": "--", "latex": "%", "sexpr": ";"}
SETUP_REPEATS = 7
CALIBRATION_STEPS = 64
CALIBRATION_POOL = 10_000
CALIBRATION_LOOKUPS = 150
REFERENCE_CALIBRATION_S = 4e-4
_BRACED_SUBSCRIPT = re.compile(r"_\{(\d+)\}")
TAIL_BEYOND = 10  # item_tail_ms is the highest percentile with this many items beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _check_tree() -> str | None:
    for rel in ("src/structind/__init__.py", "tests/reference_gen.py", "tests/latex_reader.py"):
        if not (ROOT / rel).is_file():
            return f"{ROOT / rel} not found; run the benchmark inside a structind source tree"
    return None


# --- set-up ----------------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path) -> list:
    """Generate the workload's inputs; this is what `setup_s` times after start and import."""
    import inputs

    items = getattr(inputs, f"{workload}_items")(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs.materialize(items, workdir)
    if workload == "refute":
        _build_mutants(items)
    return items


def _build_mutants(items) -> None:
    """Clause-deletion mutants, built as in scripts/soundness_sweep.py."""
    from structind.core import Principle
    from structind.generator import GenOptions, assemble, induction_principle
    from structind.parser import parse_decl
    from structind.semantics import GroundEnv
    from inputs import decl_source

    for item in items:
        decl = parse_decl(decl_source(item.decl))
        clauses = induction_principle(decl, GenOptions(pointed=item.pointed)).clauses
        kept = tuple(c for i, c in enumerate(clauses) if i != item.deleted)
        formula = assemble(decl, item.pointed, [f for _, f in kept])
        item.extra["principle"] = Principle(decl, item.pointed, formula, kept)
        item.extra["env"] = GroundEnv.default_for(decl)


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that start, import structind and set up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# --- machine speed --------------------------------------------------------------------------
#
# The host's speed drifts: over minutes a fixed pure-Python loop runs up to
# 40% slower or faster, and raw times of the same code on the same inputs
# drift with it. So the benchmark times a fixed piece of work of its own
# just before each item, and reports each item's time at the speed at
# which that work takes REFERENCE_CALIBRATION_S. Raw times and
# calibrations stay in the item records. Set-up time is scaled by the
# median calibration of the whole run: a calibration next to each set-up
# process is itself disturbed by that process starting.


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


class Calibrator:
    """Times a fixed piece of work in the style of the program: building and
    hashing small frozen dataclasses, then looking nodes of a pool of a few
    megabytes up in a dict, in a shuffled order, which feels contention
    for the shared caches as the program's own lookups do."""

    def __init__(self):
        self.pool = [_Node(f"n{i}", (_Node("k", ()),) if i % 2 else ()) for i in range(CALIBRATION_POOL)]
        self.index = {node: i for i, node in enumerate(self.pool)}
        self.order = list(range(CALIBRATION_POOL))
        random.Random(0).shuffle(self.order)
        self.next = 0

    @staticmethod
    def _build() -> None:
        seen = set()
        counts: dict[str, int] = {}
        prev = _Node("z", ())
        for i in range(CALIBRATION_STEPS):
            node = _Node("s" if i % 3 else "c", (prev,) if i % 4 else ())
            seen.add(node)
            counts[node.tag] = counts.get(node.tag, 0) + len(node.kids)
            prev = node

    def _lookup(self) -> None:
        pool, index, order = self.pool, self.index, self.order
        total = 0
        for j in range(self.next, self.next + CALIBRATION_LOOKUPS):
            total += index[pool[order[j % CALIBRATION_POOL]]]
        self.next = (self.next + CALIBRATION_LOOKUPS) % CALIBRATION_POOL

    def __call__(self) -> float:
        """Seconds taken by the work. The building runs once untimed first,
        so that the caches hold its own data, not the last item's; the
        lookups go on through the pool and find it as the item left it."""
        self._build()
        start = time.perf_counter()
        self._build()
        self._lookup()
        return time.perf_counter() - start


# --- items -------------------------------------------------------------------------------


class Runner:
    """Calls the program for one item at a time and keeps what it returned."""

    def __init__(self, workdir: Path):
        from structind import cli, core, render, semantics

        self.cli, self.core, self.render, self.semantics = cli, core, render, semantics
        self.out = {fmt: str(workdir / f"out.{fmt}") for fmt in FORMATS}
        self._first: dict[int, object] = {}

    def call(self, item):
        return getattr(self, f"_{item.kind}")(item)

    def keep(self, item, out):
        """What a record keeps of an output: formulas are reduced to a comparison
        with the reference, and an output equal to the item's first one is shared,
        so that the benchmark's own memory stays small next to the program's."""
        if item.kind == "emit":
            rcs, texts, readback, same = out
            out = rcs, texts, readback == item.extra["reference"], same
        first = self._first.setdefault(id(item), out)
        return first if first == out else out

    def _read(self, path: str) -> str:
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    def _emit(self, item):
        rcs, texts = [], []
        for fmt in FORMATS:
            rcs.append(self.cli.main([item.path, "--format", fmt, "--output", self.out[fmt]]))
            texts.append(self._read(self.out[fmt]))
        readback = self.render.parse_sexpr(texts[2].split("\n")[1])
        same = self.core.prefix_perm_eq(readback, item.extra["reference"])
        return tuple(rcs), tuple(texts), readback, same

    def _check(self, item):
        argv = [item.path, "--check", "--depth", str(item.depth), "--output", self.out["text"]]
        if item.pointed:
            argv.append("--pointed")
        if item.samples:
            argv += ["--samples", str(item.samples), "--seed", str(item.extra["sample_seed"])]
        return self.cli.main(argv), self._read(self.out["text"])

    def _refute(self, item):
        return self.semantics.check_principle(
            item.extra["principle"], item.extra["env"], item.depth, self.semantics.Exhaustive()
        )


@dataclass
class Record:
    """One item as run: its time, what the program returned, and the verdict."""

    item: object
    pass_: int
    seconds: float
    out: object = None
    error: str | None = None
    errors: list[str] = field(default_factory=list)
    calibration: float = REFERENCE_CALIBRATION_S  # the calibration just before it


def run_passes(runner: Runner, items: list, seconds: float, tracer=None, count: int | None = None):
    """Run whole passes over `items` until `seconds` have passed (or exactly
    `count` passes), calibrating before each item."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("bench"):
        calibrate = Calibrator()
    records = []
    deadline = time.perf_counter() + seconds
    done = 0
    while (done < count) if count is not None else (done == 0 or time.perf_counter() < deadline):
        for item in items:
            with span("bench"):
                calibration = calibrate()
            start = time.perf_counter()
            try:
                with span("item"):
                    out = runner.call(item)
                error = None
            except Exception as e:  # an item that raises counts as failed; the run goes on
                out, error = None, f"{type(e).__name__}: {e}"
                print(f"perfbench: item {item.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            elapsed = time.perf_counter() - start
            if out is not None:
                with span("bench"):
                    out = runner.keep(item, out)
            records.append(Record(item, done, elapsed, out, error, calibration=calibration))
        done += 1
    return records, done


# --- verification -----------------------------------------------------------------------


class Verifier:
    """Judges outputs with code that is not the code under test."""

    def __init__(self):
        import latex_reader

        self.parse_latex = latex_reader.parse_latex

    def errors(self, item, out) -> list[str]:
        return getattr(self, f"_{item.kind}")(item, out)

    def _emit(self, item, out):
        from oracle import latex_as_text

        rcs, texts, readback_is_reference, same = out
        if rcs != (0, 0, 0):
            return [f"exit codes {rcs}"]
        lines = {}
        for fmt, text in zip(FORMATS, texts):
            parts = text.split("\n")
            if len(parts) != 3 or parts[0] != f"{HEADER[fmt]} {item.name}" or parts[2]:
                return [f"{fmt} output is not one header and one formula line"]
            lines[fmt] = parts[1]
        errors = []
        reference = item.extra["reference"]
        if readback_is_reference is not True:
            errors.append("the s-expression reads back to another formula than the reference")
        if same is not True:
            errors.append("prefix_perm_eq rejects the read-back s-expression")
        # The reader takes one-digit subscripts only; x_{12} and x_12 name the same variable.
        if self.parse_latex(_BRACED_SUBSCRIPT.sub(r"_\1", lines["latex"])) != reference:
            errors.append("the LaTeX reads back to another formula than the reference")
        if lines["text"] != latex_as_text(lines["latex"]):
            errors.append("the text and LaTeX renderings disagree")
        return errors

    def _check(self, item, out):
        from oracle import check_summary_errors

        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        return check_summary_errors(
            text, item.name, item.extra["universe"], item.samples, item.extra.get("sample_seed", 0)
        )

    def _refute(self, item, report):
        from oracle import BOTTOM, witness_errors

        if report.passed:
            return ["the mutant passed"]
        if report.universe_size != item.extra["universe"]:
            return [f"universe {report.universe_size}, expected {item.extra['universe']}"]

        def plain(t):
            if hasattr(t, "ctor"):
                return (t.ctor, tuple(plain(c) for c in t.children))
            return t.label if hasattr(t, "label") else BOTTOM

        predicate, missed = report.counterexample
        kept = {c for i, (c, _) in enumerate(item.decl[2]) if i != item.deleted}
        return witness_errors(
            item.decl, item.depth, item.pointed, kept, [plain(t) for t in predicate], plain(missed)
        )


def verify(records) -> int:
    """Mark each record ok or not; returns the number of failed items."""
    verifier = Verifier()
    first: dict[int, tuple] = {}
    failed = 0
    for rec in records:
        item, out, error = rec.item, rec.out, rec.error
        if error is None:
            seen = first.get(id(item))
            if seen is not None and seen[0] == out:
                errors = seen[1]
            else:
                try:
                    errors = verifier.errors(item, out)
                except Exception as e:  # an output the oracle cannot even read is wrong
                    errors = [f"oracle raised {type(e).__name__}: {e}"]
                first.setdefault(id(item), (out, errors))
        else:
            errors = [error]
        rec.errors = errors
        if errors:
            failed += 1
            print(f"perfbench: {item.kind} item {item.name} is wrong: {'; '.join(errors)}", file=sys.stderr)
    return failed


# --- metrics ----------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def item_times(records) -> list[float]:
    """Each item's median time over the passes at reference speed, in item order."""
    runs: dict[int, list[float]] = {}
    for r in records:
        runs.setdefault(id(r.item), []).append(r.seconds * REFERENCE_CALIBRATION_S / r.calibration)
    return [statistics.median(ts) for ts in runs.values()]


def end_to_end(records, passes: int, setup_s: float, peak_rss_mb: float) -> dict:
    times = item_times(records)
    n = len(times)
    p = 100 * (1 - TAIL_BEYOND / (n - 1))
    speed = REFERENCE_CALIBRATION_S / statistics.median(r.calibration for r in records)
    print(f"perfbench: n={n} items, each timed by its median of {passes} passes at reference speed "
          f"(the host ran at {speed:.3f} of it); item_tail_ms is p{p:.2f}, {TAIL_BEYOND} items beyond it",
          file=sys.stderr)
    values = {
        "setup_s": setup_s * speed,
        # The rate of a pass in which every item took its median time.
        "items_per_s": n / sum(times),
        "item_p50_ms": percentile(times, 50) * 1e3,
        "item_tail_ms": percentile(times, p) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, traced, untraced, traced_wall: float, failed_share: float) -> dict:
    n = len(traced)
    selfs = tracer.self_times()
    counts = tracer.counts
    traced_s = sum(r.seconds for r in traced)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("cli.self_s", selfs.get("cli", 0.0) / n, "s/item")
    put("cli.calls", counts["cli.calls"] / n, "count/item")
    put("parser.self_s", selfs.get("parser", 0.0) / n, "s/item")
    put("parser.bytes", counts["parser.bytes"] / n, "B/item")
    put("generator.self_s", selfs.get("generator", 0.0) / n, "s/item")
    put("generator.formula_nodes", counts["generator.formula_nodes"] / n, "count/item")
    for fmt in (*FORMATS, "read_sexpr"):
        put(f"render.{fmt}.self_s", selfs.get(f"render.{fmt}", 0.0) / n, "s/item")
    put("render.out_bytes", counts["render.out_bytes"] / n, "B/item")
    put("core.equiv.self_s", selfs.get("core.equiv", 0.0) / n, "s/item")
    put("core.equiv.calls", counts["core.equiv.calls"] / n, "count/item")
    put("semantics.check.self_s", selfs.get("semantics.check", 0.0) / n, "s/item")
    put("semantics.check.predicates", counts["semantics.check.predicates"] / n, "count/item")
    witnesses = counts["semantics.check.witnesses"]
    put(
        "semantics.check.predicates_per_witness",
        counts["semantics.check.witness_predicates"] / witnesses if witnesses else 0.0,
        "count",
    )
    put("semantics.check.predicate_terms", counts["semantics.check.predicate_terms"] / n, "count/item")
    put("semantics.enumerate.self_s", selfs.get("semantics.enumerate", 0.0) / n, "s/item")
    put("semantics.universe_terms", counts["semantics.universe_terms"] / n, "count/item")
    checks = counts["semantics.check.calls"]
    put(
        "semantics.enumerate.calls_per_check",
        counts["semantics.enumerate.calls"] / checks if checks else 0.0,
        "ratio",
    )
    put("bench.self_s", (selfs.get("item", 0.0) + selfs.get("bench", 0.0)) / n, "s/item")
    put("trace.overhead_share", traced_s / sum(r.seconds for r in untraced), "ratio")
    put("trace.accounted_share", sum(selfs.values()) / traced_wall, "ratio")
    put("failed_share", failed_share, "ratio")
    return out


# --- records ----------------------------------------------------------------------------


def _sizes(item) -> dict:
    """Input and output sizes kept next to each item's time."""
    sizes = {k: v for k, v in item.extra.items() if k in ("bytes_in", "formula_nodes", "universe", "layers")}
    if item.kind == "check":
        sizes["predicates"] = item.samples or 1 << item.extra["universe"]
    return sizes


def write_record(path: Path, meta: dict, records, tracer) -> None:
    items = []
    index: dict[int, int] = {}
    for rec in records:
        item, out, errors = rec.item, rec.out, rec.errors
        row = {"item": index.setdefault(id(item), len(index)), "name": item.name, "kind": item.kind,
               "pass": rec.pass_, "calibration": rec.calibration, "depth": item.depth,
               "pointed": item.pointed, "seconds": rec.seconds, "ok": not errors, **_sizes(item)}
        if item.kind == "emit" and out is not None:
            row["bytes_out"] = sum(len(t.encode("utf-8")) for t in out[1])
        elif item.kind == "check" and out is not None:
            row["bytes_out"] = len(out[1].encode("utf-8"))
        elif item.kind == "refute" and out is not None:
            row["predicates"] = out.predicates_checked
        if errors:
            row["errors"] = errors
        items.append(row)
    doc = {**meta, "items": items}
    if tracer is not None:
        doc["spans"] = tracer.spans
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")


def prepare(items) -> None:
    """Oracle-side facts about each input, computed once and outside every timing."""
    import inputs
    import reference_gen
    from structind import GenOptions, induction_principle, parse_decl
    from tracing import ast_nodes

    for item in items:
        if item.path:
            item.extra["bytes_in"] = os.path.getsize(item.path)
        if item.kind == "emit":
            name, params, ctors = item.decl
            reference = reference_gen.to_formula(reference_gen.generate(name, list(params), ctors))
            item.extra["reference"] = reference
            item.extra["formula_nodes"] = ast_nodes(reference)
            continue
        layers = inputs.layer_sizes(item.decl, item.depth, item.pointed)
        item.extra["layers"] = layers
        item.extra["universe"] = sum(layers)
        # A size only, so the program's own generator may supply it.
        principle = item.extra.get("principle") or induction_principle(
            parse_decl(inputs.decl_source(item.decl)), GenOptions(pointed=item.pointed)
        )
        item.extra["formula_nodes"] = ast_nodes(principle.formula)


# --- main ---------------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up, then exit (times setup_s)")
    args = ap.parse_args(argv)
    problem = _check_tree()
    if problem:
        return _fail(problem)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import structind

    if Path(structind.__file__).resolve().parent != ROOT / "src" / "structind":
        return _fail(f"imported structind from {structind.__file__}, not from {ROOT / 'src'}")

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        setup_s = time_setup(args.workload, args.seed) if not args.trace else 0.0
        items = setup(args.workload, args.seed, workdir)
        prepare(items)
        runner = Runner(workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer, patched

            untraced, done = run_passes(runner, items, args.seconds / 2)
            tracer = Tracer()
            with patched(tracer):
                start = time.perf_counter()
                traced, _ = run_passes(runner, items, 0, tracer, count=done)
                traced_wall = time.perf_counter() - start
            records = untraced + traced
        else:
            records, done = run_passes(runner, items, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = verify(records)
        if args.trace:
            metrics = per_layer(tracer, traced, untraced, traced_wall, failed / len(records))
        else:
            metrics = end_to_end(records, done, setup_s, peak_rss_mb)
        meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": done,
                "metrics": metrics}
        write_record(ROOT / ".perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                     meta, records, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
