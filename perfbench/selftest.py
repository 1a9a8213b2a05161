#!/usr/bin/env python3
"""Self-test of the benchmark; run it from a structind source tree:

    python3 perfbench/selftest.py

It checks that a short run of every workload prints exactly the metrics
BENCHMARK.json names, with their units, and fails no item; that an output
corrupted on purpose, or an item that raises, is counted as failed; that
the traced run's span self times account for its wall time; and that the
benchmark refuses to run without the library next to it. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import run  # noqa: E402  (needs the paths above)


def check(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        sys.exit(1)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def short_runs(spec: dict) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
            check(proc.returncode == 0, f"{workload} trace {trace}: exit code 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{workload}: result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], f"{workload} trace {trace}: every named metric, with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: {result['attempted']} items, none failed")
            if trace:
                metrics = result["metrics"]
                check(metrics["failed_share"]["value"] == 0, f"{workload}: failed_share is 0")
                accounted = metrics["trace.accounted_share"]["value"]
                check(0.95 <= accounted <= 1.0 + 1e-9,
                      f"{workload}: layer and benchmark self times cover {accounted:.4f} of traced wall time")


def one_item(workload: str, workdir: Path):
    items = run.setup(workload, 7, workdir)
    run.prepare(items)
    item = items[0]
    runner = run.Runner(workdir)
    return item, runner.keep(item, runner.call(item))


def corrupted_outputs() -> None:
    workdir = ROOT / ".perfbench" / "selftest"
    try:
        item, out = one_item("emit", workdir)
        rcs, texts, readback, same = out
        check(run.verify([run.Record(item, 0, 0.0, out)]) == 0, "emit: a good output passes")
        bad_latex = texts[1].replace("\\Rightarrow", "\\wedge", 1)
        check(run.verify([run.Record(item, 0, 0.0, (rcs, (texts[0], bad_latex, texts[2]), readback, same))]) == 1,
              "emit: a corrupted LaTeX output is a failure")
        bad_text = texts[0].replace("∀", "∃", 1)
        check(run.verify([run.Record(item, 0, 0.0, (rcs, (bad_text, texts[1], texts[2]), readback, same))]) == 1,
              "emit: a corrupted text output is a failure")

        for workload in ("prove", "universe"):
            item, (rc, text) = one_item(workload, workdir)
            check(run.verify([run.Record(item, 0, 0.0, (rc, text))]) == 0, f"{workload}: a good output passes")
            n = item.extra["universe"]
            wrong = text.replace(f"(universe {n},", f"(universe {n + 1},")
            check(run.verify([run.Record(item, 0, 0.0, (rc, wrong))]) == 1,
                  f"{workload}: a wrong universe size is a failure")

        item, report = one_item("refute", workdir)
        check(run.verify([run.Record(item, 0, 0.0, report)]) == 0, "refute: a good witness passes")
        predicate, missed = report.counterexample
        inflated = dataclasses.replace(report, counterexample=(predicate + (missed,), missed))
        check(run.verify([run.Record(item, 0, 0.0, inflated)]) == 1,
              "refute: a missed term inside the predicate is a failure")
        if predicate:
            shrunk = dataclasses.replace(report, counterexample=(predicate[1:], missed))
            check(run.verify([run.Record(item, 0, 0.0, shrunk)]) == 1,
                  "refute: a predicate not closed under the clauses is a failure")

        broken = dataclasses.replace(item, extra={**item.extra, "principle": None})
        records, _ = run.run_passes(run.Runner(workdir), [broken, item], 0, count=1)
        check(len(records) == 2 and records[0].error is not None and records[1].error is None,
              "an item that raises is recorded and the run goes on")
        check(run.verify(records) == 1, "an item that raises counts as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def refuses_without_library() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "emit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(), "without src/ and tests/ it exits non-zero, printing no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def known_defects() -> None:
    """Defects the benchmark's inputs steer around; each line says whether it is still there."""
    import latex_reader
    from structind import induction_principle, parse_decl, render_latex

    formula = induction_principle(parse_decl("data Box = Box Box")).formula
    fixed = latex_reader.parse_latex(render_latex(formula)) == formula
    print(f"note {'fixed' if fixed else 'still present'}: a one-constructor type with arguments renders "
          "with an unparenthesized clause quantifier (emit keeps such constructors nullary)")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json names every workload")
    corrupted_outputs()
    refuses_without_library()
    short_runs(spec)
    known_defects()
    print("selftest passed")


if __name__ == "__main__":
    main()
