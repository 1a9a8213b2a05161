#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload emit --pairs 10 --seed 8201 \\
        [--trace 0|1] [--json NAME]

Pair k runs `perfbench/run.py --seed SEED+k` once in each checkout, for
the `run_seconds` that BENCHMARK.json sets, the parent first in even pairs
and the change first in odd ones, so that a drift in the host's speed
falls on both sides alike. For each metric
(the end-to-end ones, or the per-layer ones with `--trace 1`) it prints
each side's median and quartiles, the pairs the change won (ties count
for neither side), and the change of the medians, relative to the
parent's and signed so that positive is worse, beside the metric's bound
in BENCHMARK.json. Failed items are counted per side. Before the first
pair, each checkout's sources are byte-compiled, so that neither side
pays for compiling in its runs: a copy with new mtimes has stale caches,
which every process would compile again when bytecode writing is off. `--json NAME`
also writes the summary to `.perfbench/NAME.json` in the current
directory. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated between
    closest ranks; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change's value is strictly better than the parent's."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def worse_by(parent: list[float], change: list[float], better: str) -> float | None:
    """How much worse the change's median is, relative to the parent's; a
    negative value is a gain, and None means the parent's median is 0."""
    p, c = statistics.median(parent), statistics.median(change)
    if p == 0:
        return None
    rel = (c - p) / abs(p)
    return -rel if better == "higher" else rel


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per metric, each side's quartiles, the change's wins and its relative
    change; `runs` holds each side's run results, pair by pair."""
    out = {}
    for m in metrics:
        name, better = m["name"], m["better"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        if not all(values.values()):
            continue
        out[name] = {
            "better": better,
            "bound": m.get("bound"),
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "wins": wins(values["parent"], values["change"], better),
            "pairs": len(values["parent"]),
            "worse_by": worse_by(values["parent"], values["change"], better),
        }
    return out


def byte_compile(checkout: Path) -> None:
    """Write fresh bytecode for the sources that `perfbench/run.py` imports."""
    dirs = [d for d in ("src", "perfbench", "tests") if (checkout / d).is_dir()]
    argv = [sys.executable, "-m", "compileall", "-q", *dirs]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {checkout} failed:\n{done.stdout}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {checkout} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", metavar="NAME", help="also write .perfbench/NAME.json")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    byte_compile(args.parent)
    byte_compile(args.change)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, seed, seconds, args.trace))
        print(f"pair {k + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    summary = summarize(metrics, runs)
    failed = {side: [r["failed"] for r in rs] for side, rs in runs.items()}
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{seconds:g} s per run; failed items parent {failed['parent']}, "
          f"change {failed['change']}")
    print(f"{'metric':36} {'parent median [q1-q3]':30} {'change median [q1-q3]':30} "
          "wins   worse by (bound)")
    for name, s in summary.items():
        (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
        worse = "n/a" if s["worse_by"] is None else f"{s['worse_by']:+.1%}"
        bound = "" if s["bound"] is None else f" ({s['bound']:.0%})"
        print(f"{name:36} {_fmt(p2):>9} [{_fmt(p1)}-{_fmt(p3)}]".ljust(67)
              + f" {_fmt(c2):>9} [{_fmt(c1)}-{_fmt(c3)}]".ljust(31)
              + f" {s['wins']:>2}/{s['pairs']}  {worse}{bound}")
    if args.json:
        out = Path(".perfbench") / f"{args.json}.json"
        out.parent.mkdir(exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                  "seconds": seconds, "trace": args.trace, "failed": failed, "metrics": summary}
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
