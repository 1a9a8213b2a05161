"""The arithmetic of scripts/bench_pairs.py on fixed numbers, and its
byte-compiling of both checkouts before the first pair."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_closest_ranks():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_count_strict_gains_only():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [11.0, 10.0, 9.0, 12.0]
    assert bench_pairs.wins(parent, change, "higher") == 2
    assert bench_pairs.wins(parent, change, "lower") == 1  # the tie counts for neither


def test_worse_by_is_signed_by_the_better_direction():
    assert bench_pairs.worse_by([100.0, 200.0], [110.0, 220.0], "higher") == pytest.approx(-0.1)
    assert bench_pairs.worse_by([100.0, 200.0], [110.0, 220.0], "lower") == pytest.approx(0.1)
    assert bench_pairs.worse_by([0.0], [1.0], "lower") is None


def test_summary_per_metric():
    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.25}]
    runs = {
        side: [{"metrics": {"items_per_s": {"value": v}}} for v in values]
        for side, values in (("parent", [100.0, 90.0, 110.0]), ("change", [120.0, 95.0, 105.0]))
    }
    s = bench_pairs.summarize(metrics, runs)["items_per_s"]
    assert s["parent"] == (95.0, 100.0, 105.0) and s["change"] == (100.0, 105.0, 112.5)
    assert s["wins"] == 2 and s["pairs"] == 3 and s["bound"] == 0.25
    assert s["worse_by"] == pytest.approx(-0.05)


def _pyc_mtime(source: Path) -> int:
    """The source mtime recorded in the source's bytecode cache."""
    header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
    return int.from_bytes(header[8:12], "little")


def test_byte_compile_renews_stale_bytecode(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    sources = [tmp_path / "src" / "pkg" / "mod.py", tmp_path / "perfbench" / "run.py"]
    for source in sources:
        source.parent.mkdir(parents=True)
        source.write_text("X = 1\n")
        os.utime(source, (1_000_000_000, 1_000_000_000))
    bench_pairs.byte_compile(tmp_path)
    assert [_pyc_mtime(s) for s in sources] == [1_000_000_000] * 2
    os.utime(sources[0], (1_500_000_000, 1_500_000_000))  # a copy with a new mtime
    bench_pairs.byte_compile(tmp_path)
    assert [_pyc_mtime(s) for s in sources] == [1_500_000_000, 1_000_000_000]


def test_both_checkouts_are_compiled_before_the_first_pair(tmp_path, monkeypatch):
    events = []
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
    (sides["change"] / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "end_to_end": [{"name": "items_per_s", "better": "higher"}]})
    )

    def run_once(checkout, workload, seed, seconds, trace):
        events.append(("run", checkout.name))
        return {"failed": 0, "metrics": {"items_per_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "byte_compile", lambda c: events.append(("compile", c.name)))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(sides["parent"]), str(sides["change"]), "--workload", "emit", "--pairs", "2"]
    assert bench_pairs.main([*argv, "--seed", "1"]) == 0
    assert events == [("compile", "parent"), ("compile", "change"), ("run", "parent"),
                      ("run", "change"), ("run", "change"), ("run", "parent")]
