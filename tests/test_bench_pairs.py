"""The arithmetic of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
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
