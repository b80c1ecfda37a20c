import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "trail.py"
_SPEC = importlib.util.spec_from_file_location("trail", _PATH)
trail = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trail)


def test_summary_of_paired_samples():
    parent = [1.0, 2.0, 4.0, 3.0, 5.0]
    change = [0.5, 2.0, 2.0, 3.3, 4.0]
    summary = trail.summarize(parent, change)
    # sorted parent 1 2 3 4 5: median 3, inclusive quartiles at positions 1 and 3 of 0..4
    assert summary["parent"] == {"samples": parent, "median": 3.0, "q1": 2.0, "q3": 4.0}
    # sorted change 0.5 2 2 3.3 4
    assert summary["change"] == {"samples": change, "median": 2.0, "q1": 2.0, "q3": 3.3}
    assert summary["ratios"] == [0.5, 1.0, 0.5, pytest.approx(1.1), 0.8]
    assert summary["median_ratio"] == 0.8
    assert summary["change_wins"] == 3  # the tie at 2.0 wins for neither side
    assert summary["pairs"] == 5


def test_summary_where_higher_is_better_and_a_parent_sample_is_zero():
    summary = trail.summarize([0.0, 1.0, 1.0], [1.0, 1.0, 0.5], higher_is_better=True)
    assert summary["ratios"] == [None, 1.0, 0.5]
    assert summary["median_ratio"] == 0.75
    assert summary["change_wins"] == 1


def test_summary_needs_two_pairs():
    with pytest.raises(ValueError):
        trail.summarize([1.0], [1.0])
    with pytest.raises(ValueError):
        trail.summarize([1.0, 2.0], [1.0])


def test_workloads_and_metric_directions_are_the_benchmark_s():
    benchmark = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    assert trail.WORKLOADS == tuple(workload["name"] for workload in benchmark["workloads"])
    assert trail.RUN_SECONDS == benchmark["run_seconds"]
    directions = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    assert set(directions.values()) == {"lower", "higher"}
    assert trail.HIGHER_IS_BETTER == {name for name, better in directions.items() if better == "higher"}
