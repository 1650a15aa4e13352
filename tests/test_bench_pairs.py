"""``tools/bench_pairs.py``'s summary of alternating benchmark pairs, on
synthetic runs: the gain rule a claimed speedup must meet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = [
    {"name": "run_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "ratio", "better": "higher", "bound": 0.25},
]


def _run(**values) -> dict:
    return {"correct": True, "failed": 0, "attempted": 3,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def _summary(parent: dict[str, list[float]], change: dict[str, list[float]]) -> dict:
    pairs = len(next(iter(parent.values())))
    runs = {
        side: [_run(**{name: vs[i] for name, vs in values.items()}) for i in range(pairs)]
        for side, values in (("parent", parent), ("change", change))
    }
    return bench_pairs.summary(runs, [b for b in BOUNDS if b["name"] in parent])["end_to_end"]


def test_gain_rule_met_by_nine_wins_and_a_gap_past_the_parent_spread():
    parent = [100.0, 101.0, 102.0, 99.0, 100.0, 98.0, 101.0, 100.0, 99.0, 100.0]
    change = [90.0, 91.0, 89.0, 90.0, 92.0, 88.0, 90.0, 91.0, 90.0, 105.0]
    out = _summary({"run_ms_p50": parent}, {"run_ms_p50": change})["run_ms_p50"]
    assert out["change_wins"] == "9/10"
    assert out["median_gap"] > out["parent_iqr"]
    assert out["gain_rule_met"]


def test_a_tie_wins_for_neither_side():
    """Eight wins and two ties of ten miss the rule, which two more wins
    would have met."""
    parent = [100.0, 101.0, 102.0, 99.0, 100.0, 98.0, 101.0, 100.0, 99.0, 100.0]
    change = [90.0, 91.0, 89.0, 90.0, 92.0, 88.0, 90.0, 91.0, 99.0, 100.0]
    out = _summary({"run_ms_p50": parent}, {"run_ms_p50": change})["run_ms_p50"]
    assert out["change_wins"] == "8/10"
    assert out["median_gap"] > out["parent_iqr"]
    assert not out["gain_rule_met"]


def test_a_gap_inside_the_parent_spread_misses_the_rule():
    parent = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0, 112.0, 88.0, 104.0, 96.0]
    change = [p - 1.0 for p in parent]
    out = _summary({"run_ms_p50": parent}, {"run_ms_p50": change})["run_ms_p50"]
    assert out["change_wins"] == "10/10"
    assert not out["gain_rule_met"]


def test_a_metric_where_lower_is_worse_gains_only_by_rising():
    """For a higher-is-better metric, a change that lowers every value
    wins no pair, however far it moves; raising every value meets the
    rule."""
    parent = [0.50, 0.51, 0.49, 0.50, 0.50, 0.52, 0.48, 0.50, 0.51, 0.49]
    lowered = [p - 0.2 for p in parent]
    raised = [p + 0.2 for p in parent]
    down = _summary({"ratio": parent}, {"ratio": lowered})["ratio"]
    assert down["change_wins"] == "0/10"
    assert down["median_gap"] > down["parent_iqr"]
    assert not down["gain_rule_met"]
    up = _summary({"ratio": parent}, {"ratio": raised})["ratio"]
    assert up["change_wins"] == "10/10"
    assert up["gain_rule_met"]
