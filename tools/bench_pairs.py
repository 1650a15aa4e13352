#!/usr/bin/env python3
"""Time the commit REV against this checkout in alternating benchmark pairs.

    tools/bench_pairs.py REV --workload W --seed S --pairs N [--seconds T]

REV is exported with ``git archive`` into a temporary directory, and
``python -m compileall -q src`` runs in both trees.  Each pair then runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each tree, each tree running its own perfbench: REV first in odd pairs,
this checkout first in even ones, so that a drift of the host's speed
within a pair favours neither side.

Standard output is one JSON object: per end-to-end metric, the quartiles
of each side, how many pairs the change (this checkout) won, the ratio of
the medians, the parent's quartile spread, the metric's bound from
``BENCHMARK.json`` and whether a claimed gain would be met
(``gain_rule_met``: the change won at least 9 in 10 pairs in the
metric's better direction, a tie winning for neither side, and its
median is better than the parent's by more than the parent's quartile
spread), plus each side's run counts and every run's values.
These are the figures a ``BENCH_*.json`` records.  Progress goes to
standard error.

Exits 0 when every run's output check passed, 1 when one failed, 2 when
REV cannot be exported.  Each run takes about ``T`` seconds, so a call
takes about ``2 * N * T`` seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its last line,
    the JSON summary, or a failed run's stand-in when there is none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stderr[-2000:], file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def summary(runs: dict[str, list[dict]], bounds: list[dict]) -> dict:
    pairs = len(runs["parent"])
    out: dict = {
        "pairs": pairs,
        "correct": {
            side: {
                "all_correct": all(r["correct"] for r in side_runs),
                "failed_runs": sum(r["failed"] for r in side_runs),
                "attempted_runs": sum(r["attempted"] for r in side_runs),
            }
            for side, side_runs in runs.items()
        },
        "end_to_end": {},
    }
    for metric in bounds:
        name = metric["name"]
        values = {
            side: [r["metrics"].get(name, {}).get("value") for r in side_runs]
            for side, side_runs in runs.items()
        }
        if None in values["parent"] or None in values["change"]:
            continue  # a failed run prints no metrics
        lower = metric["better"] == "lower"
        wins = sum(
            (after < before) if lower else (after > before)
            for before, after in zip(values["parent"], values["change"])
        )
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        ratio = change["median"] / parent["median"] if parent["median"] else float("nan")
        parent_iqr = parent["q3"] - parent["q1"]
        gain = change["median"] - parent["median"]  # > 0: the change is better
        if lower:
            gain = -gain
        out["end_to_end"][name] = {
            "parent": parent,
            "change": change,
            "change_wins": f"{wins}/{pairs}",
            "median_ratio": ratio,
            "parent_iqr": parent_iqr,
            "median_gap": abs(gain),
            "bound": metric["bound"],
            "within_bound": ratio <= 1 + metric["bound"] if lower
            else ratio >= 1 - metric["bound"],
            "gain_rule_met": 10 * wins >= 9 * pairs and gain > parent_iqr,
        }
    out["runs"] = {side: [r["metrics"] for r in side_runs] for side, side_runs in runs.items()}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)
    declared = json.loads((HERE / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]

    with tempfile.TemporaryDirectory() as work:
        parent_tree = Path(work)
        try:
            archive = subprocess.run(["git", "-C", str(HERE), "archive", args.rev],
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(parent_tree / "src"), str(HERE / "src")], check=True)
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {args.rev}: {exc}", file=sys.stderr)
            return 2
        trees = {"parent": parent_tree, "change": HERE}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = bench(trees[side], args.workload, args.seed, seconds)
                runs[side].append(result)
                p50 = result["metrics"].get("run_ms_p50", {}).get("value")
                print(f"pair {pair}/{args.pairs} {side}: correct {result['correct']}, "
                      f"run_ms_p50 {p50}", file=sys.stderr)

    out = {"rev": args.rev, "workload": args.workload, "seed": args.seed, "seconds": seconds}
    out.update(summary(runs, declared["end_to_end"]))
    print(json.dumps(out, indent=1))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
