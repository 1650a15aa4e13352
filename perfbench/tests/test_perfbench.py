"""Checks of the benchmark itself: inputs, output digests, tracing."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import VARIANTS, WORKLOADS, generate  # noqa: E402

SMALL = [
    dict(nodes=20, area_side=600.0, flows=3, duration=4.0, colluding_pairs=1,
         link_loss=0.05, scheme=scheme, seed=11)
    for scheme in ("undefended", "baseline", "proposed")
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generation_is_deterministic(name):
    assert generate(name, 3) == generate(name, 3)
    assert generate(name, 3) == generate(name, 3 + VARIANTS)
    assert generate(name, 3) != generate(name, 4)


def _pass(tmp_path: Path, configs: list[dict], traced: bool) -> tuple[bytes, dict]:
    tag = "traced" if traced else "plain"
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(configs))
    csv_path, result_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
    argv = [str(inputs), str(csv_path), str(result_path)] + (["--trace"] if traced else [])
    assert worker.main(argv) == 0
    return csv_path.read_bytes(), json.loads(result_path.read_text())


def test_perturbed_csv_row_trips_the_digest_check(tmp_path):
    data, result = _pass(tmp_path, SMALL, traced=False)
    expected = hashlib.sha256(data).hexdigest()
    # pytest may import relsim from elsewhere than ./src; pin the origin
    result.update(ok=True, mode="run", digest=expected, relsim=str(run.SRC.resolve()))
    assert run.check_pass(result, expected, len(SMALL)) == (0, None)

    lines = data.decode().splitlines(keepends=True)
    row = lines[1].rstrip("\n")
    lines[1] = row[:-1] + ("1" if row[-1] != "1" else "2") + "\n"
    result["digest"] = hashlib.sha256("".join(lines).encode()).hexdigest()
    failed, problem = run.check_pass(result, expected, len(SMALL))
    assert failed == len(SMALL)
    assert "sha256" in problem

    result.update(digest=expected, relsim="/elsewhere")
    assert run.check_pass(result, expected, len(SMALL))[0] == len(SMALL)


def test_traced_pass_writes_the_same_bytes(tmp_path):
    from relsim.engine import Simulator

    original_run = Simulator.run
    plain, _ = _pass(tmp_path, SMALL, traced=False)
    traced, result = _pass(tmp_path, SMALL, traced=True)
    assert traced == plain
    assert Simulator.run is original_run  # wrappers are removed again
    spans = result["trace"]["spans"]
    # one call per step; the first flow starts on a step boundary at 4 s
    assert spans["engine.Simulator.run"][0] == worker.CHUNKS * len(SMALL)
    assert spans["node.Node.on_packet"][0] > 0
    assert result["warmup_s"] > 0 and result["traffic_s"] > 0


def test_stepped_pass_writes_the_bytes_of_one_run_call(tmp_path):
    from relsim import cli, runner
    from relsim.scenario import ScenarioConfig

    stepped, result = _pass(tmp_path, SMALL, traced=False)
    records = [runner.run_scenario(ScenarioConfig(**d).validate()) for d in SMALL]
    plain = tmp_path / "plain-direct.csv"
    cli.write_csv(records, plain, summaries=cli.summary_rows(records))
    assert stepped == plain.read_bytes()
    assert len(result["reference_s"]) >= 2 and result["paused_s"] > 0


def test_timings_scale_with_the_reference_slices():
    ref = run.REFERENCE_S
    slow = {"parent_reference_s": [2 * ref], "reference_s": [2 * ref, 9 * ref]}
    assert run.scale(slow) == pytest.approx(0.5)  # the median ignores the preempted slice
    slowing = {"parent_reference_s": [ref], "reference_s": [ref, ref] + [4 * ref] * 3}
    assert run.scale(slowing) == pytest.approx(0.4)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in LAYERS
    ]


def test_every_variant_has_a_stored_digest():
    stored = json.loads(run.DIGESTS.read_text())["sha256"]
    for name in WORKLOADS:
        assert sorted(stored[name], key=int) == [str(v) for v in range(VARIANTS)]
