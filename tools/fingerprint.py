"""Print a behaviour fingerprint of relsim over a fixed grid of runs.

One line per config: the config key, the SHA-256 of ``repr(RunRecord)``
and the SHA-256 of ``repr(event_log)``.  A refactor that must not change
behaviour is checked by running this against both trees and diffing:

    PYTHONPATH=<parent>/src python tools/fingerprint.py > before.txt
    python tools/fingerprint.py > after.txt
    diff before.txt after.txt

Without ``PYTHONPATH`` the tool imports relsim from this checkout's
``src``; an explicit ``PYTHONPATH`` comes first on the path and wins.
The event log is recorded by setting ``sim.event_log`` to a list.

The two digests are separate columns, so a change that is meant to move
only the event log can be checked on the record column alone:

    diff <(cut -d' ' -f1,2 before.txt) <(cut -d' ' -f1,2 after.txt)

The grid is 3 schemes x 5 sizes x 3 link losses x warm-up on/off x
2 seeds = 180 configs of 10 simulated seconds, followed by a zero-jitter
family of 3 schemes x 5 sizes x 2 seeds = 30 configs at loss 0.02 with
``link_jitter_ms=0``.  Without jitter every probe of a warm-up round and
every copy of a unicast burst lands at one time, the densest case of
events tied on time in the queue.  The family comes after the grid, so
the first 180 lines keep their keys.  A config whose set-up fails (too
few eligible nodes for the adversaries) still prints the digest of its
failed record.  Line 211, ``csv <sha256>``, pins the bytes
``cli.write_csv`` writes for those 210 records with their summary rows,
so CSV formatting is covered as well as the records.

An overlap family of 3 schemes x 5 sizes x 2 seeds x 2 variants = 60
configs at loss 0.05 follows the ``csv`` line, so the first 211 lines
keep their keys and bytes: ``warmup_packets=250``, whose warm-up runs past
the first flow's start, so evidence is read while probes and
acknowledgements are in flight, and ``link_delay_ms=20``, whose floods
outlive the 200 ms discovery window.  The tool prints 271 lines.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from relsim import cli  # noqa: E402
from relsim.errors import SimulationError  # noqa: E402
from relsim.runner import ScenarioRun, run_scenario  # noqa: E402
from relsim.scenario import SCHEMES, ScenarioConfig  # noqa: E402

SIZES = (12, 20, 35, 50, 80)
LOSSES = (0.0, 0.02, 0.1)
WARMUPS = (10, 0)
SEEDS = (1, 7)
ZERO_JITTER_LOSS = 0.02
OVERLAP_LOSS = 0.05
OVERLAPS = {"warm250": {"warmup_packets": 250}, "delay20": {"link_delay_ms": 20.0}}
# the default 50-node area, scaled so that every size has the same density
DENSITY_NODES, DENSITY_SIDE = 50, 1000.0


def _config(scheme: str, nodes: int, seed: int, **overrides) -> ScenarioConfig:
    return ScenarioConfig(
        nodes=nodes,
        area_side=round(DENSITY_SIDE * math.sqrt(nodes / DENSITY_NODES), 1),
        flows=6,
        blackholes=2,
        colluding_pairs=2,
        scheme=scheme,
        duration=10.0,
        seed=seed,
        **overrides,
    ).validate()


def grid() -> list[tuple[str, ScenarioConfig]]:
    configs = []
    for scheme, nodes, loss, warmup, seed in itertools.product(
        SCHEMES, SIZES, LOSSES, WARMUPS, SEEDS
    ):
        key = f"{scheme}-n{nodes}-loss{loss:g}-warm{warmup}-seed{seed}"
        configs.append((key, _config(
            scheme, nodes, seed, warmup_packets=warmup, link_loss=loss,
        )))
    for scheme, nodes, seed in itertools.product(SCHEMES, SIZES, SEEDS):
        key = f"{scheme}-n{nodes}-loss{ZERO_JITTER_LOSS:g}-jitter0-seed{seed}"
        configs.append((key, _config(
            scheme, nodes, seed, link_loss=ZERO_JITTER_LOSS, link_jitter_ms=0.0,
        )))
    return configs


def overlap_grid() -> list[tuple[str, ScenarioConfig]]:
    return [
        (f"{scheme}-n{nodes}-loss{OVERLAP_LOSS:g}-{name}-seed{seed}", _config(
            scheme, nodes, seed, link_loss=OVERLAP_LOSS, **overrides,
        ))
        for scheme, nodes, seed, (name, overrides) in itertools.product(
            SCHEMES, SIZES, SEEDS, OVERLAPS.items()
        )
    ]


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fingerprint(cfg: ScenarioConfig):
    """The run's record and the digest of its event log."""
    log: list[tuple] = []
    try:
        run = ScenarioRun(cfg)
        run.sim.event_log = log
        record = run.execute()
    except SimulationError:
        record = run_scenario(cfg)
    return record, _sha(log)


def csv_digest(records) -> str:
    """SHA-256 of the CSV, summary rows included, written for ``records``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fingerprint.csv"
        cli.write_csv(records, path, summaries=cli.summary_rows(records))
        return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    records = []
    for key, cfg in grid():
        record, log_sha = fingerprint(cfg)
        records.append(record)
        print(key, _sha(record), log_sha)
    print("csv", csv_digest(records))
    for key, cfg in overlap_grid():
        record, log_sha = fingerprint(cfg)
        print(key, _sha(record), log_sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
