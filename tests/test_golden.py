"""Stored digests of the simulator's output: any change to the event order,
an RNG draw or the CSV formatting shows up here.

The digests were recorded from the code as it stood before the packet
plumbing was refactored.  Change one only as a deliberate, named
re-baseline, never as a side effect.
"""

from __future__ import annotations

import hashlib

import pytest

from relsim.cli import main
from relsim.runner import ScenarioRun
from relsim.scenario import ScenarioConfig

EVENT_LOG_DIGESTS = {
    ("undefended", 0.0): "e2cd410d77eff47a8c59086835f6b7d04e361bb94e0a8bc04f0c12f7ad747c21",
    ("undefended", 0.03): "812dc717707d701f8ad3e8d49f8ec440173cfd723e9976006d2776cfa76f6ebb",
    ("baseline", 0.0): "2a78955e71d5734690c44f56a8d72416707f314447028a15b8c71dce28f2c39f",
    ("baseline", 0.03): "ac920368a4d3158325020bac45cf063705bcafc8061137f8a4b3e683ad732c37",
    ("proposed", 0.0): "da3c6feaec444104b069dc78e4c81708945fa88e31e2f83662a1c16aabba59af",
    ("proposed", 0.03): "2c15b09233bd717ed8ce250dbae07943800750e0963f262ec5520ea63352821e",
}

SWEEP_ARGS = [
    "sweep", "--max-blackholes", "3", "--seeds", "2", "--duration", "10",
    "--colluding_pairs", "1", "--link_loss", "0.02",
]
SWEEP_CSV_DIGEST = "7de16fec51e7717b9843cfc554100c1425043ca43ba35b337f361d4da24b3580"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scheme,loss", sorted(EVENT_LOG_DIGESTS))
def test_event_log_matches_stored_digest(scheme, loss):
    cfg = ScenarioConfig(
        blackholes=2, colluding_pairs=2, duration=15, seed=13,
        scheme=scheme, link_loss=loss,
    ).validate()
    run = ScenarioRun(cfg)
    run.sim.log_events = True
    run.execute()
    assert _sha256(repr(run.sim.event_log).encode()) == EVENT_LOG_DIGESTS[(scheme, loss)]


def test_sweep_csv_matches_stored_digest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == SWEEP_CSV_DIGEST
