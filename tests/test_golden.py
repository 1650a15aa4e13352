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

# Each of these runs pings a stored route that answers once: undefended
# activates the path, the defenses vet it again.  The golden runs above
# ping only dead routes.
ALIVE_PING_DIGESTS = {
    ("undefended", 0.0): "a871b57e3fc5731b5c2bdffe306540a3b11bede212aaf617931bb5a84b1e0b4a",
    ("undefended", 0.01): "9872d6088f1631bcc10c1dee7f35039c717586bcb52c35f23eb2da2954e70671",
    ("baseline", 0.0): "e15b2a856b6f09d67e28ed3d66e7579b59a88866cbfb709cc8b5401d8868380b",
    ("baseline", 0.01): "049fcd195c021cd615a16ec258167c00c44fe4111a3132476b08dcd9b1745d54",
    ("proposed", 0.0): "d086c6401e3eae8989b2ebd289a069478a11d85720f5adb85ab9b68b170c6453",
    ("proposed", 0.01): "4f0292790861ea98181c3c736cbc834d8dc4f398fc3d898d60505e5f4bd5029d",
}

# Without warm-up every count and flag table starts empty: the baseline
# refuses paths on its own empty table, the proposed scheme trusts on the
# neutral ratio of an empty entry.
NO_WARMUP_DIGESTS = {
    ("undefended", 0.0): "6823c99f5c1bed0c1e54afe2b1460fd55f8dca398f46fe7fee7d06e5f9002645",
    ("undefended", 0.03): "41e7230d8a89f722cbdaab87cdc7097d004d8980954d2216cee1242cdc4a4409",
    ("baseline", 0.0): "7837bd067b95cee4b3c992058acf36fedaba50fce709c816a7ac735201928f46",
    ("baseline", 0.03): "128850672f449f5fbc690da78c65e20ae4430869447b6fd4b653af5a5f51b655",
    ("proposed", 0.0): "774f1291652c3464e0a472d0539bb879affabb80f287deeebd0b5775d68300b9",
    ("proposed", 0.03): "7be1437e025826fc2a87cdfb700c72824ba43ff52febbcd5057f4ad27d5cfb12",
}

SWEEP_ARGS = [
    "sweep", "--max-blackholes", "3", "--seeds", "2", "--duration", "10",
    "--colluding_pairs", "1", "--link_loss", "0.02",
]
SWEEP_CSV_DIGEST = "7de16fec51e7717b9843cfc554100c1425043ca43ba35b337f361d4da24b3580"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _event_log_digest(**config) -> str:
    run = ScenarioRun(ScenarioConfig(**config).validate())
    run.sim.log_events = True
    run.execute()
    return _sha256(repr(run.sim.event_log).encode())


@pytest.mark.parametrize("scheme,loss", sorted(EVENT_LOG_DIGESTS))
def test_event_log_matches_stored_digest(scheme, loss):
    digest = _event_log_digest(
        blackholes=2, colluding_pairs=2, duration=15, seed=13,
        scheme=scheme, link_loss=loss,
    )
    assert digest == EVENT_LOG_DIGESTS[(scheme, loss)]


@pytest.mark.parametrize("scheme,loss", sorted(ALIVE_PING_DIGESTS))
def test_alive_ping_event_log_matches_stored_digest(scheme, loss):
    digest = _event_log_digest(
        nodes=20, flows=10, blackholes=2, colluding_pairs=1, duration=10, seed=10,
        scheme=scheme, link_loss=loss,
    )
    assert digest == ALIVE_PING_DIGESTS[(scheme, loss)]


@pytest.mark.parametrize("scheme,loss", sorted(NO_WARMUP_DIGESTS))
def test_no_warmup_event_log_matches_stored_digest(scheme, loss):
    digest = _event_log_digest(
        nodes=20, flows=10, blackholes=2, colluding_pairs=1, duration=10, seed=10,
        warmup_packets=0, scheme=scheme, link_loss=loss,
    )
    assert digest == NO_WARMUP_DIGESTS[(scheme, loss)]


def test_sweep_csv_matches_stored_digest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == SWEEP_CSV_DIGEST
