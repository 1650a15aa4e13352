"""Stored digests of the simulator's output: any change to the event order,
an RNG draw or the CSV formatting shows up here.

The sweep CSV digest was recorded from the code as it stood before the
packet plumbing was refactored.  Change one only as a deliberate, named
re-baseline, never as a side effect.

Re-baseline of the 18 event-log digests: warm-up became one app event per
probe round, and a route request copy is no longer queued for a neighbor
that has already seen the request.  Only the event log moved; every
``RunRecord`` and the sweep CSV digest stayed the same.
"""

from __future__ import annotations

import hashlib

import pytest

from relsim.cli import main
from relsim.runner import ScenarioRun
from relsim.scenario import ScenarioConfig

EVENT_LOG_DIGESTS = {
    ("undefended", 0.0): "a5245d5922895592712f1a6849cb214a0c0183bb5072aa84ac78a3a6dbb60570",
    ("undefended", 0.03): "1b0e67978fec3314e824f34a59993dfbe831121434154ff71d242740d80e836d",
    ("baseline", 0.0): "b634682748c3074570fdc24190af51d4c8040e5eb080f70b601d252551f4406d",
    ("baseline", 0.03): "34081cca7ac232ff1699f9878b8dabc77531adc70c176b72b2c15149db32ddf5",
    ("proposed", 0.0): "7cec7e3b93870ebe18c989f63453c8a5994441cd91a0cf19fe88bd87f2ff1b16",
    ("proposed", 0.03): "0a5a83e192b6e3187a5cda92c1e7c7562358290420d6b3f7786fc2c906a8e070",
}

# Each of these runs pings a stored route that answers once: undefended
# activates the path, the defenses vet it again.  The golden runs above
# ping only dead routes.
ALIVE_PING_DIGESTS = {
    ("undefended", 0.0): "af77f2939c3b77f12aa8e364327adcaabd9d84a546695e0b2ce548cbdf0d5457",
    ("undefended", 0.01): "6df0f75928cc945389507a0d336bf7661802a990d0d82f0c0fcdcc9471d528c0",
    ("baseline", 0.0): "6736545f13d2edb4eb1ae182658caf66e80cbe6c36b87501882ea80063ac16f2",
    ("baseline", 0.01): "dda3cf6d228762242d2602ddfbd57a4a0b062ef45b3a8e54a941f6f9e11c9bc4",
    ("proposed", 0.0): "6f5c77c85534aa36892971a97da4b18d0a7d190166cb8b10277ebc0a8fd45d7e",
    ("proposed", 0.01): "ca3f90ff8eb66675a9be2740f31ea5a2207f3b109c27f6b4127522e319037c3b",
}

# Without warm-up every count and flag table starts empty: the baseline
# refuses paths on its own empty table, the proposed scheme trusts on the
# neutral ratio of an empty entry.
NO_WARMUP_DIGESTS = {
    ("undefended", 0.0): "baedb08951021cb5c796f43f3d1dad0b6cc8185b44b416c237c88a7cadcc0b0d",
    ("undefended", 0.03): "21c2addbea7122f3d061dd6223ab2770b351b90ea7780dee5fd6c2c10d700ab7",
    ("baseline", 0.0): "2c3498e75dfa8c02d604e7b9742434051b54a5d6b4163403425defaa40357481",
    ("baseline", 0.03): "7996851a985274c92e8dd6097a4a4a90557517b67f638cddabde2c4d25d2cf4d",
    ("proposed", 0.0): "2479c4c831140c8bbab96f324e42244a27409a6935279e7f29b3342ba78ea561",
    ("proposed", 0.03): "e6ff21f241c4db373fe1c362e406f7a8f779d4a9fb4bd4c54f01d348862ca302",
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
    run.sim.event_log = []
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
