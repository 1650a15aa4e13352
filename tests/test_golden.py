"""Stored digests of the simulator's output: any change to the event order,
an RNG draw or the CSV formatting shows up here.

The sweep CSV digest was recorded from the code as it stood before the
packet plumbing was refactored.  Change one only as a deliberate, named
re-baseline, never as a side effect.

Re-baselines of the 18 event-log digests, each moving only the event log
(every ``RunRecord`` and the sweep CSV digest stayed the same):

- warm-up became one app event per probe round, and a route request copy
  is no longer queued for a neighbor that has already seen the request;
- a route request queues at most one copy per node, and an ACK is no
  longer queued when its prober already holds the flag it would set.
"""

from __future__ import annotations

import hashlib

import pytest

from relsim.cli import main
from relsim.runner import ScenarioRun
from relsim.scenario import ScenarioConfig

EVENT_LOG_DIGESTS = {
    ("undefended", 0.0): "d10687b538edf0db447d8b7e69269558981ee71f6d7bae291f80740089e19b80",
    ("undefended", 0.03): "f751277a11bd969f34818c4a9b978bd63de521fdf1fedf0941cc25e823f64f1f",
    ("baseline", 0.0): "194365cfeb0f498b1432fad592b35fdac677d0e65211ac610a3b5da4382c5bed",
    ("baseline", 0.03): "5725bb7c5cbdb4bc995b5edb649371dbe8c7d6785a2217832cd59c17f253eed1",
    ("proposed", 0.0): "5f7c080343463347d50d16e62d1560309b0885615c968ef9930dcd81590180f1",
    ("proposed", 0.03): "051e7d75e58766b696b167df767a7c9eff4cfa24deb101a3d5957239a1f62a0b",
}

# Each of these runs pings a stored route that answers once: undefended
# activates the path, the defenses vet it again.  The golden runs above
# ping only dead routes.
ALIVE_PING_DIGESTS = {
    ("undefended", 0.0): "44cd34ecb6411bc87eb71c37db5643bb3b27bed0305979ff79aa9d00d9e73ef9",
    ("undefended", 0.01): "a863350c9025e5ce7bf952121935ea68877e5d9ea2d1d3aa62c4027b89757b6d",
    ("baseline", 0.0): "4efff48d04301fa001d7117880019847415a1f10b13a01e5a67f967e07f508d3",
    ("baseline", 0.01): "18c1ef0317c5d25eab89587d748247fcb61a7c63daeac7044c5d015177a91f74",
    ("proposed", 0.0): "91e1d1f54643d15e30a729ba82c5026314631ec125bcb3d6d8d26a425ff9e7fe",
    ("proposed", 0.01): "4efb254c7cdcf92633b63e2d4f46e47587a4bd63996a6e0ddeb5dbdf9ff6ca38",
}

# Without warm-up every count and flag table starts empty: the baseline
# refuses paths on its own empty table, the proposed scheme trusts on the
# neutral ratio of an empty entry.
NO_WARMUP_DIGESTS = {
    ("undefended", 0.0): "cd6d848d106ef6a1e2eb11c84a08a43b245f7b87468747a1fe8fe2e9803751f3",
    ("undefended", 0.03): "2ebea53d71a9d29f22d4551b5338114c368037b6a1af0babc8906406f6f76f7c",
    ("baseline", 0.0): "2d84045280cf9d90bb60dbff8317ac2d2448d2d8b2e414d84f24e41cc500d013",
    ("baseline", 0.03): "a13fdb318fc3be05e1b767dcc0d7069db5c784674e3111d068d91aa4a1e31a09",
    ("proposed", 0.0): "9aa54a510fab0aadc9f271a7df606995013e3f3606a1cfa1d720d735b2fb2a8a",
    ("proposed", 0.03): "f101f84e97f648af5df16391926e71a3a2823bd512e7ebac77f5e1d8aceee770",
}

# ``RunRecord`` digests, not event logs, of runs whose warm-up (250 rounds)
# lasts past the first flow's start, so the defenses read evidence while
# probes and acknowledgements are still in flight; at 20 ms hops a flood
# also outlives its 200 ms discovery window.  Keyed by (scheme, loss,
# link delay in ms).
OVERLAP_RECORD_DIGESTS = {
    ("baseline", 0.0, 2.0): "e87ae26130422bebe3fe743562fddabe48dcdd695808e785198a6b7ddb5ba306",
    ("baseline", 0.05, 2.0): "fd7f81271d20aa6124dc18cfca68f32c969a27cdec10b19f6705fdb8e9350aea",
    ("proposed", 0.0, 2.0): "2933551a37adb231c4bcab78b04b5a7c78fd5396ddc2a509173c9e5ddf609e50",
    ("proposed", 0.05, 2.0): "bb5ea502a5bc2075d00765fad60fd934c3be4665ae2ae23a328ea11f3b6f0b43",
    ("baseline", 0.0, 20.0): "eecb056c48dca426269e99f5df83f2a3e77da85d320b56e99325734cac802261",
    ("baseline", 0.05, 20.0): "a8afbdced286dd848b7253ec4b41c4e3a1c4381632390a4bd63940c8484099ad",
    ("proposed", 0.0, 20.0): "4ee2ae982ee2f8d64ad22aeaa7ef1d72d89f97096a808f216134589c05dac24e",
    ("proposed", 0.05, 20.0): "0db3f71b3eefe6dffb8ed7d3046c5f0304f3972419b4fb0998e25132dd37434e",
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


@pytest.mark.parametrize("scheme,loss,delay_ms", sorted(OVERLAP_RECORD_DIGESTS))
def test_overlapping_warmup_record_matches_stored_digest(scheme, loss, delay_ms):
    cfg = ScenarioConfig(
        nodes=20, flows=10, blackholes=2, colluding_pairs=1, duration=10, seed=10,
        warmup_packets=250, link_delay_ms=delay_ms, scheme=scheme, link_loss=loss,
    ).validate()
    record = ScenarioRun(cfg).execute()
    assert _sha256(repr(record).encode()) == OVERLAP_RECORD_DIGESTS[(scheme, loss, delay_ms)]


def test_sweep_csv_matches_stored_digest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == SWEEP_CSV_DIGEST
