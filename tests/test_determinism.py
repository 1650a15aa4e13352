"""Determinism across processes: a fresh interpreter under another string
hash seed replays the stored event logs, so no output depends on the
iteration order of a set or dict keyed by strings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import EVENT_LOG_DIGESTS

TESTS = Path(__file__).resolve().parent
# the configs of test_golden.test_event_log_matches_stored_digest at loss 0.03
LOSSY_RUNS = sorted(key for key in EVENT_LOG_DIGESTS if key[1] == 0.03)
CHILD = """
from test_golden import _event_log_digest
for scheme, loss in {runs!r}:
    print(_event_log_digest(blackholes=2, colluding_pairs=2, duration=15, seed=13,
                            scheme=scheme, link_loss=loss))
"""


@pytest.mark.parametrize("hash_seed", ["0", "987654"])
def test_event_logs_match_stored_digests_under_another_hash_seed(hash_seed):
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(runs=LOSSY_RUNS)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert child.stdout.split() == [EVENT_LOG_DIGESTS[key] for key in LOSSY_RUNS]
