"""Benchmark workloads: scenario configs generated from a workload seed.

Each workload is a list of scenario configs (plain dicts of
``ScenarioConfig`` fields) that one pass runs in order, then summarises
with ``cli.summary_rows`` and writes with ``cli.write_csv``.  The workload
seed is folded onto one of ``VARIANTS`` variants, so that every seed has
a stored digest of its CSV bytes (see ``digests.json``); the same seed
always yields the same configs.

Why these workloads (the layer map in ``layers.py`` cites them):

- ``sweep-50``: the paper's grid at its defaults.  Many short runs, so
  the data plane, the per-run fixed cost and interpreter start-up
  dominate; discovery flooding, vetting and set-up are a few percent at
  most.  It is the "no change" workload for optimisations of those.
- ``scale-2000``: one 2000-node field at the sweep's density.  Quadratic
  set-up shows, warm-up queues ~300k probes at once, and every
  discovery floods ~30k deliveries.  20 flows over 3 s of simulated time
  keep one pass under 20 s, so that two passes fit in one timed run.
"""

from __future__ import annotations

import random

VARIANTS = 16
SCHEMES = ("undefended", "baseline", "proposed")

# (solo black holes, colluding pairs) of the paper's attack axis
SWEEP_POINTS = [(holes, 0) for holes in range(11)] + [(0, pairs) for pairs in range(1, 6)]

SCALE_2000 = dict(
    nodes=2000, area_side=5000.0, radio_range=250.0, flows=20,
    colluding_pairs=20, scheme="proposed", duration=3.0,
)


def _run_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 32)


def _sweep_50(rng: random.Random) -> list[dict]:
    seeds = [_run_seed(rng) for _ in SWEEP_POINTS]
    return [
        dict(scheme=scheme, blackholes=holes, colluding_pairs=pairs, seed=seed)
        for scheme in SCHEMES
        for (holes, pairs), seed in zip(SWEEP_POINTS, seeds)
    ]


def _scale_2000(rng: random.Random) -> list[dict]:
    return [dict(SCALE_2000, seed=_run_seed(rng))]


WORKLOADS = {
    "sweep-50": _sweep_50,
    "scale-2000": _scale_2000,
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def generate(workload: str, seed: int) -> list[dict]:
    """Scenario configs of ``workload`` for workload seed ``seed``."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{variant_of(seed)}")
    return WORKLOADS[workload](rng)
