"""Shared fixture builders: line topologies with optional black holes."""

from __future__ import annotations

import pytest

from relsim.adversary import ROLE_TABLE, AdversaryProfile, honest_profiles
from relsim.defense import VettingResult
from relsim.engine import EventKind, Simulator
from relsim.packets import Packet
from relsim.scenario import SCHEME_TABLE, ScenarioConfig
from relsim.topology import topology_from_positions

PROBE_SPACING_US = 5_000


def blackhole(**kwargs) -> AdversaryProfile:
    return AdversaryProfile("blackhole", **kwargs)


def is_hole(sim: Simulator, node_id: int) -> bool:
    """Whether node ``node_id``'s role is a hole."""
    return ROLE_TABLE[sim.nodes[node_id].profile.role].hole


def line_sim(
    n: int,
    roles: dict[int, AdversaryProfile] | None = None,
    seed: int = 7,
    **overrides,
) -> Simulator:
    """Chain topology 0-1-...-(n-1) with 100 m spacing at exactly range,
    run under ``ScenarioConfig(seed=seed, **overrides)``."""
    positions = [(i * 100.0, 0.0) for i in range(n)]
    topo = topology_from_positions(positions, 100.0)
    profiles = honest_profiles(n)
    for idx, profile in (roles or {}).items():
        profiles[idx] = profile
    return Simulator(topo, profiles, ScenarioConfig(seed=seed, **overrides))


def queued(sim: Simulator) -> list[tuple[int, int, int, object]]:
    """The pending events as ``(time_us, kind, node_id, payload)``, in
    dispatch order, without consuming any."""
    return [
        (time_us, kind, node_id, payload)
        for time_us in sorted(sim._times)
        for kind, node_id, payload in sim._buckets[time_us]
    ]


def probe_record(sim: Simulator, sender: int, receiver: int) -> tuple:
    """The ``Simulator.probe_round`` record of the directed edge
    ``sender -> receiver``, as ``runner.schedule_warmup`` builds it: the
    sender node, the receiver, the sender's ``dri[receiver]`` and the
    receiver's ``dri[sender]``, or ``None`` at a black hole, which makes no
    entry."""
    node = sim.nodes[sender]
    receiver_entry = None if is_hole(sim, receiver) else sim.nodes[receiver].dri[sender]
    return (node, receiver, node.dri[receiver], receiver_entry)


def warm_up(sim: Simulator, packets: int = 10) -> None:
    """Exchange probe data both ways on every edge; black holes stay mute."""

    def app(payload):
        _, sender, receiver = payload
        sim.probe_round([probe_record(sim, sender, receiver)])

    previous = sim._app_handler
    sim.set_app_handler(app)
    for u, v in sim.topology.edges():
        for sender, receiver in ((u, v), (v, u)):
            if is_hole(sim, sender):
                continue
            for j in range(packets):
                sim.schedule_at(
                    sim.now_us + j * PROBE_SPACING_US, EventKind.APP, sender,
                    ("probe", sender, receiver),
                )
    sim.run()
    sim.set_app_handler(previous)


def vet(sim: Simulator, scheme: str, source: int, path) -> VettingResult:
    """Vet ``path`` from ``source`` with ``scheme``'s vetter on the live
    simulator, drain the queue and return the result; timers the vetting
    left behind (its deadline) fire, and find the conversation closed."""
    done: list[VettingResult] = []
    SCHEME_TABLE[scheme].vetter()(sim.nodes[source], tuple(path), done.append)
    sim.run()
    return done[0]


def replaying_first_reply(handle, before: int | None, drop_first: bool):
    """A stand-in for the reply handler ``handle`` and the list of replies
    it has been handed at their asker.  It withholds the first reply when
    ``drop_first``, and hands ``handle`` that first reply again just before
    reply number ``before``, asserting that the replay queues no event and
    sends no vetting message.  Replies on a relay leg pass straight on."""
    replies: list[Packet] = []

    def intercept(node, pkt):
        if pkt.pos > 0:
            handle(node, pkt)
            return
        replies.append(pkt)
        if len(replies) == before:
            sim = node.sim
            state = queued(sim), sim.collector.vet_messages
            handle(node, replies[0])
            assert (queued(sim), sim.collector.vet_messages) == state
        if len(replies) > 1 or not drop_first:
            handle(node, pkt)

    return intercept, replies


@pytest.fixture
def honest_line():
    sim = line_sim(4)
    warm_up(sim)
    return sim
