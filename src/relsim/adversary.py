"""Black-hole node behavior: lure, absorb, and lie.

A black hole answers every route request with a forged reply that wins
the pre-vetting route ranking, silently drops every data-plane packet it
receives, and answers count-table queries with fabricated numbers.
Colluding pairs keep their fabrications mutually mirror-consistent so
they can vouch for each other, which still cannot survive a cross-check
against an honest predecessor's true counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING

from . import baseline
from .engine import COLLUSION_STREAM, derive_stream
from .errors import TopologyError
from .packets import (
    BaseReqPayload,
    DriRepPayload,
    DriReqPayload,
    Packet,
    PacketKind,
    RrepPayload,
    RreqPayload,
)
from .topology import Topology

if TYPE_CHECKING:
    from .node import Node

FABRICATED_LOW = 20
FABRICATED_HIGH = 60
# a forged reply outbids the requested sequence number by SEQ_INFLATION
# and advertises CLAIMED_HOP_COUNT hops past the relay it answers
SEQ_INFLATION = 100
CLAIMED_HOP_COUNT = 1


@dataclass(slots=True)
class AdversaryProfile:
    is_blackhole: bool = False
    collusion_group: int | None = None
    collusion_partner: int | None = None


def honest_profiles(node_count: int) -> list[AdversaryProfile]:
    return [AdversaryProfile() for _ in range(node_count)]


def collusion_story(seed: int, group: int) -> int:
    """Shared fabricated packet count a collusion group sticks to."""
    return derive_stream(seed, COLLUSION_STREAM + group).randint(FABRICATED_LOW, FABRICATED_HIGH)


def fabricated_counts(node: Node, subject_profile: AdversaryProfile | None) -> tuple[int, int]:
    """Counts a black hole claims when queried.

    About outsiders: one uniform draw used for both directions, which is
    self-consistent but wildly off any honest node's true mirror.  About
    a collusion partner: the group's shared story, so partner claims stay
    mirror-consistent with each other.
    """
    profile = node.profile
    if (
        subject_profile is not None
        and profile.collusion_group is not None
        and subject_profile.collusion_group == profile.collusion_group
    ):
        story = collusion_story(node.sim.cfg.seed, profile.collusion_group)
        return story, story
    value = node.rng.randint(FABRICATED_LOW, FABRICATED_HIGH)
    return value, value


def blackhole_on_rreq(node: Node, pkt: Packet) -> None:
    """Forge an immediate route reply instead of rebroadcasting.

    The claimed tail runs through the collusion partner when one exists,
    otherwise straight to the requested destination; the inflated
    sequence number makes the forgery rank first before vetting.
    """
    payload: RreqPayload = pkt.payload
    profile = node.profile
    key = (pkt.origin, payload.request_id)
    if key in node.seen_rreqs:
        return  # one forgery per request is plenty of lure
    node.seen_rreqs.add(key)
    if profile.collusion_partner is not None and profile.collusion_partner != payload.target:
        tail: tuple[int, ...] = (node.id, profile.collusion_partner, payload.target)
    else:
        tail = (node.id, payload.target)
    forged_path = payload.path + tail  # true prefix up to the previous relay
    forged_seq = payload.requested_seq + SEQ_INFLATION
    claimed_hops = len(payload.path) - 1 + CLAIMED_HOP_COUNT
    node.send(PacketKind.RREP, payload.path[-1], RrepPayload(
        payload.request_id, forged_seq, forged_path, claimed_hops,
    ), len(payload.path) - 1)


def blackhole_on_data(node: Node, pkt: Packet) -> None:
    """Absorb a data-plane packet: count the drop, forward nothing."""
    node.sim.collector.on_blackhole_drop(pkt)


def blackhole_on_probe(node: Node, probe: tuple[int, int]) -> None:
    """Absorb a warm-up probe: it belongs to no flow, so no drop is counted."""


def blackhole_on_dri_request(node: Node, pkt: Packet) -> None:
    payload: DriReqPayload = pkt.payload
    sent, received = fabricated_counts(node, node.sim.profiles[pkt.origin])
    node.send(PacketKind.DRI_REP, pkt.origin,
              DriRepPayload(payload.probe_id, payload.attempt, sent, received))


def blackhole_on_base_request(node: Node, pkt: Packet) -> None:
    """Answer a flag-table interrogation with uniformly rosy lies."""
    payload: BaseReqPayload = pkt.payload
    value = payload.expected_next if payload.piece == 2 else (True, True)
    baseline.answer(node, payload, value)


def assign_adversaries(
    rng: Random,
    topology: Topology,
    protected: set[int],
    blackholes: int,
    colluding_pairs: int,
) -> list[AdversaryProfile]:
    """Place solo black holes and adjacent colluding pairs off the endpoints."""
    profiles = honest_profiles(topology.node_count)
    eligible = sorted(set(range(topology.node_count)) - protected)
    free = set(eligible)  # eligible and not yet placed
    for group in range(colluding_pairs):
        anchors = [u for u in eligible if u in free and not free.isdisjoint(topology.neighbors[u])]
        if not anchors:
            raise TopologyError("not enough adjacent eligible nodes for colluding pairs")
        first = rng.choice(anchors)
        second = rng.choice([v for v in topology.neighbors[first] if v in free])
        for member, partner in ((first, second), (second, first)):
            profiles[member] = AdversaryProfile(
                is_blackhole=True, collusion_group=group, collusion_partner=partner,
            )
        free -= {first, second}
    remaining = sorted(free)
    if blackholes > len(remaining):
        raise TopologyError("not enough eligible nodes for the requested black holes")
    for member in rng.sample(remaining, blackholes):
        profiles[member] = AdversaryProfile(is_blackhole=True)
    return profiles
