"""On-demand route discovery: request flooding, replies, and ping checks.

Route requests flood with duplicate suppression, which
``Simulator.broadcast`` applies by queuing one copy of a request per
node, so a handler only ever sees its node's first copy.  They
accumulate the node sequence they traverse, so every reply hands the
source a complete candidate path.  Replies travel the recorded path
backwards, installing forward routes at the relays.  The reply itself is
the candidate: a discovery keeps the first ``RrepPayload`` along each
distinct path and, when its window closes, hands them to its caller
ranked by highest destination sequence number, then fewest advertised
hops, then lowest next-hop id; this is exactly the ordering a forged
reply is built to win.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .engine import MICROS_PER_MS
from .errors import NoRouteError
from .packets import Packet, PacketKind, PingPayload, RrepPayload, RreqPayload

if TYPE_CHECKING:
    from .node import Node

DISCOVERY_WINDOW_MS = 200


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """A stored route: the path from this node (``path[0]``) to the
    destination (``path[-1]``) and the destination sequence number it was
    advertised with."""

    path: tuple[int, ...]
    dest_seq_no: int


class RoutingTable:
    """Destination -> candidate entries, at most one per next hop."""

    def __init__(self) -> None:
        self._routes: dict[int, list[RouteEntry]] = {}

    def upsert(self, entry: RouteEntry) -> None:
        entries = self._routes.setdefault(entry.path[-1], [])
        for i, existing in enumerate(entries):
            if existing.path[1] == entry.path[1]:
                if (entry.dest_seq_no, -len(entry.path)) >= (
                    existing.dest_seq_no, -len(existing.path)
                ):
                    entries[i] = entry
                return
        entries.append(entry)

    def entries(self, destination: int) -> list[RouteEntry]:
        return self._routes.get(destination, [])

    def best(self, destination: int) -> RouteEntry | None:
        return min(self.entries(destination), key=rank_key, default=None)


def rank_key(entry: RouteEntry):
    return (-entry.dest_seq_no, len(entry.path), entry.path[1])


def candidate_rank_key(reply: RrepPayload):
    return (-reply.dest_seq, reply.hops, reply.path[1], reply.path)


@dataclass(slots=True)
class DiscoveryState:
    on_done: Callable[[list[RrepPayload]], None]
    # the first reply along each distinct path, in arrival order
    replies: dict[tuple[int, ...], RrepPayload] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class PingWait:  # a ping at its originator, waiting for the PONG along ``path``
    path: tuple[int, ...]
    on_result: Callable[[bool, tuple[int, ...]], None]


def initiate_discovery(
    node: Node,
    destination: int,
    on_done: Callable[[list[RrepPayload]], None],
) -> None:
    """Flood a fresh route request and collect replies for a fixed window."""
    if destination == node.id:
        raise NoRouteError("discovery to self is a no-op")
    request_id = node.sim.next_id()
    known = node.routes.best(destination)
    requested_seq = known.dest_seq_no if known is not None else 0
    node.open[request_id] = DiscoveryState(on_done)
    rreq = Packet(PacketKind.RREQ, node.id, node.next_seq(),
                  RreqPayload(request_id, destination, requested_seq, (node.id,)))
    node.sim.broadcast(node.id, rreq)
    node.sim.schedule_timer(
        node.id, DISCOVERY_WINDOW_MS * MICROS_PER_MS, ("discovery", request_id)
    )


def handle_rreq(node: Node, pkt: Packet) -> None:
    payload: RreqPayload = pkt.payload
    if payload.target == node.id:
        node.seq_no += 1
        _send_rrep(node, payload.path + (node.id,), node.seq_no, payload.request_id)
        return
    cached = node.routes.best(payload.target)
    if (
        cached is not None
        and cached.dest_seq_no >= payload.requested_seq
        and not set(cached.path[1:]) & set(payload.path)
    ):
        _send_rrep(
            node, payload.path + cached.path, cached.dest_seq_no, payload.request_id
        )
        return
    relay = Packet(PacketKind.RREQ, pkt.origin, node.next_seq(), RreqPayload(
        payload.request_id, payload.target, payload.requested_seq, payload.path + (node.id,),
    ))
    node.sim.broadcast(node.id, relay)


def _send_rrep(node: Node, path: tuple[int, ...], dest_seq: int, request_id: int) -> None:
    """Unicast a reply back along the recorded path; ``path`` starts at the
    requesting source and this node sits at ``path.index(node.id)``, past
    the source, which is never handed a copy of its own request."""
    my_pos = path.index(node.id)
    node.send(PacketKind.RREP, path[my_pos - 1],
              RrepPayload(request_id, dest_seq, path, len(path) - 1), my_pos - 1)


def handle_rrep(node: Node, pkt: Packet) -> None:
    payload: RrepPayload = pkt.payload
    pos = pkt.pos
    if not node.profile.is_blackhole:
        node.routes.upsert(RouteEntry(payload.path[pos:], payload.dest_seq))
    if pos == 0:
        state = node.open.get(payload.request_id)
        if state is None:
            return  # reply for an unknown or finished discovery
        state.replies.setdefault(payload.path, payload)
        return
    node.relay(pkt, -1)


def handle_discovery_timer(node: Node, payload: tuple) -> None:
    _, request_id = payload
    state = node.open.pop(request_id)
    state.on_done(sorted(state.replies.values(), key=candidate_rank_key))


# -- destination liveness ---------------------------------------------------


def ping_destination(
    node: Node,
    destination: int,
    on_result: Callable[[bool, tuple[int, ...]], None],
) -> None:
    """Probe the stored route; silence means the caller should rediscover."""
    entry = node.routes.best(destination)
    if entry is None:
        raise NoRouteError(f"node {node.id} has no stored route to {destination}")
    ping_id = node.sim.next_id()
    # generous: over twice a round trip of slowest hops, plus 50 ms
    sim = node.sim
    timeout_us = 4 * len(entry.path) * (sim.delay_us + sim.jitter_us) + 50 * MICROS_PER_MS
    node.open[ping_id] = PingWait(entry.path, on_result)
    node.send(PacketKind.PING, entry.path[1], PingPayload(ping_id, entry.path), 1)
    sim.schedule_timer(node.id, timeout_us, ("ping", ping_id))


def handle_ping(node: Node, pkt: Packet) -> None:
    payload: PingPayload = pkt.payload
    pos = pkt.pos
    if pos == len(payload.path) - 1:
        node.send(PacketKind.PONG, payload.path[pos - 1], payload, pos - 1)
        return
    node.relay(pkt, +1)


def handle_pong(node: Node, pkt: Packet) -> None:
    if pkt.pos == 0:
        waiter = node.open.pop(pkt.payload.ping_id, None)
        if waiter is not None:
            waiter.on_result(True, waiter.path)
        return
    node.relay(pkt, -1)


def handle_ping_timer(node: Node, payload: tuple) -> None:
    _, ping_id = payload
    waiter = node.open.pop(ping_id, None)
    if waiter is not None:
        waiter.on_result(False, waiter.path)
