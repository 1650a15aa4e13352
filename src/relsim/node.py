"""Per-node protocol state and the packet/timer dispatch glue.

A node owns its routing table, its per-neighbor evidence table (the
packet counts and the acknowledgement flag both schemes vet with), and
one table, ``open``, of the conversations it waits on (a discovery or
ping it sent, a vetting it sources, a hop probe it holds), keyed by ids
unique across the run that the conversation's packets and timers carry.
The evidence table is a ``defaultdict(DriEntry)``: recording traffic
writes ``dri[neighbor]``, which makes the entry on first use, while every
read (a vetting reply, a flag, a route score) uses
``dri.get(neighbor, EMPTY_ENTRY)``, so only traffic creates entries.  It
hands every packet, timer and warm-up probe to the handler its role's
table names, so a black hole's behavior is fixed when the node is built,
not decided at receipt: data-plane packets and probes are absorbed,
route requests are answered with forgeries, table queries with lies.  Control packets merely passing
through a black hole are relayed normally, which is what keeps the
lying path alive long enough to be interrogated.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from . import adversary, aodv, baseline, defense
from .packets import DATA_PLANE, Packet, PacketKind

if TYPE_CHECKING:
    from .engine import Simulator


class Node:
    __slots__ = (
        "sim", "id", "profile", "neighbors", "handlers", "rng", "owed_acks", "seq_no",
        "_packet_seq", "dri", "routes", "seen_rreqs", "open",
    )

    def __init__(self, sim: Simulator, node_id: int, profile, neighbors: tuple[int, ...],
                 handlers: dict):
        self.sim = sim
        self.id = node_id
        self.profile = profile
        self.neighbors = neighbors
        self.handlers = handlers  # the role's table from ``event_handlers``
        self.rng = sim.rngs[node_id]
        self.owed_acks = 0  # ACKs whose draws ``sim.settle`` has yet to take from ``rng``
        self.seq_no = 0  # AODV destination sequence number
        self._packet_seq = 0
        self.dri: defaultdict[int, defense.DriEntry] = defaultdict(defense.DriEntry)
        self.routes = aodv.RoutingTable()
        # stays empty, as no node is handed a request twice (see ``aodv``);
        # the benchmark's duplicate counter reads it
        self.seen_rreqs: set[tuple[int, int]] = set()
        # every conversation this node waits on, by its ``sim.next_id()``
        self.open: dict[int, object] = {}

    def next_seq(self) -> int:
        self._packet_seq += 1
        return self._packet_seq

    def send(self, kind: PacketKind, to: int, payload, pos: int = 0) -> None:
        """Originate a unicast to ``to``, which is ``payload.path[pos]`` for a
        source-routed kind; a hop that does not exist, as on a forged path,
        drops the packet."""
        self._packet_seq = seq = self._packet_seq + 1
        self.sim.transmit_or_drop(self.id, to, Packet(kind, self.id, seq, payload, pos))

    def relay(self, pkt: Packet, step: int) -> None:
        """Move a source-routed control packet one hop, ``step`` = +1 toward
        the end of ``payload.path`` or -1 back toward its start; the payload
        object travels on unchanged."""
        pos = pkt.pos + step
        fwd = Packet(pkt.kind, pkt.origin, self.next_seq(), pkt.payload, pos)
        self.sim.transmit_or_drop(self.id, pkt.payload.path[pos], fwd)

    # -- dispatch -------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        self.handlers[pkt.kind](self, pkt)

    def on_timer(self, payload: tuple) -> None:
        handler = self.handlers.get(payload[0])
        if handler is not None:
            handler(self, payload)

    def _on_data(self, pkt: Packet) -> None:
        # one unpack reads the field faster than a NamedTuple attribute read
        _, _, path = pkt.payload
        pos = pkt.pos
        self.dri[path[pos - 1]].received += 1
        if pos == len(path) - 1:
            self.sim.collector.on_delivered(pkt, self.sim.now_us)
            return
        # relayed in place: a unicast copy is queued once, and this one has
        # been dequeued, so no other reference reads its ``pos``
        pkt.pos = pos = pos + 1
        self.sim.transmit_or_drop(self.id, path[pos], pkt)


def _on_probe(node: Node, probe: tuple[int, int, defense.DriEntry]) -> None:
    """Count the warm-up probe ``(sender, seq, entry)`` received into
    ``entry``, this node's ``dri[sender]``, which the probe carries, and
    acknowledge it, so the prober gains transfer evidence for its through
    flag.  The sender just transmitted to this node, so the ACK's link
    exists.  While ``entry.peer_acked`` is false the ACK goes to
    ``Simulator.ack``; once it is set the prober already holds the flag
    the ACK would set, so the ACK is neither built nor queued, and its
    draws are owed to this node's stream for ``Simulator.settle``."""
    sender, _, entry = probe
    entry.received += 1
    node._packet_seq = seq = node._packet_seq + 1
    if entry.peer_acked:
        node.owed_acks += 1
    else:
        node.sim.ack(node.id, sender, seq)


def _on_ack(node: Node, pkt: Packet) -> None:
    """Set the prober's ``acked`` flag for the ACK's sender and, in the same
    step, the sender's ``peer_acked`` mirror of it, which ``_on_probe``
    reads."""
    sender = pkt.origin
    baseline.baseline_update(node.dri, sender)
    node.sim.nodes[sender].dri[node.id].peer_acked = True


def _blackhole_on_base_req(node: Node, pkt: Packet) -> None:
    """Lie when asked as the voucher; relay the charade otherwise."""
    if pkt.pos == len(pkt.payload.path) - 1:
        adversary.blackhole_on_base_request(node, pkt)
    else:
        baseline.handle_base_req(node, pkt)


def event_handlers(blackhole: bool) -> dict:
    """One role's handlers, each called as ``handler(node, packet)`` per
    ``PacketKind``, ``handler(node, timer_payload)`` per timer tag, or, under
    ``"probe"``, ``handler(node, (sender, seq, entry))`` per warm-up probe.

    Handlers are read off their modules when the table is built, so build
    it per simulator: a function replaced on its module then still runs.
    """
    handlers = {
        PacketKind.DATA: Node._on_data,
        PacketKind.ACK: _on_ack,
        PacketKind.RREQ: aodv.handle_rreq,
        PacketKind.RREP: aodv.handle_rrep,
        PacketKind.PING: aodv.handle_ping,
        PacketKind.PONG: aodv.handle_pong,
        PacketKind.DRI_REQ: defense.handle_dri_req,
        PacketKind.DRI_REP: defense.handle_dri_rep,
        PacketKind.REL: defense.handle_rel,
        PacketKind.BASE_REQ: baseline.handle_base_req,
        PacketKind.BASE_REP: baseline.handle_base_rep,
        "probe": _on_probe,
        "rel_tf": defense.handle_feedback_timer,
        "vet_deadline": defense.handle_vet_deadline,
        "base_tf": baseline.handle_base_timer,
        "base_deadline": baseline.handle_base_deadline,
        "discovery": aodv.handle_discovery_timer,
        "ping": aodv.handle_ping_timer,
    }
    if blackhole:
        # the remaining control kinds are relayed or consumed normally
        handlers.update(dict.fromkeys(DATA_PLANE, adversary.blackhole_on_data))
        handlers["probe"] = adversary.blackhole_on_probe
        handlers[PacketKind.RREQ] = adversary.blackhole_on_rreq
        handlers[PacketKind.DRI_REQ] = adversary.blackhole_on_dri_request
        handlers[PacketKind.BASE_REQ] = _blackhole_on_base_req
    return handlers
