"""Per-node protocol state and the packet/timer dispatch glue.

A node owns its routing table, its per-neighbor packet-count table, the
boolean flag table used by the comparison scheme, and whatever vetting
or discovery conversations it is currently part of.  Black-hole behavior
is decided here at receipt time: data-plane packets are absorbed, route
requests are answered with forgeries, table queries with lies.  Control
packets merely passing through a black hole are relayed normally, which
is what keeps the lying path alive long enough to be interrogated.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from . import adversary, aodv, baseline, defense
from .packets import DATA_PLANE, DataPayload, Packet, PacketKind

if TYPE_CHECKING:
    from .engine import Simulator


class Node:
    def __init__(self, sim: Simulator, node_id: int, profile, neighbors: tuple[int, ...]):
        self.sim = sim
        self.id = node_id
        self.profile = profile
        self.neighbors = neighbors
        self.rng = sim.rngs[node_id]
        self.seq_no = 0  # AODV destination sequence number
        self._packet_seq = 0
        self.dri: dict[int, defense.DriEntry] = {}
        self.flags: dict[int, baseline.FlagDriEntry] = {}
        self.routes = aodv.RoutingTable()
        self.seen_rreqs: set[tuple[int, int]] = set()
        self.request_counter = 0
        self.ping_counter = 0
        self.discoveries: dict[int, aodv.DiscoveryState] = {}
        self.ping_waits: dict[int, tuple] = {}
        self.rel_pending: dict[int, defense.HopProbe] = {}
        self.vet_waiters: dict[int, tuple] = {}
        self.base_vets: dict[int, baseline.BaselineState] = {}

    def next_seq(self) -> int:
        self._packet_seq += 1
        return self._packet_seq

    def note_data_sent(self, dst: int) -> None:
        defense.record_data_packet(self.dri, dst, "sent")

    def send(self, kind: PacketKind, final_dst: int, to: int, payload,
             hop_count: int = 0) -> None:
        """Originate a unicast to neighbour ``to`` along a path that may be
        forged: a hop that does not exist drops the packet."""
        pkt = Packet(kind, self.id, final_dst, self.id, self.next_seq(), hop_count, payload)
        self.sim.transmit_or_drop(self.id, to, pkt)

    def relay(self, pkt: Packet, step: int) -> None:
        """Move a source-routed control packet one hop, ``step`` = +1 toward
        the end of ``payload.path`` or -1 back toward its start."""
        pos = pkt.payload.pos + step
        fwd = Packet(pkt.kind, pkt.origin, pkt.final_dst, self.id, self.next_seq(),
                     pkt.hop_count, replace(pkt.payload, pos=pos))
        self.sim.transmit_or_drop(self.id, pkt.payload.path[pos], fwd)

    # -- dispatch -------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        kind = pkt.kind
        if self.profile.is_blackhole:
            if kind in DATA_PLANE:
                adversary.blackhole_on_data(self, pkt)
                return
            if kind is PacketKind.RREQ:
                adversary.blackhole_on_rreq(self, pkt)
                return
            if kind is PacketKind.DRI_REQ:
                adversary.blackhole_on_dri_request(self, pkt)
                return
            if kind is PacketKind.BASE_REQ:
                payload = pkt.payload
                if payload.path[payload.pos] == self.id and (
                    payload.pos == len(payload.path) - 1
                ):
                    adversary.blackhole_on_base_request(self, pkt)
                else:
                    baseline.handle_base_req(self, pkt)  # relay the charade
                return
            # remaining control kinds are relayed / consumed normally
        if kind is PacketKind.DATA:
            self._on_data(pkt)
        elif kind is PacketKind.ACK:
            baseline.baseline_update(self.flags, pkt.origin, "through")
        elif kind is PacketKind.RREQ:
            aodv.handle_rreq(self, pkt)
        elif kind is PacketKind.RREP:
            aodv.handle_rrep(self, pkt)
        elif kind is PacketKind.PING:
            aodv.handle_ping(self, pkt)
        elif kind is PacketKind.PONG:
            aodv.handle_pong(self, pkt)
        elif kind is PacketKind.DRI_REQ:
            defense.handle_dri_req(self, pkt)
        elif kind is PacketKind.DRI_REP:
            defense.handle_dri_rep(self, pkt)
        elif kind is PacketKind.REL:
            defense.handle_rel(self, pkt)
        elif kind is PacketKind.BASE_REQ:
            baseline.handle_base_req(self, pkt)
        elif kind is PacketKind.BASE_REP:
            baseline.handle_base_rep(self, pkt)

    def _on_data(self, pkt: Packet) -> None:
        payload = pkt.payload
        defense.record_data_packet(self.dri, pkt.prev_hop, "received")
        baseline.baseline_update(self.flags, pkt.prev_hop, "from")
        if payload.path[payload.pos] != self.id:
            return
        if payload.pos == len(payload.path) - 1:
            # delivered; probes (negative flow ids) are acknowledged so the
            # prober gains transfer evidence for its flag table
            if payload.flow_id < 0:
                ack = Packet(PacketKind.ACK, self.id, pkt.prev_hop, self.id, self.next_seq())
                self.sim.transmit(self.id, pkt.prev_hop, ack)
            else:
                self.sim.collector.on_delivered(pkt, self.sim.now_us)
            return
        fwd = Packet(
            kind=PacketKind.DATA,
            origin=pkt.origin,
            final_dst=pkt.final_dst,
            prev_hop=self.id,
            seq_no=pkt.seq_no,
            hop_count=pkt.hop_count + 1,
            payload=DataPayload(
                payload.flow_id, payload.created_us, payload.path, payload.pos + 1
            ),
        )
        self.sim.transmit_or_drop(self.id, payload.path[payload.pos + 1], fwd)

    def on_timer(self, payload: tuple) -> None:
        tag = payload[0]
        if tag == "rel_tf":
            defense.handle_feedback_timer(self, payload)
        elif tag == "vet_deadline":
            defense.handle_vet_deadline(self, payload)
        elif tag == "base_tf":
            baseline.handle_base_timer(self, payload)
        elif tag == "base_deadline":
            baseline.handle_base_deadline(self, payload)
        elif tag == "discovery":
            aodv.handle_discovery_timer(self, payload)
        elif tag == "ping":
            aodv.handle_ping_timer(self, payload)
