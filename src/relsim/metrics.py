"""Per-flow accounting and the four evaluation formulas.

Throughput ratio is byte-denominated, loss is packet-denominated, delay
averages the per-flow mean delay of delivered packets, and route quality
is the mean reliability score of the routes actually selected.  A flow's
ledger keeps only that score, ``None`` until a route is chosen; the route
itself is the flow driver's (``runner``).  Scoring a route reads the
evidence tables with ``get``, so it never adds an entry to them.  Every
packet has one size and both throughputs divide by the run's duration,
so the throughput ratio equals 100 minus the loss, up to rounding.  A flow
that delivered nothing is excluded from the delay average and reported
as starved instead, so schemes that lose everything cannot masquerade as
zero-delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .defense import (
    EMPTY_ENTRY,
    VetStatus,
    VettingResult,
    accumulate_rel,
    reliability_ratio,
)
from .errors import UndefinedMetricError
from .packets import Packet, PacketKind

# a module global is read about ten times faster than an enum member
_DATA = PacketKind.DATA


@dataclass(slots=True)
class FlowStats:
    """Counters for one application flow, the operand of the formulas."""

    app_id: int
    packets_sent: int = 0
    packets_received: int = 0
    send_throughput: float = 0.0  # bytes/second
    recv_throughput: float = 0.0
    mean_delay_s: float = 0.0


def throughput_ratio(flows: list[FlowStats]) -> float:
    """Total receiving throughput over total sending throughput, percent."""
    total_send = sum(f.send_throughput for f in flows)
    total_recv = sum(f.recv_throughput for f in flows)
    if total_send <= 0.0:
        raise UndefinedMetricError("no flow sent anything; throughput undefined")
    return total_recv / total_send * 100.0


def packet_loss(flows: list[FlowStats]) -> float:
    """Undelivered share of all data packets handed to the network, percent."""
    total_sent = sum(f.packets_sent for f in flows)
    total_received = sum(f.packets_received for f in flows)
    if total_sent <= 0:
        raise UndefinedMetricError("no packets sent; loss undefined")
    return (total_sent - total_received) / total_sent * 100.0


def mean_end_to_end_delay(flows: list[FlowStats]) -> float:
    """Mean over flows of their mean delivered-packet delay, in seconds."""
    delivered = [f for f in flows if f.packets_received > 0]
    if not delivered:
        raise UndefinedMetricError("no flow delivered anything; delay undefined")
    return sum(f.mean_delay_s for f in delivered) / len(delivered)


def starved_flow_count(flows: list[FlowStats]) -> int:
    return sum(1 for f in flows if f.packets_received == 0 and f.packets_sent > 0)


# ---------------------------------------------------------------------------
# Run-time collection
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class FlowLedger:
    """Ground-truth per-packet ledger for one flow (must balance exactly)."""

    flow_id: int
    generated: int = 0
    delivered: int = 0
    blackhole_drops: int = 0
    link_drops: int = 0
    undeliverable: int = 0
    never_sent: int = 0
    delay_sum_us: int = 0
    route_mrr: float | None = None  # ground-truth score of the chosen route


class RunCollector:
    """Event hooks the engine and nodes feed during a run."""

    def __init__(self) -> None:
        self.flows: dict[int, FlowLedger] = {}
        self.vet_messages = 0
        self.untrusted_paths = 0

    def register_flow(self, flow_id: int) -> FlowLedger:
        ledger = FlowLedger(flow_id)
        self.flows[flow_id] = ledger
        return ledger

    def _flow_of(self, pkt: Packet) -> FlowLedger | None:
        if pkt.kind is _DATA:
            return self.flows.get(pkt.payload.flow_id)
        return None

    def on_generated(self, flow_id: int) -> None:
        self.flows[flow_id].generated += 1

    def on_vet_message(self, pkt: Packet) -> None:
        self.vet_messages += 1

    def on_vetting_done(self, result: VettingResult) -> None:
        if result.status is not VetStatus.TRUSTED:
            self.untrusted_paths += 1

    def on_link_drop(self, pkt: Packet) -> None:
        ledger = self._flow_of(pkt)
        if ledger is not None:
            ledger.link_drops += 1

    def on_blackhole_drop(self, pkt: Packet) -> None:
        ledger = self._flow_of(pkt)
        if ledger is not None:
            ledger.blackhole_drops += 1

    def on_undeliverable(self, pkt: Packet) -> None:
        ledger = self._flow_of(pkt)
        if ledger is not None:
            ledger.undeliverable += 1

    def on_delivered(self, pkt: Packet, now_us: int) -> None:
        ledger = self._flow_of(pkt)
        if ledger is not None:
            ledger.delivered += 1
            ledger.delay_sum_us += now_us - pkt.payload.created_us

    def on_route_selected(self, flow_id: int, mrr: float) -> None:
        self.flows[flow_id].route_mrr = mrr

    # -- aggregation ----------------------------------------------------

    def flow_stats(self, duration_s: float, packet_size: int) -> list[FlowStats]:
        stats = []
        for flow_id in sorted(self.flows):
            ledger = self.flows[flow_id]
            sent = ledger.generated
            received = ledger.delivered
            f = FlowStats(
                app_id=flow_id,
                packets_sent=sent,
                packets_received=received,
                send_throughput=sent * packet_size / duration_s,
                recv_throughput=received * packet_size / duration_s,
                mean_delay_s=(ledger.delay_sum_us / 1e6 / received) if received else 0.0,
            )
            stats.append(f)
        return stats

    def mean_selected_mrr(self) -> float:
        routed = [led.route_mrr for led in self.flows.values() if led.route_mrr is not None]
        if not routed:
            return math.nan
        return sum(routed) / len(routed)


def ground_truth_route_mrr(sim, path: tuple[int, ...]) -> float:
    """Measurement-side route score from true node state, no messages.

    Walks the path the way vetting would: any intermediate that is a
    black hole zeroes the route (its report could never mirror its honest
    predecessor's counts); otherwise each intermediate contributes its
    true send/receive ratio toward the mean.
    """
    cfg = sim.cfg
    inner = path[1:-1]
    if not inner:
        return 1.0
    rel = 0.0
    for prev, cur in zip(path, inner):
        if sim.profiles[cur].is_blackhole:
            return 0.0
        entry = sim.nodes[cur].dri.get(prev, EMPTY_ENTRY)
        rel = accumulate_rel(rel, reliability_ratio(entry, cfg))
    return rel / len(inner)

