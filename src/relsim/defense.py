"""Packet-count bookkeeping and reliability-vetted path selection.

Every node tracks, per neighbor, how many data packets it sent to and
received from that neighbor.  Before a candidate route is trusted, a
traveling accumulator packet walks the path: at each hop the current
holder asks its next-hop neighbour for that neighbour's counts about the
holder, cross-checks them against its own mirror counts, and on a match
adds the neighbour's send/receive ratio to the running total.  A mismatch
zeroes the accumulator and sends it straight home; unanswered requests
burn retry and strike counters until the path is declared untrusted.

The timer ``t1_ms``, the limits ``k_r`` and ``k_m``, the tolerance
``delta_match`` and the clamp ``ratio_cap`` are read from the run's
``ScenarioConfig``, ``node.sim.cfg``, as the vetting runs; the flag-table
scheme reads the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .engine import MICROS_PER_MS
from .errors import NoRouteError
from .packets import (
    DriRepPayload,
    DriReqPayload,
    Packet,
    PacketKind,
    RelPayload,
    VetStatus,
)

if TYPE_CHECKING:
    from .node import Node
    from .scenario import ScenarioConfig


@dataclass(slots=True)
class DriEntry:
    """Evidence about one neighbor: counts of data packets exchanged with
    it, and whether data sent to it was ever acknowledged.

    ``peer_acked`` is link-layer bookkeeping, not evidence, and no vetting
    reads it: it mirrors the neighbor's own ``acked`` flag about this node,
    so that ``Simulator.ack`` can skip an ACK the neighbor already holds by
    reading this node's table.  ``node._on_ack`` sets the two together."""

    sent: int = 0
    received: int = 0
    acked: bool = False
    peer_acked: bool = False


EMPTY_ENTRY = DriEntry()


def vetting_deadline_us(cfg: ScenarioConfig, hops: int) -> int:
    """Generous bound on a whole vetting of ``hops`` interrogated hops,
    in case a reply or a return leg is lost: each hop may burn k_r
    silent periods in each of k_m + 2 attempts."""
    return hops * ((cfg.k_m + 2) * cfg.k_r * cfg.t1_ms + 200) * MICROS_PER_MS


@dataclass(slots=True)
class VettingResult:
    status: VetStatus
    rel: float
    vetted_hops: int
    path: tuple[int, ...]


def record_data_packet(table: dict[int, DriEntry], neighbor: int, direction: str) -> None:
    """Bump the sent or received count for ``neighbor`` by one."""
    entry = table.get(neighbor)
    if entry is None:
        entry = DriEntry()
        table[neighbor] = entry
    if direction == "sent":
        entry.sent += 1
    elif direction == "received":
        entry.received += 1
    else:
        raise ValueError(f"unknown direction {direction!r}")


def reliability_ratio(entry: DriEntry, cfg: ScenarioConfig) -> float:
    """Sent-over-received quotient with total guards for empty denominators.

    No traffic at all is treated as neutral evidence (1.0); a neighbor
    that received without ever sending scores 0.0; a pure originator is
    clamped to ``ratio_cap`` instead of diverging.
    """
    if entry.received > 0:
        if entry.sent == 0:
            return 0.0
        return min(entry.sent / entry.received, cfg.ratio_cap)
    if entry.sent == 0:
        return 1.0
    return cfg.ratio_cap


def accumulate_rel(rel: float, ratio: float) -> float:
    return rel + ratio


def cross_check(local: DriEntry, reported: DriEntry, delta: int) -> bool:
    """Mirror consistency: my sent ~ your received and vice versa."""
    return (
        abs(local.sent - reported.received) <= delta
        and abs(local.received - reported.sent) <= delta
    )


def mean_route_reliability(rel: float, vetted_hops: int) -> float:
    """Accumulated reliability averaged over the hops that contributed."""
    if vetted_hops < 1:
        raise ValueError("mean route reliability needs at least one vetted hop")
    return rel / vetted_hops


def result_mrr(result: VettingResult) -> float:
    """Selection score of one vetted candidate."""
    if result.status is VetStatus.TRUSTED:
        if len(result.path) == 2:  # destination is a direct neighbor: nothing to vet
            return 1.0
        return mean_route_reliability(result.rel, result.vetted_hops)
    return 0.0


def select_route(results: list[VettingResult]) -> tuple[int, ...] | None:
    """Pick the maximum-reliability vetted path, or None if nothing is safe.

    Untrusted candidates are excluded outright; the rest compete on mean
    route reliability, then table hop count, then first-hop id.  A best
    score of zero means every surviving candidate was reliability-zeroed,
    which is not a route worth using.
    """
    if not results:
        raise NoRouteError("no candidate routes to select from")
    best_key = None
    best_path = None
    for result in results:
        if result.status is VetStatus.UNTRUSTED:
            continue
        path = result.path
        key = (-result_mrr(result), len(path) - 1, path[1], path)
        if best_key is None or key < best_key:
            best_key = key
            best_path = path
    if best_path is None or -best_key[0] <= 0.0:
        return None
    return best_path


# ---------------------------------------------------------------------------
# Vetting conversations shared with the flag-table scheme (baseline.py).
# ---------------------------------------------------------------------------


def open_vetting(node: Node, path: tuple[int, ...]) -> int:
    """Check that ``path`` (full source..destination sequence) starts at
    ``node`` and hand out a fresh vetting id."""
    if len(path) < 2 or path[0] != node.id:
        raise NoRouteError("vetting needs a source..destination path starting here")
    return node.sim.next_id()


def conclude(node: Node, result: VettingResult,
             on_done: Callable[[VettingResult], None]) -> None:
    """Report a finished vetting to the collector, then to the caller."""
    node.sim.collector.on_vetting_done(result)
    on_done(result)


def expire(state, cfg: ScenarioConfig) -> bool:
    """One silent ``t1`` period on a request whose retry state is the
    ``attempt``/``timeouts``/``strikes`` triple of ``state``.

    ``k_r`` timeouts cost a strike and open a fresh attempt; returns True,
    leaving ``attempt`` as it was, once more than ``k_m`` strikes burned.
    """
    state.timeouts += 1
    if state.timeouts < cfg.k_r:
        return False
    state.timeouts = 0
    state.strikes += 1
    if state.strikes > cfg.k_m:
        return True
    state.attempt += 1
    return False


# ---------------------------------------------------------------------------
# Distributed walk: holder-side state machine driven by the event loop.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VetWait:  # a vetting at its source, waiting for the verdict or the deadline
    path: tuple[int, ...]
    on_done: Callable[[VettingResult], None]


@dataclass(slots=True)
class HopProbe:
    """One in-flight next-hop interrogation at the walk's current holder,
    open under its own id, as the source is also the first holder."""

    walk: RelPayload  # as it reached the holder
    pos: int  # the holder's index in ``walk.path``
    strikes: int  # the walk's strikes, plus those this hop has burned
    attempt: int = 1
    timeouts: int = 0  # feedback-timer expiries within the current attempt


def begin_vetting(
    node: Node,
    path: tuple[int, ...],
    on_done: Callable[[VettingResult], None],
) -> None:
    """Start vetting ``path`` (full source..destination sequence) at its source."""
    vet_id = open_vetting(node, path)
    if len(path) == 2:
        # direct neighbor: the walk is skipped entirely
        conclude(node, VettingResult(VetStatus.TRUSTED, 0.0, 0, path), on_done)
        return
    node.open[vet_id] = VetWait(path, on_done)
    deadline_us = vetting_deadline_us(node.sim.cfg, len(path))
    node.sim.schedule_timer(node.id, deadline_us, ("vet_deadline", vet_id))
    _advance(node, RelPayload(vet_id, path), 0)


def _advance(node: Node, walk: RelPayload, pos: int) -> None:
    """The holder ``path[pos]`` inspects its next-hop neighbour."""
    if pos + 2 == len(walk.path):
        # next hop is the destination: send the accumulator home as-is
        _send_home(node, walk, pos, VetStatus.TRUSTED)
        return
    probe_id = node.sim.next_id()
    probe = node.open[probe_id] = HopProbe(walk, pos, walk.strikes)
    _send_dri_request(node, probe_id, probe)


def _send_dri_request(node: Node, probe_id: int, probe: HopProbe) -> None:
    node.send(PacketKind.DRI_REQ, probe.walk.path[probe.pos + 1],
              DriReqPayload(probe_id, probe.attempt))
    node.sim.schedule_timer(
        node.id,
        node.sim.cfg.t1_ms * MICROS_PER_MS,
        ("rel_tf", probe_id, probe.attempt, probe.timeouts),
    )


def handle_dri_req(node: Node, pkt: Packet) -> None:
    """An honest node reports its true counts about the asker."""
    payload: DriReqPayload = pkt.payload
    entry = node.dri.get(pkt.origin, EMPTY_ENTRY)
    node.send(PacketKind.DRI_REP, pkt.origin, DriRepPayload(
        payload.probe_id, payload.attempt, entry.sent, entry.received,
    ))


def handle_dri_rep(node: Node, pkt: Packet) -> None:
    payload: DriRepPayload = pkt.payload
    probe = node.open.get(payload.probe_id)
    if probe is None or payload.attempt != probe.attempt:
        return  # stale or duplicate reply
    del node.open[payload.probe_id]
    cfg = node.sim.cfg
    walk = probe.walk
    nhn = walk.path[probe.pos + 1]
    local = node.dri.get(nhn, EMPTY_ENTRY)
    reported = DriEntry(sent=payload.sent, received=payload.received)
    checked = walk.checked_hops + 1
    if cross_check(local, reported, cfg.delta_match):
        # matched: the accumulator moves one hop down the path
        rel = accumulate_rel(walk.rel, reliability_ratio(reported, cfg))
        node.send(PacketKind.REL, nhn, RelPayload(
            walk.vet_id, walk.path, rel, probe.strikes, checked, walk.status,
        ), probe.pos + 1)
    else:
        strikes = probe.strikes + 1
        status = VetStatus.UNTRUSTED if strikes > cfg.k_m else VetStatus.REL_ZEROED
        _send_home(node, RelPayload(
            walk.vet_id, walk.path, 0.0, strikes, checked, walk.status,
        ), probe.pos, status)


def handle_feedback_timer(node: Node, payload: tuple) -> None:
    _, probe_id, attempt, timeouts = payload
    probe = node.open.get(probe_id)
    if probe is None or probe.attempt != attempt or probe.timeouts != timeouts:
        return  # answered or superseded in the meantime
    if not expire(probe, node.sim.cfg):
        _send_dri_request(node, probe_id, probe)
        return
    del node.open[probe_id]
    walk = probe.walk
    _send_home(node, RelPayload(
        walk.vet_id, walk.path, 0.0, probe.strikes, walk.checked_hops, walk.status,
    ), probe.pos, VetStatus.UNTRUSTED)


def _send_home(node: Node, walk: RelPayload, pos: int, status: VetStatus) -> None:
    """Turn the walk around at its holder ``path[pos]`` with the verdict
    ``status``."""
    if pos == 0:
        _finalize(node, walk.vet_id, status, walk.rel, walk.checked_hops)
        return
    node.send(PacketKind.REL, walk.path[pos - 1], RelPayload(
        walk.vet_id, walk.path, walk.rel, walk.strikes, walk.checked_hops, status,
    ), pos - 1)


def handle_rel(node: Node, pkt: Packet) -> None:
    walk: RelPayload = pkt.payload
    if walk.status is VetStatus.IN_PROGRESS:
        # outbound: this node is the new holder
        _advance(node, walk, pkt.pos)
    elif pkt.pos == 0:
        _finalize(node, walk.vet_id, walk.status, walk.rel, walk.checked_hops)
    else:
        node.relay(pkt, -1)


def handle_vet_deadline(node: Node, payload: tuple) -> None:
    """Missing return trip: the whole vetting times out as untrusted."""
    _, vet_id = payload
    _finalize(node, vet_id, VetStatus.UNTRUSTED)


def _finalize(node: Node, vet_id: int, status: VetStatus, rel: float = 0.0,
              checked: int = 0) -> None:
    waiter = node.open.pop(vet_id, None)
    if waiter is None:
        return  # the deadline or the walk already resolved it
    conclude(node, VettingResult(status, rel, checked, waiter.path), waiter.on_done)

