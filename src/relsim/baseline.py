"""Flag-table comparison scheme: next-hop interrogation over the path.

This is the reconstructed "existing solution" the count-based defense is
measured against.  Each node knows two booleans per neighbor, both read
off its count table: data was received from it, and data sent to it was
acknowledged.  To vet a path, the source interrogates each intermediate's
successor through the path itself, asking three questions per hop (the
successor's flags about the intermediate, the successor's onward hop, and
its flags about that hop).  The final intermediate is never
interrogated: its own answers, given while vouching for its predecessor,
are taken at face value.  That acceptance-on-self-evidence is what
adjacent colluders exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .defense import (
    EMPTY_ENTRY,
    DriEntry,
    VetStatus,
    VettingResult,
    conclude,
    expire,
    open_vetting,
    vetting_deadline_us,
)
from .engine import MICROS_PER_MS
from .packets import BaseRepPayload, BaseReqPayload, Packet, PacketKind

if TYPE_CHECKING:
    from collections import defaultdict

    from .node import Node

PIECES_PER_HOP = 3


def baseline_update(table: defaultdict[int, DriEntry], neighbor: int) -> None:
    """Note that data sent to ``neighbor`` was acknowledged."""
    table[neighbor].acked = True


def flags(node: Node, neighbor: int) -> tuple[bool, bool]:
    """``node``'s (from, through) flags about ``neighbor``: data has arrived
    from it, and data sent to it was acknowledged."""
    entry = node.dri.get(neighbor, EMPTY_ENTRY)
    return entry.received > 0, entry.acked


@dataclass(slots=True)
class BaselineState:
    """One vetting in progress at its source.  Hop ``idx`` (from 1) asks the
    voucher ``path[idx + 1]`` about the subject ``path[idx]`` and about the
    onward hop ``path[idx + 2]``, through the request path ``path[:idx + 2]``.

    ``attempt`` numbers the questions asked, going up with each new piece,
    hop or strike, so the number a reply or timer carries tells if it is stale."""

    vet_id: int
    path: tuple[int, ...]
    on_done: Callable[[VettingResult], None]
    last: int  # the last hop to interrogate; idx steps past it on success
    idx: int = 1
    piece: int = 1
    attempt: int = 1
    timeouts: int = 0
    strikes: int = 0


def begin_baseline_vetting(
    node: Node,
    path: tuple[int, ...],
    on_done: Callable[[VettingResult], None],
) -> None:
    vet_id = open_vetting(node, path)
    inner = len(path) - 2
    if not inner:
        conclude(node, VettingResult(VetStatus.TRUSTED, 0.0, 0, path), on_done)
        return
    if not all(flags(node, path[1])):
        # the source's own table already refuses the first hop
        conclude(node, VettingResult(VetStatus.UNTRUSTED, 0.0, 0, path), on_done)
        return
    # with one or two intermediates the destination itself vouches for the
    # final one, since no earlier voucher could; with three or more that
    # evidence already arrived as an onward-hop answer, and is taken at
    # face value
    state = BaselineState(vet_id, path, on_done, inner if inner <= 2 else inner - 1)
    node.open[vet_id] = state
    deadline_us = vetting_deadline_us(node.sim.cfg, state.last * PIECES_PER_HOP)
    node.sim.schedule_timer(node.id, deadline_us, ("base_deadline", vet_id))
    _send_piece(node, state)


def _onward(state: BaselineState) -> int | None:
    """The hop after the current voucher; None when the voucher is the
    destination."""
    nxt = state.idx + 2
    return state.path[nxt] if nxt < len(state.path) else None


def _send_piece(node: Node, state: BaselineState) -> None:
    payload = BaseReqPayload(
        vet_id=state.vet_id,
        piece=state.piece,
        destination=state.path[-1],
        expected_next=_onward(state),
        path=state.path[: state.idx + 2],
        attempt=state.attempt,
    )
    node.send(PacketKind.BASE_REQ, state.path[1], payload, 1)
    node.sim.schedule_timer(
        node.id,
        node.sim.cfg.t1_ms * MICROS_PER_MS,
        ("base_tf", state.vet_id, state.attempt, state.timeouts),
    )


def handle_base_req(node: Node, pkt: Packet) -> None:
    """Relay toward the voucher, or answer truthfully if we are it."""
    payload: BaseReqPayload = pkt.payload
    if pkt.pos < len(payload.path) - 1:
        node.relay(pkt, +1)
        return
    answer(node, payload, _honest_answer(node, payload))


def answer(node: Node, payload: BaseReqPayload, value) -> None:
    """The voucher's reply, honest or not, retraces the request's path."""
    back = len(payload.path) - 2
    node.send(PacketKind.BASE_REP, payload.path[back], BaseRepPayload(
        payload.vet_id, value, payload.path, payload.attempt,
    ), back)


def _honest_answer(node: Node, payload: BaseReqPayload):
    if payload.piece == 1:
        return flags(node, payload.path[-2])
    if payload.piece == 2:
        if payload.expected_next is None:
            return None  # we are the destination; there is no onward hop
        if payload.expected_next == payload.destination and (
            payload.destination in node.neighbors
        ):
            return payload.expected_next  # a direct neighbor needs no table entry
        for entry in node.routes.entries(payload.destination):
            if entry.path[1] == payload.expected_next:
                return payload.expected_next
        return None
    if payload.expected_next is None:
        return None
    return flags(node, payload.expected_next)


def handle_base_rep(node: Node, pkt: Packet) -> None:
    payload: BaseRepPayload = pkt.payload
    if pkt.pos > 0:
        node.relay(pkt, -1)
        return
    state = node.open.get(payload.vet_id)
    if state is None or payload.attempt != state.attempt:
        return  # stale or duplicate reply
    _judge_piece(node, state, payload.value)


def _judge_piece(node: Node, state: BaselineState, value) -> None:
    onward = _onward(state)
    if state.piece == 1:
        ok = all(value)
    elif state.piece == 2:
        ok = onward is None or value == onward
    else:
        # flags about the onward hop; answers about the destination itself
        # are accepted unchecked (the voucher's own route self-evidence)
        ok = onward is None or onward == state.path[-1] or all(value)
    if not ok:
        _finish(node, state, VetStatus.UNTRUSTED)
        return
    if state.piece < PIECES_PER_HOP:
        state.piece += 1
    else:
        state.idx += 1
        if state.idx > state.last:
            _finish(node, state, VetStatus.TRUSTED)
            return
        state.piece = 1
    state.attempt += 1
    state.timeouts = 0
    _send_piece(node, state)


def handle_base_timer(node: Node, payload: tuple) -> None:
    _, vet_id, attempt, timeouts = payload
    state = node.open.get(vet_id)
    if state is None or state.attempt != attempt or state.timeouts != timeouts:
        return  # answered or superseded in the meantime
    if expire(state, node.sim.cfg):
        _finish(node, state, VetStatus.UNTRUSTED)
    else:
        _send_piece(node, state)


def handle_base_deadline(node: Node, payload: tuple) -> None:
    _, vet_id = payload
    state = node.open.get(vet_id)
    if state is not None:
        _finish(node, state, VetStatus.UNTRUSTED)


def _finish(node: Node, state: BaselineState, status: VetStatus) -> None:
    del node.open[state.vet_id]
    # idx counts from 1 and has stepped past every cleared hop
    conclude(node, VettingResult(status, 0.0, state.idx - 1, state.path), state.on_done)

