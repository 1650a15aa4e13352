"""Packet kinds and payloads exchanged between nodes.

The header ``(kind, origin, seq_no, payload, pos)`` names no hop, as the
payload's ``path`` already does.  A source-routed packet carries the
whole ``path`` in its payload and, in ``pos``, the index of the node it
is addressed to.  Every sender hands such a packet to ``path[pos]``, so a
receiver never checks that it is the addressee, and a source-routed
packet is sent by ``path[pos - 1]`` (a DATA hop counts it as received
from that node).  ``pos`` stays 0 and unread for the other kinds; a
flooded route request is sent by ``path[-1]``.

Payloads are immutable and hold only the state of one conversation,
with the id it is open under at the node waiting on it (``request_id``,
``ping_id``, ``vet_id``, ``probe_id``; see ``node``), so a relay step is
the same header operation for every kind: ``pos`` moved by one, carrying
the payload object unchanged.  A control relay builds a
fresh ``Packet`` with the relay's own ``seq_no``; a DATA relay moves the
header it received (``pkt.pos += 1``) and sends that same object on.  A
unicast copy is queued at most once and is relayed only after it has
been dequeued, and the event log copies the fields it reads at dispatch,
so nothing still reads the old ``pos``.  The payload exceptions are
RREQ, whose path grows at each relay, and REL, whose accumulator changes
at each holder.  A payload holds nothing the header says, such as the
originator (``pkt.origin``).  Control-plane kinds are relayed even by
misbehaving nodes; the data-plane kinds listed in ``DATA_PLANE`` are the
ones a black hole silently absorbs.

A warm-up probe is no packet and has no payload.
``Simulator.probe_round``, not ``_send``, sends it and queues it as an
event of its own that carries only its sender and sequence number; it
builds a DATA packet, with a payload of flow id -1, only for a probe the
link loses, to hand to the collector.  So every DATA packet queued
belongs to a flow.

Payloads are frozen slotted dataclasses, except ``DataPayload``: one is
built per flow packet, so it is a ``NamedTuple``,
just as immutable and with the same fields and repr, but built in well
under half the time (about 0.4 against 1.0 us on CPython 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple


class PacketKind(IntEnum):
    DATA = 0
    ACK = 1
    RREQ = 2
    RREP = 3
    PING = 4
    PONG = 5
    DRI_REQ = 6
    DRI_REP = 7
    REL = 8
    BASE_REQ = 9
    BASE_REP = 10


#: Kinds a black hole drops on receipt.
DATA_PLANE = frozenset(
    {PacketKind.DATA, PacketKind.ACK, PacketKind.PING, PacketKind.PONG}
)

#: Kinds counted as path-vetting control traffic (the vet_msgs metric).
VETTING_KINDS = frozenset(
    {
        PacketKind.DRI_REQ,
        PacketKind.DRI_REP,
        PacketKind.REL,
        PacketKind.BASE_REQ,
        PacketKind.BASE_REP,
    }
)


@dataclass(slots=True)
class Packet:
    kind: PacketKind
    origin: int
    seq_no: int
    payload: object = None
    pos: int = 0  # index in ``payload.path`` of the addressee, if source-routed


@dataclass(frozen=True, slots=True)
class RreqPayload:
    request_id: int
    target: int
    requested_seq: int
    path: tuple[int, ...]  # nodes traversed so far, starting at the origin


@dataclass(frozen=True, slots=True)
class RrepPayload:
    request_id: int
    dest_seq: int
    path: tuple[int, ...]  # full origin..destination node sequence
    hops: int  # advertised hop count, which a forged reply understates


class DataPayload(NamedTuple):
    flow_id: int
    created_us: int
    path: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class PingPayload:
    """A liveness probe out along ``path``; its PONG retraces it."""

    ping_id: int
    path: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class DriReqPayload:
    """Asks the receiver for its counts about the sender, ``pkt.origin``."""

    probe_id: int
    attempt: int


@dataclass(frozen=True, slots=True)
class DriRepPayload:
    probe_id: int
    attempt: int
    sent: int
    received: int


class VetStatus(IntEnum):
    IN_PROGRESS = 0
    TRUSTED = 1
    UNTRUSTED = 2
    REL_ZEROED = 3


@dataclass(frozen=True, slots=True)
class RelPayload:
    """The walk of one vetting: the traveling reliability accumulator.

    Outbound (``IN_PROGRESS``) it moves to the next holder; home-bound it
    carries the verdict back to the source.
    """

    vet_id: int
    path: tuple[int, ...]
    rel: float = 0.0
    strikes: int = 0  # mismatches / exhausted hops so far
    checked_hops: int = 0
    status: VetStatus = VetStatus.IN_PROGRESS


@dataclass(frozen=True, slots=True)
class BaseReqPayload:
    """One question to the voucher ``path[-1]`` about the subject
    ``path[-2]``."""

    vet_id: int
    piece: int  # 1 = flags for subject, 2 = onward hop, 3 = flags for onward hop
    destination: int
    expected_next: int | None  # the onward hop; None when the voucher is the destination
    path: tuple[int, ...]  # source .. subject, voucher
    attempt: int


@dataclass(frozen=True, slots=True)
class BaseRepPayload:
    vet_id: int
    value: object  # piece 1/3: (from_flag, through_flag); piece 2: node id or None
    path: tuple[int, ...]  # the request's path, retraced
    attempt: int  # the request's, which alone names the question answered
