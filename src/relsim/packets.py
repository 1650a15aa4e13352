"""Packet kinds and payloads exchanged between nodes.

Payloads are immutable; a forwarded packet is a fresh ``Packet`` carrying
either the same payload object or a rebuilt one (e.g. an extended RREQ
path).  Source-routed payloads carry the whole ``path`` and ``pos``, the
index of the node the packet is addressed to, so one relay step is the
same ``pos`` shift for every kind.  Control-plane kinds are relayed even
by misbehaving nodes; the data-plane kinds listed in ``DATA_PLANE`` are
the ones a black hole silently absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


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
    prev_hop: int
    seq_no: int
    payload: object = None


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
    pos: int  # index of the node currently relaying the reply
    hops: int  # advertised hop count, which a forged reply understates


@dataclass(frozen=True, slots=True)
class DataPayload:
    flow_id: int
    created_us: int
    path: tuple[int, ...]
    pos: int


@dataclass(frozen=True, slots=True)
class PingPayload:
    ping_id: int
    path: tuple[int, ...]
    pos: int


@dataclass(frozen=True, slots=True)
class PongPayload:
    ping_id: int
    path: tuple[int, ...]
    pos: int


@dataclass(frozen=True, slots=True)
class DriReqPayload:
    vet_id: int
    asker: int  # the node whose entry is being requested
    attempt: int


@dataclass(frozen=True, slots=True)
class DriRepPayload:
    vet_id: int
    subject: int  # the asker the reported entry is about
    attempt: int
    sent: int
    received: int


@dataclass(frozen=True, slots=True)
class RelPayload:
    """The traveling reliability accumulator plus its walk bookkeeping."""

    vet_id: int
    rel: float
    path: tuple[int, ...]
    pos: int  # index of the node the packet is moving to
    strikes: int
    checked_hops: int
    returning: bool
    status: int  # VetStatus value, meaningful on the return trip


@dataclass(frozen=True, slots=True)
class BaseReqPayload:
    vet_id: int
    piece: int  # 1 = flags for subject, 2 = onward hop, 3 = flags for onward hop
    subject: int
    voucher: int
    destination: int
    expected_next: int | None
    path: tuple[int, ...]  # source .. voucher
    pos: int
    attempt: int


@dataclass(frozen=True, slots=True)
class BaseRepPayload:
    vet_id: int
    piece: int
    subject: int
    value: object  # piece 1/3: (from_flag, through_flag); piece 2: node id or None
    path: tuple[int, ...]
    pos: int
    attempt: int
