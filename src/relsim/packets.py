"""Packet kinds and payloads exchanged between nodes.

Payloads are immutable; a forwarded packet is a fresh ``Packet`` carrying
either the same payload object or a rebuilt one (e.g. an extended RREQ
path).  Source-routed payloads carry the whole ``path`` and ``pos``, the
index of the node the packet is addressed to.  Every sender hands such a
packet to ``path[pos]``, so a receiver never checks that it is the
addressee, and one relay step is the same ``pos`` shift for every kind:
``at(pos)`` is the payload addressed to ``path[pos]``, built by calling
the constructor, which takes well under half the time of
``dataclasses.replace``.
The header ``(kind, origin, seq_no, payload)`` names no hop, as the
payload already does: a source-routed packet is sent by ``path[pos - 1]``
(a DATA hop counts it as received from that node), a flooded route
request by ``path[-1]``.  A payload holds nothing the header says, such
as the originator (``pkt.origin``).  Control-plane kinds are relayed
even by misbehaving nodes; the data-plane kinds listed in ``DATA_PLANE``
are the ones a black hole silently absorbs.

Payloads are frozen slotted dataclasses, except ``DataPayload``: one is
built per warm-up probe and per DATA hop, so it is a ``NamedTuple``,
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

    def at(self, pos: int) -> RrepPayload:
        return RrepPayload(self.request_id, self.dest_seq, self.path, pos, self.hops)


class DataPayload(NamedTuple):
    flow_id: int
    created_us: int
    path: tuple[int, ...]
    pos: int


@dataclass(frozen=True, slots=True)
class PingPayload:
    """A liveness probe out along ``path``; its PONG retraces it."""

    ping_id: int
    path: tuple[int, ...]
    pos: int

    def at(self, pos: int) -> PingPayload:
        return PingPayload(self.ping_id, self.path, pos)


@dataclass(frozen=True, slots=True)
class DriReqPayload:
    """Asks the receiver for its counts about the sender, ``pkt.origin``."""

    vet_id: int
    attempt: int


@dataclass(frozen=True, slots=True)
class DriRepPayload:
    vet_id: int
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
    pos: int  # index of the node the packet is moving to
    rel: float = 0.0
    strikes: int = 0  # mismatches / exhausted hops so far
    checked_hops: int = 0
    status: VetStatus = VetStatus.IN_PROGRESS

    def at(self, pos: int) -> RelPayload:
        return RelPayload(self.vet_id, self.path, pos, self.rel, self.strikes,
                          self.checked_hops, self.status)


@dataclass(frozen=True, slots=True)
class BaseReqPayload:
    """One question to the voucher ``path[-1]`` about the subject
    ``path[-2]``."""

    vet_id: int
    piece: int  # 1 = flags for subject, 2 = onward hop, 3 = flags for onward hop
    destination: int
    expected_next: int | None  # the onward hop; None when the voucher is the destination
    path: tuple[int, ...]  # source .. subject, voucher
    pos: int
    attempt: int

    def at(self, pos: int) -> BaseReqPayload:
        return BaseReqPayload(self.vet_id, self.piece, self.destination, self.expected_next,
                              self.path, pos, self.attempt)


@dataclass(frozen=True, slots=True)
class BaseRepPayload:
    vet_id: int
    piece: int
    value: object  # piece 1/3: (from_flag, through_flag); piece 2: node id or None
    path: tuple[int, ...]  # the request's path, retraced
    pos: int
    attempt: int

    def at(self, pos: int) -> BaseRepPayload:
        return BaseRepPayload(self.vet_id, self.piece, self.value, self.path, pos, self.attempt)
