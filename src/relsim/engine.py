"""Deterministic discrete-event engine and link-level delivery.

Time is integer microseconds.  Events are totally ordered by time, and
events at one time by insertion order, so two runs over the same scenario
and seed replay the exact same trace.  The queue is the simplest calendar
queue (R. Brown, CACM 31(10), 1988): a heap of the distinct pending times
and, per time, a bucket of its events.  Events that share a time (a
broadcast's copies, a warm-up round's probes) share one heap entry.  Most
events are alone at their time, so a bucket is a plain list, which ``run``
iterates over: it keeps its dispatched events until it is drained.
Every node owns a pseudo-random stream derived from ``(seed, node_id)``;
link jitter and loss are always drawn from the *sender's* stream.

The per-hop path is flat: ``broadcast`` floods a route request, all a
run ever floods, with one bucket for all its copies; ``probe_round``
sends a warm-up round's probes; and ``_send`` is the one path of every
other unicast, a probe's ACK included, with its jitter draw and enqueue
inline: it bumps the sender's DRI ``sent`` count for a DATA copy itself,
before the loss draw, and counts vetting messages.  A DATA hop is one
``Node._on_data`` call, which counts the copy received and then either
relays the same packet, its ``pos`` moved on, through
``transmit_or_drop`` (a forged path may name a hop that does not exist)
or hands it to the collector as delivered; every DATA packet belongs to
a flow.  A warm-up probe is no DATA packet: ``probe_round`` bumps each
sender's ``sent`` count and takes ``_send``'s draws, with no adjacency
test, as each probe's edge is a topology edge, and queues a ``PROBE``
event that carries the sender, the probe's sequence number and the
receiver's evidence entry for the sender.  The receiver's ``"probe"``
handler counts it received and acknowledges it, or, at a black hole,
absorbs it.

A transmission is not always a delivery.  The link layer queues only
copies that can change their receiver: a route request copy goes only to
a node that no copy of that request has been queued for yet, and an ACK
whose prober already holds the acknowledgement flag for the sender is
neither built nor queued: ``node._on_probe`` owes its draws to the
sender's stream, and ``settle`` takes them before the stream's next draw.
No owed value is read, and a stream yields one sequence of words
whenever they are taken (Matsumoto and Nishimura, ACM TOMACS 8(1),
1998), so every stream is as if each ACK had drawn when sent; draws
still owed when a run ends are never taken.  The radio still sent every
unqueued copy, so a count of transmissions or of energy must be taken
in ``broadcast``, ``_send`` and ``probe_round``, and where an ACK is
owed, not at dispatch; the event log records only the queued copies.

``run`` is the one loop: it drains the queue, or stops before the first
time past ``until_us``.  Setting ``event_log`` to a list records one
tuple per dispatched event; production runs leave it ``None``.  A
delivery's tuple copies the header fields it logs, never the packet, as
a DATA relay moves the packet's ``pos`` after dispatch.  A probe is
logged as a DATA delivery from its sender, the tuple the pinned event
logs of ``tests/test_golden.py`` hold for it.  A run whose handler
raised is never resumed: ``run_scenario`` and ``sweep_records`` discard it.

``run`` also turns CPython's cyclic garbage collector off for its loop and
back on only if it was on.  Warm-up queues tens of thousands of events
at once, which would otherwise trigger a full collection pass over the
live queue every round, and reference counting still frees every packet
and event as soon as it is done.  A run must therefore create no
reference cycles; ``runner.run_scenario`` collects the one a finished
run leaves, its ``Simulator``/``Node`` graph, once per run.
"""

from __future__ import annotations

import gc
from enum import IntEnum
from heapq import heappop, heappush
from itertools import count
from random import Random
from typing import TYPE_CHECKING, Callable

from .errors import SchedulingError, UndeliverableError
from .packets import VETTING_KINDS, DataPayload, Packet, PacketKind
from .topology import Topology

if TYPE_CHECKING:
    from .defense import DriEntry
    from .node import Node
    from .scenario import ScenarioConfig

MICROS_PER_MS = 1_000
MICROS_PER_S = 1_000_000

_STREAM_SALT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# Stream indices under one seed: node i draws from stream i, collusion group g
# from COLLUSION_STREAM + g (at most MAX_NODES // 2 groups), set-up from SCENARIO_STREAM.
MAX_NODES = 0x10000
COLLUSION_STREAM = MAX_NODES
SCENARIO_STREAM = 0x20000


def derive_stream(seed: int, index: int) -> Random:
    """Independent deterministic RNG for stream ``index`` under ``seed``."""
    mixed = ((seed & _MASK64) * _STREAM_SALT + index * 0x100000001B3 + 1) & _MASK64
    return Random(mixed)


class EventKind(IntEnum):
    DELIVER = 0
    TIMER = 1
    APP = 2
    PROBE = 3


# kinds are queued as plain ints, cheaper to look up and compare than members
_DELIVER, _TIMER, _PROBE = int(EventKind.DELIVER), int(EventKind.TIMER), int(EventKind.PROBE)
# a module global is read about ten times faster than an enum member
_DATA, _ACK = PacketKind.DATA, PacketKind.ACK


class Simulator:
    """Owns the clock, the event queue, and one Node per topology vertex.

    ``cfg`` is the run's one configuration: its seed derives every RNG
    stream, its link fields fix the per-hop delivery model (fixed delay,
    uniform jitter, iid loss) and its vetting fields drive both vetting
    schemes, which read ``sim.cfg`` as they run.  The link times are
    converted to whole microseconds here, once, rounded to the nearest.
    """

    def __init__(self, topology: Topology, profiles, cfg: ScenarioConfig):
        from .metrics import RunCollector
        from .node import Node, event_handlers

        self.topology = topology
        self.cfg = cfg
        self.delay_us = round(cfg.link_delay_ms * MICROS_PER_MS)
        self.jitter_us = round(cfg.link_jitter_ms * MICROS_PER_MS)
        self.loss = cfg.link_loss
        # ``randint(0, jitter_us)`` as a rejection loop over ``bits`` random bits
        self._jitter_bound = self.jitter_us + 1
        self._jitter_bits = self._jitter_bound.bit_length()
        self.now_us = 0
        self.collector = RunCollector()
        self.profiles = profiles
        # set to a list to record every dispatched event (tests, fingerprints)
        self.event_log: list[tuple] | None = None
        # every time in the heap has a bucket, never empty; the bucket being
        # drained keeps its dispatched events until its time leaves the heap
        self._times: list[int] = []
        self._buckets: dict[int, list[tuple[int, int, object]]] = {}
        # ``next_id()`` hands out conversation ids (see ``node``), one counter per run
        self.next_id = count(1).__next__
        # route request (origin, request_id) -> nodes a copy has been queued for
        self._rreq_reached: dict[tuple[int, int], set[int]] = {}
        self._app_handler: Callable[[object], None] | None = None
        self.rngs = [derive_stream(cfg.seed, i) for i in range(topology.node_count)]
        # built per simulator, so that handlers replaced on their modules apply
        tables = {role: event_handlers(role) for role in (False, True)}
        self.nodes = [
            Node(self, i, profiles[i], topology.neighbors[i], tables[profiles[i].is_blackhole])
            for i in range(topology.node_count)
        ]

    # -- scheduling ---------------------------------------------------

    def schedule_at(self, time_us: int, kind: EventKind, node_id: int, payload) -> None:
        if time_us < self.now_us:
            raise SchedulingError(
                f"event at t={time_us}us is before current time {self.now_us}us"
            )
        self._queue(time_us, [(int(kind), node_id, payload)])

    def _queue(self, time_us: int, events: list[tuple[int, int, object]]) -> None:
        """Queue ``events`` behind every event already at ``time_us``; a new
        time takes the list itself as its bucket and is pushed on the heap."""
        bucket = self._buckets.get(time_us)
        if bucket is None:
            self._buckets[time_us] = events
            heappush(self._times, time_us)
        else:
            bucket.extend(events)

    def schedule_timer(self, node_id: int, delay_us: int, payload) -> None:
        self.schedule_at(self.now_us + delay_us, EventKind.TIMER, node_id, payload)

    def set_app_handler(self, handler: Callable[[object], None]) -> None:
        self._app_handler = handler

    # -- link layer ---------------------------------------------------

    def transmit(self, src: int, dst: int, packet: Packet) -> None:
        """Schedule unicast delivery of ``packet`` from ``src`` to ``dst``.

        Raises ``UndeliverableError`` for non-adjacent endpoints: honest
        protocol code must never unicast off the topology.
        """
        if dst not in self.topology.neighbors[src]:
            raise UndeliverableError(f"{src} -> {dst}: nodes are not adjacent")
        self._send(src, dst, packet)

    def transmit_or_drop(self, src: int, dst: int, packet: Packet) -> None:
        """Forwarding along unverified (possibly forged) paths: a hop that
        does not exist drops the packet instead of crashing the run."""
        if dst not in self.topology.neighbors[src]:
            self.collector.on_undeliverable(packet)
            return
        self._send(src, dst, packet)

    def broadcast(self, src: int, packet: Packet) -> None:
        """Flood the route request ``packet`` to every neighbor of ``src``,
        each copy with its own loss draw but no jitter, so that the first
        copy of a request anywhere arrives along a minimum-hop chain.  All
        copies land at one time, in one heap entry, and are delivered in
        neighbor order, each logged as its own ``deliver``.  A route
        request is neither DATA nor vetting traffic, so no copy is counted.

        Each request ``(origin, request_id)`` queues at most one copy per
        node, and none for its origin.  Floods have no jitter and one fixed
        delay, so the first copy queued for a node is the first it
        receives; every later copy would arrive after it and be dropped as
        a duplicate.  An unqueued copy still takes its loss draw and still
        reports its link drop, and the radio still sent it, so an energy
        count must charge its reception.
        """
        key = (packet.origin, packet.payload.request_id)
        reached = self._rreq_reached.get(key)
        if reached is None:
            reached = self._rreq_reached[key] = {packet.origin}
        node = self.nodes[src]
        if node.owed_acks:
            self.settle(node)
        loss = self.loss
        random = node.rng.random
        copies = []
        for dst in self.topology.neighbors[src]:
            if loss > 0.0 and random() < loss:
                self.collector.on_link_drop(packet)
            elif dst not in reached:
                reached.add(dst)
                copies.append((_DELIVER, dst, packet))
        if copies:
            self._queue(self.now_us + self.delay_us, copies)

    def _send(self, src: int, dst: int, packet: Packet) -> None:
        """Unicast one copy: count it, draw its loss and then its jitter
        from the sender's stream, and queue its delivery unless it was lost.
        This is the path of every unicast but a warm-up probe, which
        ``probe_round`` sends.  A DATA copy bumps the sender's
        ``dri[dst].sent`` before the loss draw, so the count reflects what
        was transmitted, lost or not; the table is a ``defaultdict``, so the
        first copy makes the entry.

        The jitter draw is ``randint(0, jitter_us)`` written out: the
        rejection loop ``Random._randbelow`` runs on ``getrandbits``, so it
        takes the same draws (``tests/test_engine.py`` pins both).
        """
        node = self.nodes[src]
        if node.owed_acks:
            self.settle(node)
        kind = packet.kind
        if kind is _DATA:
            node.dri[dst].sent += 1
        elif kind in VETTING_KINDS:
            self.collector.on_vet_message(packet)
        rng = node.rng
        loss = self.loss
        if loss > 0.0 and rng.random() < loss:
            self.collector.on_link_drop(packet)
            return
        time_us = self.now_us + self.delay_us
        bound = self._jitter_bound
        if bound > 1:
            bits = self._jitter_bits
            getrandbits = rng.getrandbits
            draw = getrandbits(bits)
            while draw >= bound:
                draw = getrandbits(bits)
            time_us += draw
        # ``_queue`` inlined, as this runs once per unicast
        bucket = self._buckets.get(time_us)
        if bucket is None:
            self._buckets[time_us] = [(_DELIVER, dst, packet)]
            heappush(self._times, time_us)
        else:
            bucket.append((_DELIVER, dst, packet))

    def ack(self, src: int, dst: int, seq: int) -> None:
        """Acknowledge a probe that ``src`` received from the prober
        ``dst``, with ``seq`` as the ACK's sequence number: an uncounted
        ``_send``, so a lost ACK reaches ``on_link_drop`` as a packet.
        ``node._on_probe`` calls this only while ``src``'s own
        ``dri[dst].peer_acked`` is false.  That flag mirrors the prober's
        ``acked`` flag for ``src``, as ``node._on_ack`` sets both, and
        neither is ever cleared, so a later ACK would change nothing: its
        draws are owed to ``src``'s stream instead (see ``settle``).
        """
        self._send(src, dst, Packet(_ACK, src, seq))

    def settle(self, node: Node) -> None:
        """Take the draws of the ACKs ``node`` owes its stream: each takes
        ``_send``'s loss draw and, unless that lost it, its jitter rejection
        loop.  No value is read, so only the words taken matter, and a lost
        owed ACK reports no link drop, as it has no flow ledger.  Every
        other function that draws from a node stream calls this first
        (``tests/test_engine.py`` checks the source for it).
        """
        rng = node.rng
        loss = self.loss
        bound = self._jitter_bound
        bits = self._jitter_bits
        for _ in range(node.owed_acks):
            if loss > 0.0 and rng.random() < loss:
                continue
            if bound > 1:
                while rng.getrandbits(bits) >= bound:
                    pass
        node.owed_acks = 0

    def probe_round(self, records: list[tuple[Node, int, DriEntry, DriEntry | None]]) -> None:
        """Send one warm-up round: for each record ``(sender, receiver,
        entry, receiver_entry)`` in order, a probe from the node ``sender``
        to ``receiver`` with the sender's next sequence number.  It settles
        the sender's owed draws, bumps ``entry``, the sender's
        ``dri[receiver]``, and takes ``_send``'s loss draw and then its
        jitter draw from the sender's stream, in lines copied from ``_send``
        (``tests/test_engine.py`` pins the two together).  A lost probe
        reaches ``on_link_drop`` as a DATA packet of flow id -1.

        A probe that survives both draws is queued as a ``PROBE`` event
        carrying ``(sender id, seq, receiver_entry)``: the receiver's
        ``dri[sender]``, or ``None`` at a black hole, is all that its
        ``"probe"`` handler reads besides, so delivery looks nothing up,
        and no packet is built.  Every record's edge is a topology edge, so
        the edge is not checked.
        """
        now_us = self.now_us
        base_us = now_us + self.delay_us
        loss = self.loss
        bound = self._jitter_bound
        bits = self._jitter_bits
        buckets = self._buckets
        times = self._times
        for node, dst, entry, receiver_entry in records:
            if node.owed_acks:
                self.settle(node)
            entry.sent += 1
            node._packet_seq = seq = node._packet_seq + 1
            rng = node.rng
            if loss > 0.0 and rng.random() < loss:
                src = node.id
                self.collector.on_link_drop(
                    Packet(_DATA, src, seq, DataPayload(-1, now_us, (src, dst)), 1))
                continue
            time_us = base_us
            if bound > 1:
                getrandbits = rng.getrandbits
                draw = getrandbits(bits)
                while draw >= bound:
                    draw = getrandbits(bits)
                time_us += draw
            bucket = buckets.get(time_us)
            if bucket is None:
                buckets[time_us] = [(_PROBE, dst, (node.id, seq, receiver_entry))]
                heappush(times, time_us)
            else:
                bucket.append((_PROBE, dst, (node.id, seq, receiver_entry)))

    # -- main loop ----------------------------------------------------

    def run(self, until_us: int | None = None) -> None:
        """Process events in time order, ties in insertion order, until the
        queue drains or, with ``until_us``, until only later times are
        queued; ``until_us`` is checked once per time.

        An event queued at ``now_us`` during dispatch joins the tail of the
        bucket being drained.  A bucket keeps its dispatched events until it
        is drained and deleted, so a run whose handler raised is never
        resumed, which would dispatch them again: ``runner.run_scenario``
        and ``cli.sweep_records`` discard it.  When ``event_log`` is a list,
        each dispatched event is appended to it.  ``event_log`` and the app
        handler are read once per call.

        The cyclic garbage collector is off while the loop runs and is
        turned back on afterwards only if it was on, whether the loop
        returned or raised.
        """
        times = self._times
        buckets = self._buckets
        nodes = self.nodes
        event_log = self.event_log
        app_handler = self._app_handler
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while times:
                time_us = times[0]
                if until_us is not None and time_us > until_us:
                    break
                self.now_us = time_us
                for kind, node_id, payload in buckets[time_us]:
                    if kind == _DELIVER:
                        if event_log is not None:
                            pkt: Packet = payload  # type: ignore[assignment]
                            event_log.append((
                                time_us, "deliver", node_id, int(pkt.kind), pkt.origin,
                                pkt.seq_no,
                            ))
                        nodes[node_id].on_packet(payload)
                    elif kind == _PROBE:
                        if event_log is not None:
                            # as a DATA delivery: the pinned event logs hold that tuple
                            event_log.append(
                                (time_us, "deliver", node_id, 0, payload[0], payload[1]))
                        node = nodes[node_id]
                        node.handlers["probe"](node, payload)
                    elif kind == _TIMER:
                        if event_log is not None:
                            event_log.append((time_us, "timer", node_id, payload[0]))
                        nodes[node_id].on_timer(payload)
                    else:
                        if event_log is not None:
                            event_log.append((time_us, "app", node_id, payload))
                        if app_handler is not None:
                            app_handler(payload)
                heappop(times)
                del buckets[time_us]
        finally:
            if gc_was_enabled:
                gc.enable()

    def idle(self) -> bool:
        return not self._times
