import ast
import gc
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim import adversary, engine
from relsim import node as node_module
from relsim.adversary import honest_profiles
from relsim.defense import EMPTY_ENTRY, DriEntry
from relsim.engine import (
    COLLUSION_STREAM,
    MAX_NODES,
    SCENARIO_STREAM,
    EventKind,
    Simulator,
    derive_stream,
)
from relsim.errors import SchedulingError, UndeliverableError
from relsim.metrics import FlowLedger, RunCollector
from relsim.node import Node
from relsim.packets import DataPayload, DriReqPayload, Packet, PacketKind, RreqPayload
from relsim.runner import ScenarioRun
from relsim.scenario import SCHEMES, ScenarioConfig
from relsim.topology import topology_from_positions

from conftest import blackhole, line_sim, probe_record, queued


def _one_hop_data(sim, src, dst, flow=-1):
    """A DATA packet whose path is the edge ``(src, dst)``, of flow ``flow``:
    by default one with no ledger, as every run's flow ids are 0 and up."""
    node = sim.nodes[src]
    return Packet(
        kind=PacketKind.DATA,
        origin=src,
        seq_no=node.next_seq(),
        payload=DataPayload(flow, sim.now_us, (src, dst)), pos=1,
    )


def _assert_dispatch_order(events):
    """Times do not decrease, and events at one time keep insertion order;
    each payload is ``(tag, insertion index)``."""
    for (t0, _, _, p0), (t1, _, _, p1) in zip(events, events[1:]):
        assert t0 < t1 or (t0 == t1 and p0[1] < p1[1])


def test_min_time_pops_first():
    sim = line_sim(2)
    sim.schedule_at(5, EventKind.TIMER, 0, ("a",))
    sim.schedule_at(3, EventKind.TIMER, 0, ("b",))
    order = queued(sim)
    assert [t for t, _, _, _ in order] == [3, 5]
    assert order[0][3] == ("b",)


def test_equal_times_pop_in_insertion_order():
    sim = line_sim(2)
    sim.schedule_at(7, EventKind.TIMER, 0, ("first",))
    sim.schedule_at(7, EventKind.TIMER, 0, ("second",))
    order = queued(sim)
    assert [p for _, _, _, p in order] == [("first",), ("second",)]


def test_thousand_random_inserts_pop_sorted():
    sim = line_sim(2)
    rng = random.Random(21)
    times = [rng.randrange(0, 10_000) for _ in range(1000)]
    for i, t in enumerate(times):
        sim.schedule_at(t, EventKind.TIMER, 0, ("x", i))
    order = queued(sim)
    assert len(order) == 1000
    _assert_dispatch_order(order)


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_pop_sequence_is_sorted_property(times):
    sim = line_sim(2)
    for i, t in enumerate(times):
        sim.schedule_at(t, EventKind.TIMER, 0, ("x", i))
    order = queued(sim)
    assert len(order) == len(times)
    _assert_dispatch_order(order)


@given(
    first=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=30),
    spawned=st.lists(st.lists(st.integers(min_value=0, max_value=8), max_size=3), max_size=80),
    steps=st.lists(st.integers(min_value=0, max_value=12), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_dispatch_order_is_time_then_insertion_property(first, spawned, steps):
    """Timers scheduled up front, from inside handlers at ``now_us`` (delay
    0) or later, and between ``run(until_us=...)`` calls, are dispatched in
    (time, insertion index) order."""
    sim = line_sim(2)
    scheduled: list[tuple[int, int]] = []
    dispatched: list[tuple[int, int]] = []
    spawns = iter(spawned)

    def schedule(time_us):
        sim.schedule_at(time_us, EventKind.APP, -1, len(scheduled))
        scheduled.append((time_us, len(scheduled)))

    def app(index):
        dispatched.append((sim.now_us, index))
        for delay in next(spawns, ()):
            schedule(sim.now_us + delay)

    sim.set_app_handler(app)
    for t in first:
        schedule(t)
    for n in steps:
        until_us = sim.now_us + n
        sim.run(until_us=until_us)
        assert all(t > until_us for t, _, _, _ in queued(sim))
        assert sim.idle() == (not queued(sim))
        # queues ``now_us`` again, after its first bucket drained
        schedule(sim.now_us)
    sim.run()
    assert sim.idle()
    assert dispatched == sorted(scheduled)


def test_scheduling_in_the_past_is_fatal():
    sim = line_sim(2)
    sim.schedule_at(10, EventKind.TIMER, 0, ("later",))
    sim.run()
    assert sim.now_us == 10
    with pytest.raises(SchedulingError):
        sim.schedule_at(5, EventKind.TIMER, 0, ("past",))


def test_fixed_delay_without_jitter_or_loss():
    sim = line_sim(2, link_delay_ms=2, link_jitter_ms=0, link_loss=0.0)
    sim.transmit(0, 1, _one_hop_data(sim, 0, 1))
    assert queued(sim)[0][0] == 2_000


def test_certain_loss_schedules_nothing():
    sim = line_sim(2, link_loss=1.0)
    sim.transmit(0, 1, _one_hop_data(sim, 0, 1))
    assert sim.idle()


def test_broadcast_fans_out_to_every_neighbor():
    # star: center 0 with three leaves in range
    topo = topology_from_positions(
        [(0.0, 0.0), (50.0, 0.0), (-50.0, 0.0), (0.0, 50.0)], 60.0
    )
    sim = Simulator(topo, honest_profiles(4), ScenarioConfig(seed=1, link_loss=0.0))
    sim.broadcast(0, Packet(PacketKind.RREQ, 0, 1, RreqPayload(1, 3, 0, (0,))))
    assert [event[2] for event in queued(sim)] == [1, 2, 3]


def test_unicast_to_non_neighbor_raises():
    sim = line_sim(3)
    with pytest.raises(UndeliverableError):
        sim.transmit(0, 2, _one_hop_data(sim, 0, 2))


def test_transmit_or_drop_counts_undeliverable_flow_packets():
    sim = line_sim(3)
    sim.collector.register_flow(0)
    sim.transmit_or_drop(0, 2, _one_hop_data(sim, 0, 2, flow=0))
    assert sim.collector.flows[0].undeliverable == 1


def test_lossless_unicast_conservation():
    """With loss 0 and no adversaries every transmission delivers once."""
    sim = line_sim(2, link_jitter_ms=0)
    for _ in range(50):
        sim.transmit(0, 1, _one_hop_data(sim, 0, 1))
    sim.run()
    assert sim.nodes[0].dri[1].sent == 50
    assert sim.nodes[1].dri[0].received == 50


def test_identical_seeds_reproduce_event_log():
    def build():
        sim = line_sim(4, seed=33)
        sim.event_log = []
        for j in range(20):
            sim.schedule_at(j * 100, EventKind.APP, 0, ("noop",))
        sim.set_app_handler(lambda payload: None)
        for j in range(10):
            sim.transmit(0, 1, _one_hop_data(sim, 0, 1))
        sim.run()
        return sim.event_log

    assert build() == build()


def test_derived_streams_are_independent_and_stable():
    a1 = [derive_stream(9, 0).random() for _ in range(5)]
    a2 = [derive_stream(9, 0).random() for _ in range(5)]
    b = [derive_stream(9, 1).random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b


def test_stream_index_ranges_do_not_overlap():
    """Node streams, collusion-group streams (at most one group per two
    nodes) and the set-up stream stay apart for every accepted node count."""
    node_streams = range(MAX_NODES)
    group_streams = range(COLLUSION_STREAM, COLLUSION_STREAM + MAX_NODES // 2)
    assert node_streams[-1] < group_streams[0]
    assert group_streams[-1] < SCENARIO_STREAM


@pytest.mark.parametrize("jitter", [0, 1, 7, 1_000, 2**40])
def test_randbelow_draws_what_randint_draws(jitter):
    """``randint(0, jitter)`` is the private ``_randbelow(jitter + 1)``,
    draw for draw: the rejection loop on ``getrandbits`` that
    ``Simulator._send`` writes out (pinned by the next test)."""
    ours, theirs = random.Random(jitter), random.Random(jitter)
    assert [ours._randbelow(jitter + 1) for _ in range(2_000)] == [
        theirs.randint(0, jitter) for _ in range(2_000)
    ]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("loss", [0.0, 0.25])
@pytest.mark.parametrize("jitter", [1, 7, 1_000, 1_023, 1_024])
def test_transmit_jitter_draws_what_randint_draws(jitter, loss):
    """Each unicast takes its loss draw, then, if it survived, arrives at
    ``delay + randint(0, jitter)`` drawn from the sender's stream; the
    stream ends where a twin making those calls ends."""
    seed = 1_000 + jitter
    sim = line_sim(2, seed=seed, link_delay_ms=2, link_jitter_ms=jitter / 1000, link_loss=loss)
    packets = [_one_hop_data(sim, 0, 1) for _ in range(3_000)]
    for pkt in packets:
        sim.transmit(0, 1, pkt)
    arrival = {id(payload): t for t, _, _, payload in queued(sim)}
    twin = derive_stream(seed, 0)
    expected = [
        None if loss > 0.0 and twin.random() < loss else sim.delay_us + twin.randint(0, jitter)
        for _ in packets
    ]
    assert [arrival.get(id(pkt)) for pkt in packets] == expected
    assert sim.rngs[0].getstate() == twin.getstate()
    assert len(set(expected) - {None}) > 1


class _DropLog(RunCollector):
    def __init__(self):
        super().__init__()
        self.drops = []

    def on_link_drop(self, pkt):
        self.drops.append(pkt)


def _star_rreq_broadcast(seed: int, seen: tuple[int, ...]) -> Simulator:
    """Center 0 broadcasts a route request to leaves 1..3 at loss 0.5;
    a copy of it has already been queued for the leaves in ``seen``."""
    topo = topology_from_positions(
        [(0.0, 0.0), (50.0, 0.0), (-50.0, 0.0), (0.0, 50.0)], 60.0
    )
    sim = Simulator(topo, honest_profiles(4), ScenarioConfig(seed=seed, link_loss=0.5))
    sim.collector = _DropLog()
    sim._rreq_reached[(0, 1)] = {0, *seen}
    sim.broadcast(0, Packet(PacketKind.RREQ, 0, 1, RreqPayload(1, 3, 0, (0,))))
    return sim


def test_broadcast_queues_no_copy_for_a_neighbor_that_saw_the_request():
    survived = set()
    for seed in range(16):
        sim = _star_rreq_broadcast(seed, seen=(1, 2))
        twin = _star_rreq_broadcast(seed, seen=())
        twin_queued = [event[2] for event in queued(twin)]
        assert [event[2] for event in queued(sim)] == [d for d in twin_queued if d == 3]
        survived.add(3 in twin_queued)
    assert survived == {True, False}


def test_skipped_rreq_copy_still_takes_its_loss_draw():
    """Leaving a copy unqueued changes neither the sender's stream nor the
    link drops the collector hears of."""
    seen_dropped = 0
    for seed in range(16):
        sim = _star_rreq_broadcast(seed, seen=(1, 2))
        twin = _star_rreq_broadcast(seed, seen=())
        assert sim.rngs[0].getstate() == twin.rngs[0].getstate()
        assert sim.collector.drops == twin.collector.drops
        unseen_lost = 3 not in [event[2] for event in queued(twin)]
        seen_dropped += len(sim.collector.drops) - unseen_lost
    assert seen_dropped > 0  # some copy to a leaf that saw the request was lost


def _probes_to_node_1(sim: Simulator, count: int) -> None:
    """Deliver ``count`` warm-up probes from node 0 to node 1's ``"probe"``
    handler, each carrying node 1's ``dri[0]``, as ``probe_round`` queues
    them."""
    receiver = sim.nodes[1]
    for seq in range(1, count + 1):
        node_module._on_probe(receiver, (0, seq, receiver.dri[0]))


def _acks_to_prober(seed: int, prober_holds_flag: bool) -> Simulator:
    """Node 1 answers 32 probes from its prober, node 0, at loss 0.5; the
    prober's ``acked`` flag for node 1, and node 1's ``peer_acked`` mirror
    of it, are set beforehand or not."""
    sim = line_sim(2, seed=seed, link_loss=0.5)
    sim.collector = _DropLog()
    if prober_holds_flag:
        sim.nodes[0].dri[1] = DriEntry(acked=True)
        sim.nodes[1].dri[0] = DriEntry(peer_acked=True)
    _probes_to_node_1(sim, 32)
    return sim


def test_unqueued_ack_still_takes_its_loss_and_jitter_draws():
    """An ACK its prober already holds is never queued, and its draws are
    owed to the sender's stream: once settled, that stream is the one of a
    run in which every ACK drew when sent and every survivor was queued.
    The link drops differ by design: a lost owed ACK reports none, as an
    ACK has no flow ledger."""
    for seed in range(8):
        sim = _acks_to_prober(seed, prober_holds_flag=True)
        twin = _acks_to_prober(seed, prober_holds_flag=False)
        assert sim.idle()
        assert queued(twin)
        assert sim.nodes[1].owed_acks == 32
        assert twin.nodes[1].owed_acks == 0
        assert sim.rngs[1].getstate() != twin.rngs[1].getstate()
        sim.settle(sim.nodes[1])
        assert sim.rngs[1].getstate() == twin.rngs[1].getstate()
        assert sim.collector.drops == []
        assert 0 < len(twin.collector.drops) < 32


def test_ack_is_queued_while_its_prober_lacks_the_flag():
    """The rule reads the flag when the probe arrives: the ACK of every
    probe received before the first ACK arrives is queued, however many
    are in flight, since jitter may deliver a later one first; none is
    queued after it, and its draws are owed instead."""
    sim = line_sim(2, link_delay_ms=2, link_jitter_ms=10)
    _probes_to_node_1(sim, 3)
    assert len(queued(sim)) == 3
    sim.run()
    assert sim.nodes[0].dri[1].acked
    node_module._on_probe(sim.nodes[1], (0, 4, sim.nodes[1].dri[0]))
    assert sim.idle()
    assert sim.nodes[1].owed_acks == 1
    assert sim.nodes[1]._packet_seq == 4


def _draw_acks(rng: random.Random, count: int, loss: float, jitter_us: int) -> None:
    """Take ``count`` ACKs' draws from ``rng`` as each one sent would: its
    loss draw and, if it survived, ``randint(0, jitter_us)``; no jitter
    takes no draw."""
    for _ in range(count):
        if loss > 0.0 and rng.random() < loss:
            continue
        if jitter_us:
            rng.randint(0, jitter_us)


@pytest.mark.parametrize("loss", [0.0, 0.5])
@pytest.mark.parametrize("jitter_ms", [0, 10])
def test_settling_owed_acks_takes_the_draws_of_acks_sent(loss, jitter_ms):
    """k owed ACKs, once settled, leave the sender's stream where k ACKs
    drawn when sent leave it, and owe nothing more."""
    for seed in range(8):
        k = seed + 1
        sim = line_sim(2, seed=seed, link_loss=loss, link_jitter_ms=jitter_ms)
        sim.nodes[1].dri[0] = DriEntry(peer_acked=True)
        _probes_to_node_1(sim, k)
        assert sim.nodes[1].owed_acks == k
        assert sim.idle()
        sim.settle(sim.nodes[1])
        assert sim.nodes[1].owed_acks == 0
        eager = derive_stream(seed, 1)
        _draw_acks(eager, k, loss, sim.jitter_us)
        assert sim.rngs[1].getstate() == eager.getstate()


DRAW_SITES = {
    "broadcast": lambda sim: sim.broadcast(
        1, Packet(PacketKind.RREQ, 1, 9, RreqPayload(1, 2, 0, (1,)))),
    "_send": lambda sim: sim._send(1, 0, Packet(PacketKind.PING, 1, 9)),
    "ack": lambda sim: sim.ack(1, 0, 9),
    "probe_round": lambda sim: sim.probe_round([probe_record(sim, 1, 2)] * 4),
    "fabricated_counts": lambda sim: adversary.fabricated_counts(sim.nodes[1], None),
}


@pytest.mark.parametrize("site", DRAW_SITES)
def test_every_draw_site_settles_first(site):
    """Node 1 owes three ACKs when a site draws from its stream; the site
    leaves the stream, its result, the queue and the link drops as a twin
    whose three ACKs drew when sent, and node 1 owes nothing after it."""
    for seed in range(8):
        sims = []
        for eager in (False, True):
            sim = line_sim(3, seed=seed, link_loss=0.5, link_jitter_ms=10)
            sim.collector = _DropLog()
            sim.nodes[1].dri[0] = DriEntry(peer_acked=True)
            _probes_to_node_1(sim, 3)
            if eager:
                sim.nodes[1].owed_acks = 0
                _draw_acks(sim.rngs[1], 3, sim.loss, sim.jitter_us)
            result = DRAW_SITES[site](sim)
            assert sim.nodes[1].owed_acks == 0
            sims.append((sim, result))
        (owing, owed_result), (twin, twin_result) = sims
        assert owing.rngs[1].getstate() == twin.rngs[1].getstate()
        assert owed_result == twin_result
        assert [e[:3] for e in queued(owing)] == [e[:3] for e in queued(twin)]
        assert owing.collector.drops == twin.collector.drops


def _stream_readers(tree: ast.Module):
    """Each function in ``tree``, by qualified name, with whether it reads
    a node stream (``.rng`` or ``.rngs[...]``) and whether it calls a
    ``settle`` method."""
    def functions(body, prefix):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                yield from functions(stmt.body, f"{prefix}{stmt.name}.")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{stmt.name}", stmt

    for name, function in functions(tree.body, ""):
        nodes = list(ast.walk(function))
        reads = any(
            isinstance(n, ast.Attribute) and n.attr == "rng"
            or isinstance(n, ast.Subscript) and isinstance(n.value, ast.Attribute)
            and n.value.attr == "rngs"
            for n in nodes
        )
        settles = any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "settle"
            for n in nodes
        )
        yield name, reads, settles


def test_every_function_that_reads_a_node_stream_settles_it():
    """A node stream may owe ACK draws (``Simulator.settle``), so every
    function under ``src/relsim`` that reads one calls ``settle``; only the
    two constructors that build the streams and ``settle`` itself may not."""
    exempt = {"engine.Simulator.__init__", "node.Node.__init__", "engine.Simulator.settle"}
    readers, unsettled = set(), []
    for path in sorted((Path(engine.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, reads, settles in _stream_readers(tree):
            name = f"{path.stem}.{name}"
            if reads:
                readers.add(name)
                if not settles and name not in exempt:
                    unsettled.append(name)
    assert not unsettled
    assert readers >= {
        "node.Node.__init__", "engine.Simulator.settle", "engine.Simulator.broadcast",
        "engine.Simulator._send", "engine.Simulator.probe_round", "adversary.fabricated_counts",
    }


@pytest.mark.parametrize("seed", range(8))
def test_ack_takes_the_draws_of_an_uncounted_send(seed):
    """``ack``'s loss and jitter lines are a copy of ``_send``'s: 32 ACKs
    and 32 uncounted unicasts from one sender leave its stream in one
    state, lose the same copies and queue the rest at the same times."""

    def sent(send_one) -> Simulator:
        sim = line_sim(2, seed=seed, link_loss=0.5, link_jitter_ms=10)
        sim.collector = _DropLog()
        for seq in range(1, 33):
            send_one(sim, seq)
        return sim

    acks = sent(lambda sim, seq: sim.ack(1, 0, seq))
    pings = sent(lambda sim, seq: sim._send(1, 0, Packet(PacketKind.PING, 1, seq)))
    assert acks.rngs[1].getstate() == pings.rngs[1].getstate()
    assert [p.seq_no for p in acks.collector.drops] == [p.seq_no for p in pings.collector.drops]
    assert [(t, p.seq_no) for t, _, _, p in queued(acks)] == [
        (t, p.seq_no) for t, _, _, p in queued(pings)
    ]
    assert 0 < len(acks.collector.drops) < 32
    assert len({t for t, _, _, _ in queued(acks)}) > 1


@pytest.mark.parametrize("seed", range(8))
def test_probe_takes_the_draws_and_the_count_of_a_data_send(seed):
    """``probe_round``'s count, loss and jitter lines are a copy of
    ``_send``'s: a round of 32 probes and 32 DATA unicasts from one sender
    leave its stream in one state and its ``sent`` count and sequence
    number equal, report the same lost packets to ``on_link_drop`` and
    queue the rest at the same times."""

    def fresh() -> Simulator:
        sim = line_sim(2, seed=seed, link_loss=0.5, link_jitter_ms=10)
        sim.collector = _DropLog()
        return sim

    probes = fresh()
    probes.probe_round([probe_record(probes, 1, 0)] * 32)
    receiver_entry = probes.nodes[0].dri[1]
    sends = fresh()
    payload = DataPayload(-1, 0, (1, 0))
    for _ in range(32):
        sends._send(1, 0, Packet(PacketKind.DATA, 1, sends.nodes[1].next_seq(), payload, 1))
    assert probes.rngs[1].getstate() == sends.rngs[1].getstate()
    assert probes.nodes[1].dri[0].sent == sends.nodes[1].dri[0].sent == 32
    assert probes.nodes[1]._packet_seq == sends.nodes[1]._packet_seq == 32
    assert probes.collector.drops == sends.collector.drops
    assert queued(probes) == [
        (t, EventKind.PROBE, 0, (1, p.seq_no, receiver_entry)) for t, _, _, p in queued(sends)
    ]
    assert all(payload[2] is receiver_entry for _, _, _, payload in queued(probes))
    assert 0 < len(probes.collector.drops) < 32
    assert len({t for t, _, _, _ in queued(probes)}) > 1


@pytest.mark.parametrize("hole", [False, True])
def test_probe_is_acknowledged_by_an_honest_node_and_absorbed_by_a_hole(hole):
    """A probe to an honest node is counted received there and draws an
    ACK; a probe to a black hole makes no evidence entry at the hole and
    queues nothing.  Neither touches a flow ledger, and each is logged as a
    DATA delivery from its sender, the tuple the golden event logs pin."""
    sim = line_sim(2, {1: blackhole()} if hole else {}, link_jitter_ms=0)
    sim.event_log = []
    sim.collector.register_flow(0)
    sim.probe_round([probe_record(sim, 0, 1)])
    sim.run()
    assert sim.nodes[0].dri[1].sent == 1
    assert sim.collector.flows[0] == FlowLedger(0)
    probe = (sim.delay_us, "deliver", 1, 0, 0, 1)
    if hole:
        assert sim.nodes[1].dri == {}
        assert sim.event_log == [probe]
    else:
        assert sim.nodes[1].dri[0].received == 1
        assert sim.event_log == [probe, (2 * sim.delay_us, "deliver", 0, 1, 1, 1)]
        assert sim.nodes[0].dri[1].acked


@pytest.mark.parametrize("jitter_ms", [0, 0.002])
def test_probe_round_queues_survivors_in_record_order(monkeypatch, jitter_ms):
    """At loss 0.5, one round over every directed edge of a line, each edge
    twice, queues its surviving probes in record order within each time,
    each with its sender's next sequence number, and hands every lost one
    to ``on_link_drop`` as a one-hop DATA packet of no flow, while no flow
    ledger moves.  A 2 us jitter makes three arrival times, so times are
    shared and mixed."""
    drops = []
    on_link_drop = RunCollector.on_link_drop

    def dropped(collector, pkt):
        drops.append(pkt)
        on_link_drop(collector, pkt)

    monkeypatch.setattr(RunCollector, "on_link_drop", dropped)
    sim = line_sim(6, seed=4, link_loss=0.5, link_jitter_ms=jitter_ms)
    sim.collector.register_flow(0)
    sim.now_us = 1_000
    edges = [(s, r) for u, v in sim.topology.edges() for s, r in ((u, v), (v, u))] * 2
    sim.probe_round([probe_record(sim, s, r) for s, r in edges])
    seqs = {}
    probes = []  # (sender, receiver, seq) in record order
    for s, r in edges:
        seqs[s] = seqs.get(s, 0) + 1
        probes.append((s, r, seqs[s]))
    lost = [(p.origin, p.payload.path[1], p.seq_no) for p in drops]
    for pkt in drops:
        assert pkt == Packet(PacketKind.DATA, pkt.origin, pkt.seq_no,
                             DataPayload(-1, 1_000, (pkt.origin, pkt.payload.path[1])), 1)
    events = queued(sim)
    survived = [(payload[0], node_id, payload[1]) for _, _, node_id, payload in events]
    assert {kind for _, kind, _, _ in events} == {EventKind.PROBE}
    assert sorted(lost + survived) == sorted(probes)
    for time_us in {t for t, _, _, _ in events}:
        at = [probes.index(p) for (t, _, _, _), p in zip(events, survived) if t == time_us]
        assert at == sorted(at)
    assert 0 < len(lost) < len(probes)
    assert len({t for t, _, _, _ in events}) == (1 if jitter_ms == 0 else 3)
    assert all(sim.nodes[s].dri[r].sent == 2 for s, r in edges)
    assert sim.collector.flows[0] == FlowLedger(0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_peer_acked_mirrors_acked_and_no_unqueued_ack_is_built(monkeypatch, scheme):
    """Every directed edge (a, b) has ``a``'s ``peer_acked`` about ``b``
    equal to ``b``'s ``acked`` about ``a``, at every ACK delivery and when
    the run ends.  Every honest probe delivery either calls ``ack`` or owes
    an ACK's draws, and an ACK packet is built only by ``ack``, for an ACK
    it queues or loses: the ACK packets built are the ACK deliveries plus
    the ACK link drops."""
    counts = {"built": 0, "acks": 0, "delivered": 0, "dropped": 0, "probes": 0, "owed": 0}
    build, ack, on_probe = engine.Packet, Simulator.ack, node_module._on_probe
    on_packet, on_link_drop = Node.on_packet, RunCollector.on_link_drop

    def counted_build(kind, *args):
        counts["built"] += kind is PacketKind.ACK
        return build(kind, *args)

    def counted_ack(sim, *args):
        counts["acks"] += 1
        ack(sim, *args)

    def counted_probe(receiver, probe):
        counts["probes"] += 1
        owed = receiver.owed_acks
        on_probe(receiver, probe)
        counts["owed"] += receiver.owed_acks == owed + 1

    def mirrored(nodes):
        for a, node in enumerate(nodes):
            for b in node.neighbors:
                assert (
                    node.dri.get(b, EMPTY_ENTRY).peer_acked
                    == nodes[b].dri.get(a, EMPTY_ENTRY).acked
                ), (a, b)

    def checked_delivery(node, pkt):
        if pkt.kind is PacketKind.ACK:
            counts["delivered"] += 1
            mirrored(node.sim.nodes)
            on_packet(node, pkt)
            mirrored(node.sim.nodes)
        else:
            on_packet(node, pkt)

    def counted_drop(collector, pkt):
        counts["dropped"] += pkt.kind is PacketKind.ACK
        on_link_drop(collector, pkt)

    monkeypatch.setattr(engine, "Packet", counted_build)
    monkeypatch.setattr(Simulator, "ack", counted_ack)
    monkeypatch.setattr(node_module, "_on_probe", counted_probe)
    monkeypatch.setattr(Node, "on_packet", checked_delivery)
    monkeypatch.setattr(RunCollector, "on_link_drop", counted_drop)
    run = ScenarioRun(ScenarioConfig(
        nodes=20, flows=10, blackholes=2, colluding_pairs=1, duration=10.0, seed=10,
        link_delay_ms=20, link_loss=0.05, warmup_packets=250, scheme=scheme,
    ).validate())
    record = run.execute()
    assert not record.failed, record.failure_reason
    mirrored(run.sim.nodes)
    assert counts["built"] == counts["delivered"] + counts["dropped"], counts
    assert counts["built"] == counts["acks"], counts
    assert counts["acks"] + counts["owed"] == counts["probes"], counts
    assert 0 < counts["dropped"] < counts["built"] < counts["owed"], counts


def _lossless_star_rreq() -> tuple[Simulator, Packet]:
    """Center 0 with leaves 1..3 in range, no loss, and a route request
    from 0 to broadcast."""
    topo = topology_from_positions(
        [(0.0, 0.0), (50.0, 0.0), (-50.0, 0.0), (0.0, 50.0)], 60.0
    )
    sim = Simulator(topo, honest_profiles(4), ScenarioConfig(seed=1, link_loss=0.0))
    return sim, Packet(PacketKind.RREQ, 0, 1, RreqPayload(1, 3, 0, (0,)))


def test_broadcast_logs_one_deliver_per_copy():
    sim, rreq = _lossless_star_rreq()
    sim.event_log = []
    sim.broadcast(0, rreq)
    sim.run()
    arrival = sim.delay_us
    assert sim.event_log[:3] == [
        (arrival, "deliver", leaf, int(PacketKind.RREQ), 0, 1) for leaf in (1, 2, 3)
    ]
    assert all(entry[0] > arrival for entry in sim.event_log[3:])


def _lossy_star(seed: int) -> Simulator:
    """Center 0 with leaves 1..3 in range, at loss 0.5."""
    topo = topology_from_positions(
        [(0.0, 0.0), (50.0, 0.0), (-50.0, 0.0), (0.0, 50.0)], 60.0
    )
    return Simulator(topo, honest_profiles(4), ScenarioConfig(seed=seed, link_loss=0.5))


def test_data_unicast_counts_every_copy_as_sent_lost_or_not():
    lost = 0
    for seed in range(16):
        sim = _lossy_star(seed)
        for leaf in (1, 2, 3):
            sim.transmit(0, leaf, _one_hop_data(sim, 0, leaf))
        assert [sim.nodes[0].dri[leaf].sent for leaf in (1, 2, 3)] == [1, 1, 1]
        lost += 3 - len(queued(sim))
    assert lost > 0


def test_lost_data_copy_is_still_counted_sent():
    """The sent count is bumped before the loss draw, so a sender's mirror
    count includes copies the link lost."""
    sim = line_sim(2, link_loss=1.0)
    sim.transmit(0, 1, _one_hop_data(sim, 0, 1))
    assert sim.nodes[0].dri[1].sent == 1
    assert queued(sim) == []


def test_vetting_unicast_counts_one_vet_message_per_copy_lost_or_not():
    lost = 0
    for seed in range(16):
        sim = _lossy_star(seed)
        for leaf in (1, 2, 3):
            sim.transmit(0, leaf, Packet(PacketKind.DRI_REQ, 0, 1, DriReqPayload(1, 0)))
        assert sim.collector.vet_messages == 3
        lost += 3 - len(queued(sim))
    assert lost > 0


# -- the cyclic garbage collector is off while the loop runs ---------------


def _set_gc(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_before(request):
    """The GC on or off before the test's runs; put back as it was after."""
    enabled = gc.isenabled()
    _set_gc(request.param)
    yield request.param
    _set_gc(enabled)


def _gc_watching_sim(fail_at: int | None = None):
    """A simulator whose app events note whether the GC was on, with one
    event at each of the times 10, 20 and 30; the one at ``fail_at`` raises."""
    sim = line_sim(2)
    seen = []

    def app(payload):
        seen.append(gc.isenabled())
        if payload == fail_at:
            raise RuntimeError("handler failed")

    sim.set_app_handler(app)
    for t in (10, 20, 30):
        sim.schedule_at(t, EventKind.APP, 0, t)
    return sim, seen


def test_run_leaves_the_gc_as_it_found_it_when_the_queue_drains(gc_before):
    sim, seen = _gc_watching_sim()
    sim.run()
    assert sim.idle()
    assert seen == [False, False, False]
    assert gc.isenabled() is gc_before


def test_run_leaves_the_gc_as_it_found_it_after_until(gc_before):
    sim, seen = _gc_watching_sim()
    sim.run(until_us=15)
    assert seen == [False]
    assert gc.isenabled() is gc_before
    sim.run()
    assert seen == [False, False, False]
    assert gc.isenabled() is gc_before


def test_run_leaves_the_gc_as_it_found_it_when_a_handler_raises(gc_before):
    sim, seen = _gc_watching_sim(fail_at=20)
    with pytest.raises(RuntimeError, match="handler failed"):
        sim.run()
    assert seen == [False, False]
    assert gc.isenabled() is gc_before


def test_nested_run_keeps_the_gc_off_for_the_rest_of_the_outer_loop(gc_before):
    sim, seen = _gc_watching_sim()
    inner = line_sim(2)
    inner.schedule_at(5, EventKind.TIMER, 0, ("x",))
    sim.schedule_at(15, EventKind.APP, 0, "nested")
    handler = sim._app_handler

    def app(payload):
        if payload == "nested":
            inner.run()
        handler(payload)

    sim.set_app_handler(app)
    sim.run()
    assert inner.idle()
    assert seen == [False, False, False, False]
    assert gc.isenabled() is gc_before
