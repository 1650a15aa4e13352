import pytest

from relsim import aodv
from relsim.errors import NoRouteError
from relsim.scenario import ScenarioConfig
from relsim.topology import bfs_hop_counts, topology_from_positions

from conftest import blackhole, line_sim, warm_up


def _discover(sim, source, target):
    collected = []
    aodv.initiate_discovery(sim.nodes[source], target, collected.extend)
    sim.run()
    return collected


def test_line_discovery_reaches_destination_in_three_hops():
    sim = line_sim(4)
    candidates = _discover(sim, 0, 3)
    assert candidates, "destination should reply"
    best = min(candidates, key=aodv.candidate_rank_key)
    # oracle: shortest-path length recomputed by breadth-first search
    assert len(best.path) - 1 == bfs_hop_counts(sim.topology, 0)[3] == 3
    assert best.path == (0, 1, 2, 3)


def test_direct_neighbor_replies_with_single_hop():
    sim = line_sim(3)
    candidates = _discover(sim, 0, 1)
    best = min(candidates, key=aodv.candidate_rank_key)
    assert best.path == (0, 1)
    assert len(best.path) - 1 == 1


def test_disconnected_destination_yields_no_route():
    # two disjoint pairs: 0-1 and 2-3 far apart
    topo = topology_from_positions(
        [(0.0, 0.0), (100.0, 0.0), (5000.0, 0.0), (5100.0, 0.0)], 100.0
    )
    from relsim.adversary import honest_profiles
    from relsim.engine import Simulator

    sim = Simulator(topo, honest_profiles(4), ScenarioConfig(seed=2))
    candidates = _discover(sim, 0, 2)
    assert candidates == []


def test_discovery_to_self_is_an_error():
    sim = line_sim(3)
    with pytest.raises(NoRouteError):
        aodv.initiate_discovery(sim.nodes[0], 0, lambda c: None)


def test_duplicate_rreqs_are_suppressed():
    """Each node receives a given (origin, request) once: on a complete
    graph the origin's broadcast reaches every other node, and no relay's
    broadcast queues a copy."""
    positions = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0), (25.0, 25.0)]
    topo = topology_from_positions(positions, 80.0)  # complete graph
    from relsim.adversary import honest_profiles
    from relsim.engine import Simulator

    sim = Simulator(topo, honest_profiles(5), ScenarioConfig(seed=4))
    sim.event_log = []
    _discover(sim, 0, 4)
    from relsim.packets import PacketKind

    rreq_deliveries = [e for e in sim.event_log if e[1] == "deliver" and e[3] == int(PacketKind.RREQ)]
    assert sorted(event[2] for event in rreq_deliveries) == [1, 2, 3, 4]


def test_rrep_installs_forward_routes_at_relays():
    sim = line_sim(4)
    _discover(sim, 0, 3)
    middle = sim.nodes[1]
    entries = middle.routes.entries(3)
    assert entries and entries[0].path == (1, 2, 3)


def test_two_replies_equal_seq_prefer_fewer_hops():
    e_short = aodv.RouteEntry((0, 9, 3), 5)
    e_long = aodv.RouteEntry((0, 8, 7, 3), 5)
    assert aodv.rank_key(e_short) < aodv.rank_key(e_long)


def test_forged_seq_outranks_shorter_honest_route():
    from relsim.packets import RrepPayload

    forged = RrepPayload(request_id=1, dest_seq=105, path=(0, 9, 3), hops=2)
    honest = RrepPayload(request_id=1, dest_seq=5, path=(0, 1, 3), hops=2)
    assert aodv.candidate_rank_key(forged) < aodv.candidate_rank_key(honest)


def test_rrep_for_unknown_discovery_is_dropped():
    sim = line_sim(3)
    node = sim.nodes[0]
    from relsim.packets import Packet, PacketKind, RrepPayload

    stray = Packet(
        kind=PacketKind.RREP, origin=2, seq_no=1,
        payload=RrepPayload(request_id=77, dest_seq=3, path=(0, 1, 2), hops=2),
    )
    aodv.handle_rrep(node, stray)
    assert node.open == {}


def test_discovery_keeps_the_first_reply_along_each_path():
    """A later reply along a path already replied on is dropped, even with a
    fresher sequence number, and the window hands on the kept replies
    themselves, ranked by ``candidate_rank_key``, not in arrival order."""
    from relsim.packets import Packet, PacketKind, RrepPayload

    sim = line_sim(4)
    node = sim.nodes[0]
    collected = []
    aodv.initiate_discovery(node, 3, collected.extend)
    first = RrepPayload(request_id=1, dest_seq=5, path=(0, 1, 2, 3), hops=3)
    fresher = RrepPayload(request_id=1, dest_seq=9, path=(0, 1, 2, 3), hops=3)
    other = RrepPayload(request_id=1, dest_seq=7, path=(0, 1, 3), hops=2)
    for seq_no, reply in enumerate((first, fresher, other), start=1):
        aodv.handle_rrep(node, Packet(PacketKind.RREP, 3, seq_no, reply))
    sim.run()  # the destination's own reply, along (0, 1, 2, 3), comes later still
    assert [id(reply) for reply in collected] == [id(other), id(first)]
    assert collected == sorted(collected, key=aodv.candidate_rank_key)


def test_cached_intermediate_reply_offers_candidate():
    sim = line_sim(5)
    _discover(sim, 1, 4)  # installs routes toward 4 at nodes 1..3
    candidates = _discover(sim, 0, 4)
    paths = {c.path for c in candidates}
    assert (0, 1, 2, 3, 4) in paths
    # node 1 held a cached route and answered from it
    assert any(c.path == (0, 1, 2, 3, 4) for c in candidates)


def test_ping_alive_on_honest_route():
    sim = line_sim(4)
    warm_up(sim)
    _discover(sim, 0, 3)
    results = []
    aodv.ping_destination(sim.nodes[0], 3, lambda alive, path: results.append((alive, path)))
    sim.run()
    assert results == [(True, (0, 1, 2, 3))]
    # the stored path minus endpoints is the intermediate-node list
    assert results[0][1][1:-1] == (1, 2)


def test_ping_on_a_slow_link_waits_for_the_pong():
    """The timeout scales with the link: 40 ms hops make a 240 ms round
    trip on this line, well past a bound sized for the default 3 ms hop."""
    sim = line_sim(4, link_delay_ms=40, link_jitter_ms=1)
    sim.nodes[0].routes.upsert(aodv.RouteEntry((0, 1, 2, 3), 100))
    results = []
    aodv.ping_destination(sim.nodes[0], 3, lambda alive, path: results.append(alive))
    sim.run()
    assert results == [True]


def test_ping_round_trip_carries_one_payload_object(monkeypatch):
    """Every hop of a PING and of its PONG carries the payload object the
    pinging source built, addressed by the header's ``pos``."""
    from relsim.engine import Simulator
    from relsim.packets import PacketKind

    hops = []
    transmit_or_drop = Simulator.transmit_or_drop

    def recorded(sim, src, dst, pkt):
        hops.append((pkt.kind, src, dst, pkt.pos, pkt.payload))
        transmit_or_drop(sim, src, dst, pkt)

    monkeypatch.setattr(Simulator, "transmit_or_drop", recorded)
    sim = line_sim(4)
    sim.nodes[0].routes.upsert(aodv.RouteEntry((0, 1, 2, 3), 100))
    results = []
    aodv.ping_destination(sim.nodes[0], 3, lambda alive, path: results.append(alive))
    sim.run()
    assert results == [True]
    ping, pong = PacketKind.PING, PacketKind.PONG
    assert [hop[:4] for hop in hops] == [
        (ping, 0, 1, 1), (ping, 1, 2, 2), (ping, 2, 3, 3),
        (pong, 3, 2, 2), (pong, 2, 1, 1), (pong, 1, 0, 0),
    ]
    assert all(hop[4] is hops[0][4] for hop in hops)


def test_ping_through_blackhole_stays_silent():
    sim = line_sim(4, {2: blackhole()})
    node = sim.nodes[0]
    node.routes.upsert(aodv.RouteEntry((0, 1, 2, 3), 100))
    results = []
    aodv.ping_destination(node, 3, lambda alive, path: results.append(alive))
    sim.run()
    assert results == [False]


def test_ping_without_route_is_an_error():
    sim = line_sim(3)
    with pytest.raises(NoRouteError):
        aodv.ping_destination(sim.nodes[0], 2, lambda alive, path: None)


def test_reverse_path_soundness_on_random_topology():
    """Every candidate's consecutive members are adjacent in the topology."""
    import random

    from relsim.adversary import honest_profiles
    from relsim.engine import Simulator
    from relsim.topology import build_connected_topology

    rng = random.Random(8)
    topo = build_connected_topology(15, 500.0, 220.0, rng)
    sim = Simulator(topo, honest_profiles(15), ScenarioConfig(seed=8))
    candidates = _discover(sim, 0, 14)
    assert candidates
    for candidate in candidates:
        for u, v in zip(candidate.path, candidate.path[1:]):
            assert v in topo.neighbors[u]


def test_every_rreq_delivery_is_its_receivers_first_copy(monkeypatch):
    """On a 60-node random field at loss 0.1, with two solo black holes,
    a colluding pair and six floods in flight at once, no node, honest or
    hole, is ever handed a second copy of a request, so neither request
    handler needs a duplicate guard."""
    import random

    from relsim import adversary
    from relsim.engine import Simulator
    from relsim.topology import build_connected_topology

    deliveries = []

    def spied(handle):
        def handle_rreq(node, pkt):
            deliveries.append((node.id, (pkt.origin, pkt.payload.request_id)))
            handle(node, pkt)
        return handle_rreq

    monkeypatch.setattr(aodv, "handle_rreq", spied(aodv.handle_rreq))
    monkeypatch.setattr(adversary, "blackhole_on_rreq", spied(adversary.blackhole_on_rreq))
    topo = build_connected_topology(60, 1100.0, 250.0, random.Random(3))
    sources = set(range(6)) | {59 - source for source in range(6)}
    profiles = adversary.assign_adversaries(random.Random(3), topo, sources, 2, 1)
    holes = {i for i, profile in enumerate(profiles) if profile.is_blackhole}
    sim = Simulator(topo, profiles, ScenarioConfig(seed=3, link_loss=0.1))
    for source in range(6):
        aodv.initiate_discovery(sim.nodes[source], 59 - source, lambda cands: None)
    sim.run()
    assert len(set(deliveries)) == len(deliveries) > 6 * 40
    assert all(node_id != key[0] for node_id, key in deliveries)
    assert len(holes) == 4
    assert {node_id for node_id, _ in deliveries} >= holes
    assert all(not n.seen_rreqs for n in sim.nodes)
