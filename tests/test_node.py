"""Per-role dispatch tables: coverage, the black-hole overrides, and when
the handlers are read off their modules."""

import sys

import pytest

from relsim import aodv
from relsim.adversary import ROLE_TABLE, AdversaryProfile
from relsim.baseline import flags
from relsim.engine import EventKind, Simulator
from relsim.metrics import ground_truth_route_mrr
from relsim.node import Node, event_handlers
from relsim.packets import DriReqPayload, Packet, PacketKind
from relsim.runner import run_scenario
from relsim.scenario import ScenarioConfig

from conftest import is_hole, line_sim, warm_up

SOURCE_ROUTED = {
    PacketKind.DATA, PacketKind.RREP, PacketKind.PING, PacketKind.PONG, PacketKind.REL,
    PacketKind.BASE_REQ, PacketKind.BASE_REP,
}
TIMER_TAGS = {"rel_tf", "vet_deadline", "base_tf", "base_deadline", "discovery", "ping"}


@pytest.mark.parametrize("role", ROLE_TABLE)
def test_role_table_covers_every_kind_and_timer_tag(role):
    assert set(event_handlers(role)) == set(PacketKind) | TIMER_TAGS | {"probe"}


def test_blackhole_table_overrides_only_what_a_hole_mishandles():
    """Each role's table differs from the honest one at exactly the keys
    its overrides name, and the black hole's at exactly these eight."""
    expected = {
        "honest": set(),
        "blackhole": {
            PacketKind.DATA, PacketKind.ACK, PacketKind.PING, PacketKind.PONG,
            PacketKind.RREQ, PacketKind.DRI_REQ, PacketKind.BASE_REQ, "probe",
        },
    }
    assert set(expected) == set(ROLE_TABLE)
    honest = event_handlers("honest")
    for role, keys in expected.items():
        table = event_handlers(role)
        assert {key for key in honest if table[key] is not honest[key]} == keys, role
        assert set(ROLE_TABLE[role].overrides()) == keys, role


def _rreq_handler(role: str):
    """Where the ``role`` table's route-request handler is read from."""
    handler = event_handlers(role)[PacketKind.RREQ]
    return sys.modules[handler.__module__], handler.__name__, {1: AdversaryProfile(role)}


@pytest.mark.parametrize("module, name, roles", [_rreq_handler(role) for role in ROLE_TABLE])
def test_handler_replaced_before_the_simulator_is_built_is_called(
    monkeypatch, module, name, roles
):
    """For every role, node 1 of a line holding it is handed the request
    of a discovery and calls the route-request handler that was on its
    module when the simulator was built."""
    receivers = []
    monkeypatch.setattr(module, name, lambda node, pkt: receivers.append(node.id))
    sim = line_sim(3, roles)
    aodv.initiate_discovery(sim.nodes[0], 2, lambda candidates: None)
    sim.run()
    assert receivers == [1]


@pytest.mark.parametrize("loss", [0.0, 0.05])
@pytest.mark.parametrize("scheme", ["undefended", "baseline", "proposed"])
def test_source_routed_packets_go_to_path_at_pos(monkeypatch, scheme, loss):
    """Every sender of a source-routed packet hands it to ``path[pos]``, so
    a receiver never has to check that it is the addressee, and every DATA
    copy is sent by ``path[pos - 1]``, so its receiver knows the sender.
    Every hop of one DATA packet carries the payload object its source
    built.  Each unicast copy but a warm-up probe passes through
    ``Simulator._send``, so that is where this is checked, and every DATA
    copy there belongs to a flow.  A probe passes through
    ``Simulator.probe_round`` alone, as a record naming its sender, its
    receiver, the sender's evidence entry for the receiver and the
    receiver's for the sender (``None`` at a black hole), so it is checked
    there to cross a topology edge.  The run must have shown it probes and
    relayed DATA hops."""
    seen = []
    data_payloads = {}
    probes = relays = 0
    send, probe_round = Simulator._send, Simulator.probe_round

    def checked(sim, src, dst, pkt):
        nonlocal relays
        if pkt.kind in SOURCE_ROUTED:
            seen.append(pkt.kind)
            path = pkt.payload.path
            assert dst == path[pkt.pos], (pkt, src, dst)
            if pkt.kind is PacketKind.DATA:
                assert src == path[pkt.pos - 1], (pkt, src, dst)
                first = data_payloads.setdefault((pkt.origin, pkt.seq_no), pkt.payload)
                assert pkt.payload is first, (pkt, first)
                assert pkt.payload.flow_id >= 0, pkt
                if pkt.pos >= 2:
                    relays += 1
        return send(sim, src, dst, pkt)

    def checked_probe_round(sim, records):
        nonlocal probes
        for sender, receiver, entry, receiver_entry in records:
            assert receiver in sim.topology.neighbors[sender.id], (sender.id, receiver)
            assert entry is sender.dri[receiver], (sender.id, receiver)
            assert receiver_entry is sim.nodes[receiver].dri.get(sender.id), (sender.id, receiver)
            assert (receiver_entry is None) == is_hole(sim, receiver)
        probes += len(records)
        return probe_round(sim, records)

    monkeypatch.setattr(Simulator, "_send", checked)
    monkeypatch.setattr(Simulator, "probe_round", checked_probe_round)
    record = run_scenario(ScenarioConfig(
        nodes=30, area_side=775.0, flows=8, blackholes=2, colluding_pairs=2,
        duration=10.0, seed=3, scheme=scheme, link_loss=loss,
    ).validate())
    assert not record.failed, record.failure_reason
    assert PacketKind.DATA in seen
    assert probes > 0 and relays > 0, (probes, relays)


@pytest.mark.parametrize("scheme", ["undefended", "baseline", "proposed"])
def test_data_relayed_in_place_is_delivered_to_path_at_pos(monkeypatch, scheme):
    """A DATA relay moves the ``pos`` of the packet it received and sends
    that object on.  With slow, lossy links keeping many copies in flight,
    every DATA delivery still reaches ``path[pos]``, and the delivered
    object occurs exactly once in the whole queue: in the slot being
    dispatched, which stays in the bucket of the current time until that
    bucket is drained.  So no pending copy sees its ``pos`` move."""
    deliveries = relayed = 0
    on_packet = Node.on_packet

    def checked(node, pkt):
        nonlocal deliveries, relayed
        if pkt.kind is PacketKind.DATA:
            deliveries += 1
            relayed += pkt.pos >= 2
            assert node.id == pkt.payload.path[pkt.pos], (pkt, node.id)
            slots = [
                time_us
                for time_us, bucket in node.sim._buckets.items()
                for _, _, queued in bucket if queued is pkt
            ]
            assert slots == [node.sim.now_us], (pkt, slots)
        on_packet(node, pkt)

    monkeypatch.setattr(Node, "on_packet", checked)
    record = run_scenario(ScenarioConfig(
        nodes=20, flows=10, blackholes=2, colluding_pairs=1, duration=10.0, seed=10,
        link_delay_ms=20, link_loss=0.05, scheme=scheme,
    ).validate())
    assert not record.failed, record.failure_reason
    assert relayed > 0, (deliveries, relayed)


def test_evidence_reads_create_no_entry():
    """Only traffic makes a ``dri`` entry: a flag lookup, a DRI reply and a
    route score about a node never exchanged data with leave the table as
    it was.  On the line 0-1-2-3, node 0 and node 3 are not neighbours."""
    sim = line_sim(4)
    warm_up(sim)
    assert flags(sim.nodes[0], 3) == (False, False)
    assert 3 not in sim.nodes[0].dri
    # node 0 asks node 3 for its counts about node 0; the reply is dropped,
    # as the two are not adjacent
    ask = Packet(PacketKind.DRI_REQ, 0, sim.nodes[0].next_seq(), DriReqPayload(1, 1))
    sim.schedule_at(sim.now_us, EventKind.DELIVER, 3, ask)
    sim.run()
    assert 0 not in sim.nodes[3].dri
    # the hop 0 -> 2 does not exist, so node 2 holds nothing about node 0
    assert ground_truth_route_mrr(sim, (0, 2, 3)) == 1.0
    assert 0 not in sim.nodes[2].dri
