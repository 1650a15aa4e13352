import ast
import random
from pathlib import Path

import pytest

from relsim import adversary, aodv
from relsim.adversary import ROLE_TABLE, assign_adversaries, collusion_story, honest_profiles
from relsim.defense import VetStatus, cross_check, DriEntry
from relsim.errors import TopologyError
from relsim.packets import DataPayload, Packet, PacketKind
from relsim.scenario import ScenarioConfig
from relsim.topology import build_connected_topology, topology_from_positions

from conftest import blackhole, line_sim, vet, warm_up


def _discover(sim, source, target):
    collected = []
    aodv.initiate_discovery(sim.nodes[source], target, collected.extend)
    sim.run()
    return collected


def test_forged_reply_wins_ranking_over_longer_honest_route():
    """Black hole two hops out vs honest route three hops: ranking oracle."""
    # diamond: 0-1-4 honest chain (3 hops 0-1-2-4) plus 0-3, 3 is the hole
    positions = [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (0.0, 100.0), (300.0, 0.0)]
    topo = topology_from_positions(positions, 100.0)
    from relsim.engine import Simulator

    profiles = honest_profiles(5)
    profiles[3] = blackhole()
    sim = Simulator(topo, profiles, ScenarioConfig(seed=6))
    candidates = _discover(sim, 0, 4)
    paths = {c.path for c in candidates}
    assert (0, 1, 2, 4) in paths  # honest
    assert (0, 3, 4) in paths  # forged
    best = min(candidates, key=aodv.candidate_rank_key)
    assert best.path == (0, 3, 4)
    forged = next(c for c in candidates if c.path == (0, 3, 4))
    honest = next(c for c in candidates if c.path == (0, 1, 2, 4))
    # apply the ranking rule by hand to both replies
    assert forged.dest_seq > honest.dest_seq
    assert aodv.candidate_rank_key(forged) < aodv.candidate_rank_key(honest)


def test_two_blackholes_both_enter_candidate_set():
    positions = [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (0.0, 100.0), (100.0, 100.0)]
    topo = topology_from_positions(positions, 120.0)
    from relsim.engine import Simulator

    profiles = honest_profiles(5)
    profiles[3] = blackhole()
    profiles[4] = blackhole()
    sim = Simulator(topo, profiles, ScenarioConfig(seed=6))
    candidates = _discover(sim, 0, 2)
    forged = [c for c in candidates if 3 in c.path or 4 in c.path]
    assert len(forged) >= 2


def test_honest_node_never_forges():
    sim = line_sim(4)
    candidates = _discover(sim, 0, 3)
    assert all(c.dest_seq < 100 for c in candidates)
    assert {c.path for c in candidates} == {(0, 1, 2, 3)}


def test_data_absorption_is_total():
    sim = line_sim(4, {2: blackhole()})
    ledger = sim.collector.register_flow(0)
    for _ in range(100):
        ledger.generated += 1
        node = sim.nodes[0]
        pkt = Packet(
            kind=PacketKind.DATA, origin=0,
            seq_no=node.next_seq(),
            payload=DataPayload(0, sim.now_us, (0, 1, 2, 3)), pos=1,
        )
        sim.transmit(0, 1, pkt)
    sim.run()
    assert ledger.delivered == 0
    assert ledger.blackhole_drops == 100


def test_blackhole_still_answers_control_queries():
    sim = line_sim(4, {2: blackhole()})
    warm_up(sim)
    result = vet(sim, "proposed", 0, (0, 1, 2, 3))
    # a reply arrived (otherwise timeouts would mark it untrusted);
    # the fabricated counts fail the mirror check instead
    assert result.status is VetStatus.REL_ZEROED


def test_fabricated_counts_fail_cross_check_against_truth():
    sim = line_sim(4, {2: blackhole()})
    warm_up(sim)
    truth = sim.nodes[1].dri[2]
    assert (truth.sent, truth.received) == (10, 0)
    story = collusion_story(sim.cfg.seed, 0)
    assert 20 <= story <= 60
    # any fabricated equal pair in [20, 60] is mirror-inconsistent here
    for claimed in range(20, 61):
        assert not cross_check(truth, DriEntry(sent=claimed, received=claimed), 2)


def test_colluding_pair_vouches_consistently_but_is_caught_upstream():
    sim = line_sim(
        5,
        {
            2: blackhole(collusion_group=0, collusion_partner=3),
            3: blackhole(collusion_group=0, collusion_partner=2),
        },
    )
    warm_up(sim)
    result = vet(sim, "proposed", 0, (0, 1, 2, 3, 4))
    assert result.status is VetStatus.REL_ZEROED
    assert result.rel == 0.0
    # the walk never progressed past the first colluder
    assert result.vetted_hops == 2  # hop to honest 1 matched, hop to 2 failed


def test_colluders_forge_a_tail_through_their_partner():
    positions = [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (300.0, 0.0), (400.0, 0.0)]
    topo = topology_from_positions(positions, 100.0)
    from relsim.engine import Simulator

    profiles = honest_profiles(5)
    profiles[2] = blackhole(collusion_group=0, collusion_partner=3)
    profiles[3] = blackhole(collusion_group=0, collusion_partner=2)
    sim = Simulator(topo, profiles, ScenarioConfig(seed=9))
    candidates = _discover(sim, 0, 4)
    assert any(c.path == (0, 1, 2, 3, 4) for c in candidates)


def test_silent_mode_reaches_timeout_branch(monkeypatch):
    monkeypatch.setattr(adversary, "blackhole_on_dri_request", lambda node, pkt: None)
    sim = line_sim(4, {2: blackhole()}, k_r=2, k_m=1, t1_ms=10)
    warm_up(sim)
    result = vet(sim, "proposed", 0, (0, 1, 2, 3))
    assert result.status is VetStatus.UNTRUSTED


def test_role_purity_honest_profiles_never_drop():
    sim = line_sim(4)
    ledger = sim.collector.register_flow(0)
    for _ in range(40):
        ledger.generated += 1
        node = sim.nodes[0]
        pkt = Packet(
            kind=PacketKind.DATA, origin=0,
            seq_no=node.next_seq(),
            payload=DataPayload(0, sim.now_us, (0, 1, 2, 3)), pos=1,
        )
        sim.transmit(0, 1, pkt)
    sim.run()
    assert ledger.delivered == 40
    assert ledger.blackhole_drops == 0


def test_assignment_respects_protected_nodes():
    rng = random.Random(12)
    topo = build_connected_topology(20, 500.0, 220.0, rng)
    protected = {0, 1, 2, 3}
    profiles = assign_adversaries(rng, topo, protected, 4, 2)
    holes = [i for i, p in enumerate(profiles) if ROLE_TABLE[p.role].hole]
    assert len(holes) == 8
    assert not set(holes) & protected
    pairs = [(i, p) for i, p in enumerate(profiles) if p.collusion_group is not None]
    assert len(pairs) == 4
    for i, p in pairs:
        assert p.collusion_partner in topo.neighbors[i]
        partner = profiles[p.collusion_partner]
        assert partner.collusion_group == p.collusion_group


def test_assignment_fails_without_room():
    rng = random.Random(12)
    topo = build_connected_topology(6, 300.0, 200.0, rng)
    with pytest.raises(TopologyError):
        assign_adversaries(rng, topo, {0, 1, 2, 3}, 5, 0)


def _role_branches(tree: ast.Module, names: set[str]):
    """Line numbers in ``tree`` of every comparison or ``case`` pattern that
    reads a role name or a ``.role`` attribute, and of every ``is_blackhole``."""
    def is_role(node):
        return (isinstance(node, ast.Constant) and node.value in names
                or isinstance(node, ast.Attribute) and node.attr == "role")

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(map(is_role, [node.left, *node.comparators])):
            yield node.lineno
        elif isinstance(node, ast.MatchValue) and is_role(node.value):
            yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr == "is_blackhole"
              or isinstance(node, ast.Name) and node.id == "is_blackhole"):
            yield node.lineno


def test_roles_are_named_only_in_adversary_and_never_branched_on():
    """Role-name string literals appear under ``src/relsim`` only in
    ``adversary.py``, no code branches on a role name or a profile's
    ``role``, and no ``is_blackhole`` is left: a reader asks the role's
    ``ROLE_TABLE`` record instead."""
    names = set(ROLE_TABLE)
    named, branches = set(), []
    for path in sorted(Path(adversary.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in names:
                named.add(path.name)
        branches += [f"{path.name}:{line}" for line in _role_branches(tree, names)]
    assert named == {"adversary.py"}
    assert branches == []
