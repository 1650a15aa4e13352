import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim import adversary, defense
from relsim.defense import (
    DriEntry,
    VetStatus,
    VettingResult,
    accumulate_rel,
    cross_check,
    mean_route_reliability,
    record_data_packet,
    reliability_ratio,
    result_mrr,
    select_route,
)
from relsim.errors import NoRouteError
from relsim.scenario import ScenarioConfig

from conftest import blackhole, line_sim, replaying_first_reply, vet, warm_up

CFG = ScenarioConfig()


# -- count bookkeeping -------------------------------------------------------


def test_fresh_entry_sent():
    table = {}
    record_data_packet(table, 4, "sent")
    assert (table[4].sent, table[4].received) == (1, 0)


def test_received_increments_only_one_side():
    table = {4: DriEntry(sent=3, received=5)}
    record_data_packet(table, 4, "received")
    assert (table[4].sent, table[4].received) == (3, 6)


def test_unknown_direction_rejected():
    with pytest.raises(ValueError):
        record_data_packet({}, 1, "both")


def test_simulated_symmetric_link_counts_match_event_log():
    """After 10 probes each way the tables on both ends read (10, 10)."""
    sim = line_sim(2)
    warm_up(sim, packets=10)
    assert (sim.nodes[0].dri[1].sent, sim.nodes[0].dri[1].received) == (10, 10)
    assert (sim.nodes[1].dri[0].sent, sim.nodes[1].dri[0].received) == (10, 10)


def test_counts_never_decrease_during_run():
    """Node 1's sent counts, read at every jitter draw of its stream (each
    unicast it makes, after the copy was counted), step up by one per
    probe it sends and never fall."""
    sim = line_sim(3)
    dri = sim.nodes[1].dri
    snapshots = []
    real = sim.rngs[1].getrandbits

    def spy(bits):
        state = (dri[0].sent if 0 in dri else 0, dri[2].sent if 2 in dri else 0)
        if not snapshots or snapshots[-1] != state:
            snapshots.append(state)
        return real(bits)

    sim.rngs[1].getrandbits = spy
    warm_up(sim, packets=6)
    # one new state per probe node 1 sent, each way
    assert len(snapshots) == 12
    assert snapshots[-1] == (6, 6)
    for before, after in zip([(0, 0)] + snapshots, snapshots):
        assert sorted(b - a for a, b in zip(before, after)) == [0, 1]


# -- reliability ratio -------------------------------------------------------


def test_ratio_balanced_counts():
    assert reliability_ratio(DriEntry(sent=10, received=10), CFG) == 1.0


def test_ratio_black_hole_signature():
    assert reliability_ratio(DriEntry(sent=0, received=25), CFG) == 0.0


def test_ratio_pure_originator_clamps_to_cap():
    assert reliability_ratio(DriEntry(sent=5, received=0), CFG) == 1.0


def test_ratio_no_evidence_is_neutral():
    assert reliability_ratio(DriEntry(), CFG) == 1.0


def test_ratio_cap_applies_to_lopsided_counts():
    assert reliability_ratio(DriEntry(sent=30, received=10), CFG) == 1.0
    wide = ScenarioConfig(ratio_cap=5.0)
    assert reliability_ratio(DriEntry(sent=30, received=10), wide) == 3.0


def test_accumulate_is_plain_addition():
    assert accumulate_rel(0.0, 1.0) == 1.0
    assert accumulate_rel(1.0, 1.0) == 2.0
    assert accumulate_rel(2.0, 0.0) == 2.0


# -- cross check -------------------------------------------------------------


def test_exact_mirror_matches():
    assert cross_check(DriEntry(sent=10, received=9), DriEntry(sent=9, received=10), 0)


def test_fabricated_reply_mismatches():
    assert not cross_check(
        DriEntry(sent=10, received=0), DriEntry(sent=50, received=50), 2
    )


def test_tolerance_boundary():
    local = DriEntry(sent=10, received=9)
    reported = DriEntry(sent=10, received=8)
    assert cross_check(local, reported, 2)
    assert not cross_check(local, reported, 0)


# -- walk traces -------------------------------------------------------------


def test_honest_line_walk_accumulates_two(honest_line):
    """Hand trace: two matched hops at ratio 1.0 each."""
    result = vet(honest_line, "proposed", 0, (0, 1, 2, 3))
    assert result.status is VetStatus.TRUSTED
    assert result.rel == 2.0
    assert result.vetted_hops == 2
    assert result_mrr(result) == 1.0


def test_solo_blackhole_zeroes_the_walk():
    """Hand trace: the honest node before the hole catches the fabrication."""
    sim = line_sim(4, {2: blackhole()})
    warm_up(sim)
    assert (sim.nodes[1].dri[2].sent, sim.nodes[1].dri[2].received) == (10, 0)
    result = vet(sim, "proposed", 0, (0, 1, 2, 3))
    assert result.status is VetStatus.REL_ZEROED
    assert result.rel == 0.0


def test_silent_neighbor_burns_counters_to_untrusted(monkeypatch):
    """Three feedback expiries per attempt; the second strike passes k_m=1."""
    monkeypatch.setattr(adversary, "blackhole_on_dri_request", lambda node, pkt: None)
    sim = line_sim(4, {2: blackhole()}, k_r=3, k_m=1)
    warm_up(sim)
    sim.event_log = []
    result = vet(sim, "proposed", 0, (0, 1, 2, 3))
    assert result.status is VetStatus.UNTRUSTED
    timers = [e for e in sim.event_log if e[1] == "timer" and e[3] == "rel_tf"]
    # hop 0->1 answers; hop 1->2 burns 3 expiries in each of 2 attempts
    assert len(timers) >= 6


def test_unreachable_first_hop_ends_untrusted():
    sim = line_sim(4, k_r=2, k_m=1, t1_ms=10)
    warm_up(sim)
    result = vet(sim, "proposed", 0, (0, 2, 3))  # 0 and 2 are not adjacent
    assert result.status is VetStatus.UNTRUSTED


def test_direct_neighbor_skips_the_walk(honest_line):
    result = vet(honest_line, "proposed", 0, (0, 1))
    assert result.status is VetStatus.TRUSTED
    assert result.vetted_hops == 0
    assert result_mrr(result) == 1.0


def test_rel_additivity_is_bit_exact(honest_line):
    """Final rel equals the per-hop ratios summed in traversal order."""
    result = vet(honest_line, "proposed", 0, (0, 1, 2, 3))
    expected = 0.0
    for reporter, asker in ((1, 0), (2, 1)):
        entry = honest_line.nodes[reporter].dri[asker]
        expected = accumulate_rel(expected, reliability_ratio(entry, CFG))
    assert result.rel == expected


# -- mean route reliability --------------------------------------------------


def test_mrr_simple_quotients():
    assert mean_route_reliability(2.0, 2) == 1.0
    assert mean_route_reliability(0.0, 2) == 0.0


def test_mrr_zero_hops_is_undefined():
    with pytest.raises(ValueError):
        mean_route_reliability(1.0, 0)


# -- selection ---------------------------------------------------------------


def _trusted(path, rel, hops):
    return VettingResult(VetStatus.TRUSTED, rel, hops, path)


def _zeroed(path, hops):
    return VettingResult(VetStatus.REL_ZEROED, 0.0, hops, path)


def _untrusted(path):
    return VettingResult(VetStatus.UNTRUSTED, 0.0, 0, path)


def test_max_mrr_wins_even_when_longer():
    longer = _trusted((0, 1, 2, 9), 2.0, 2)  # MRR 1.0 over 3 hops
    shorter = _zeroed((0, 5, 9), 1)  # MRR 0.0 over 2 hops
    assert select_route([longer, shorter]) == (0, 1, 2, 9)


def test_equal_mrr_breaks_on_hop_count():
    three_hops = _trusted((0, 1, 2, 9), 2.0, 2)
    two_hops = _trusted((0, 5, 9), 1.0, 1)
    assert select_route([three_hops, two_hops]) == (0, 5, 9)


def test_all_untrusted_is_no_route():
    assert select_route([_untrusted((0, 1, 9)), _untrusted((0, 2, 9))]) is None


def test_zeroed_only_candidates_are_not_selected():
    assert select_route([_zeroed((0, 1, 9), 1)]) is None


def test_empty_candidates_raise():
    with pytest.raises(NoRouteError):
        select_route([])


def test_hop_count_tie_breaks_on_first_hop_id():
    a = _trusted((0, 4, 9), 1.0, 1)
    b = _trusted((0, 2, 9), 1.0, 1)
    assert select_route([a, b]) == (0, 2, 9)


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_argmax_invariant_under_positive_scaling(scale):
    base = [
        _trusted((0, 1, 9), 1.6, 2),
        _trusted((0, 2, 3, 9), 2.7, 3),
        _trusted((0, 4, 9), 0.8, 2),
    ]
    scaled = [
        VettingResult(r.status, r.rel * scale, r.vetted_hops, r.path) for r in base
    ]
    assert select_route(base) == select_route(scaled)


def test_strike_counter_monotone_and_absorbing(monkeypatch):
    """c_m never decreases and untrusted is terminal for the walk."""
    monkeypatch.setattr(adversary, "blackhole_on_dri_request", lambda node, pkt: None)
    sim = line_sim(5, {2: blackhole(), 3: blackhole()},
                   k_r=2, k_m=1, t1_ms=10)
    warm_up(sim)
    result = vet(sim, "proposed", 0, (0, 1, 2, 3, 4))
    assert result.status is VetStatus.UNTRUSTED
    # walk is over; no pending probes remain anywhere
    assert all(not node.open for node in sim.nodes)


def test_reply_to_an_attempt_a_strike_replaced_changes_nothing(monkeypatch):
    """The first DRI reply is lost, so the feedback timer burns a strike
    (``k_r=1``) and asks again; that first reply, carrying attempt 1, then
    arrives just before the answer to attempt 2.  It queues nothing, and
    the verdict, vet_msgs and event log equal a run where it never came."""
    handle = defense.handle_dri_rep

    def run(before):
        intercept, replies = replaying_first_reply(handle, before, drop_first=True)
        monkeypatch.setattr(defense, "handle_dri_rep", intercept)
        sim = line_sim(4, k_r=1)
        warm_up(sim)
        sim.event_log = []
        result = vet(sim, "proposed", 0, (0, 1, 2, 3))
        assert len(replies) == 3  # two to the source, one to the next holder
        return result, sim.collector.vet_messages, sim.event_log

    replayed = run(before=2)
    assert replayed[0].status is VetStatus.TRUSTED
    assert replayed == run(before=None)


def test_mirror_invariant_after_traffic_drains():
    sim = line_sim(5)
    warm_up(sim, packets=7)
    for u in range(5):
        for v in sim.topology.neighbors[u]:
            sent = sim.nodes[u].dri[v].sent
            echoed = sim.nodes[v].dri[u].received
            assert sent == echoed
