import pytest

from relsim import adversary, aodv, baseline
from relsim.baseline import baseline_update, flags
from relsim.defense import VetStatus, record_data_packet
from relsim.packets import PacketKind
from relsim.runner import ScenarioRun
from relsim.scenario import ScenarioConfig

from conftest import blackhole, line_sim, replaying_first_reply, vet, warm_up


# -- flags read off the count table --------------------------------------------


def test_flags_read_off_the_count_table():
    """From is set by a received data packet only, through by an ACK only;
    both are monotone and leave the counts alone."""
    node = line_sim(3).nodes[1]
    assert flags(node, 0) == (False, False)  # no entry at all
    record_data_packet(node.dri, 0, "sent")
    assert flags(node, 0) == (False, False)
    record_data_packet(node.dri, 0, "received")
    assert flags(node, 0) == (True, False)
    for _ in range(3):
        baseline_update(node.dri, 0)
        record_data_packet(node.dri, 0, "received")
    assert flags(node, 0) == (True, True)
    assert (node.dri[0].sent, node.dri[0].received) == (1, 4)


def test_acknowledgement_alone_sets_only_the_through_flag():
    node = line_sim(3).nodes[1]
    baseline_update(node.dri, 2)
    assert flags(node, 2) == (False, True)
    assert (node.dri[2].sent, node.dri[2].received) == (0, 0)


def test_warmup_sets_both_flags_between_honest_neighbors():
    sim = line_sim(3)
    warm_up(sim)
    assert flags(sim.nodes[0], 1) == (True, True)


def test_warmup_leaves_blackhole_flags_dark():
    """No data from the hole and no acknowledgements for data sent to it."""
    sim = line_sim(4, {2: blackhole()})
    warm_up(sim)
    assert flags(sim.nodes[1], 2) == (False, False)


# -- vetting -------------------------------------------------------------------


def test_honest_warmed_path_is_trusted(honest_line):
    result = vet(honest_line, "baseline", 0, (0, 1, 2, 3))
    assert result.status is VetStatus.TRUSTED


@pytest.mark.parametrize("scheme", ["proposed", "baseline"])
def test_vetters_drain_the_queue_and_production_runs_keep_no_log(scheme, honest_line):
    result = vet(honest_line, scheme, 0, (0, 1, 2, 3))
    assert result.status is VetStatus.TRUSTED
    assert honest_line.idle()  # the vetting deadline fired too
    run = ScenarioRun(ScenarioConfig(nodes=20, area_side=630.0, flows=2, duration=2.0).validate())
    run.execute()
    assert run.sim.event_log is None


def test_honest_single_intermediate_is_trusted():
    sim = line_sim(3)
    warm_up(sim)
    result = vet(sim, "baseline", 0, (0, 1, 2))
    assert result.status is VetStatus.TRUSTED


def test_solo_blackhole_reported_dark_by_honest_successor():
    """The hole's next-hop neighbor reports (False, False) about it."""
    sim = line_sim(5, {2: blackhole()})
    warm_up(sim)
    assert flags(sim.nodes[3], 2) == (False, False)
    result = vet(sim, "baseline", 0, (0, 1, 2, 3, 4))
    assert result.status is VetStatus.UNTRUSTED


def test_solo_blackhole_first_position_refused_by_source_table():
    sim = line_sim(4, {1: blackhole()})
    warm_up(sim)
    result = vet(sim, "baseline", 0, (0, 1, 2, 3))
    assert result.status is VetStatus.UNTRUSTED


def test_solo_blackhole_last_intermediate_caught_by_destination():
    sim = line_sim(4, {2: blackhole()})
    warm_up(sim)
    result = vet(sim, "baseline", 0, (0, 1, 2, 3))
    assert result.status is VetStatus.UNTRUSTED


def test_colluding_pair_defeats_the_interrogation():
    """Mutual vouching: the false negative the count scheme was built to fix."""
    sim = line_sim(
        5,
        {
            2: blackhole(collusion_group=0, collusion_partner=3),
            3: blackhole(collusion_group=0, collusion_partner=2),
        },
    )
    warm_up(sim)
    result = vet(sim, "baseline", 0, (0, 1, 2, 3, 4))
    assert result.status is VetStatus.TRUSTED  # false negative by design


def test_collusion_differential_on_identical_state():
    """Same fixture, same seed: flag scheme fooled, count scheme not."""
    def build():
        sim = line_sim(
            5,
            {
                2: blackhole(collusion_group=0, collusion_partner=3),
                3: blackhole(collusion_group=0, collusion_partner=2),
            },
            seed=31,
        )
        warm_up(sim)
        return sim

    assert vet(build(), "baseline", 0, (0, 1, 2, 3, 4)).status is VetStatus.TRUSTED
    rel_result = vet(build(), "proposed", 0, (0, 1, 2, 3, 4))
    assert rel_result.rel == 0.0 or rel_result.status is VetStatus.UNTRUSTED


def test_deep_collusion_is_still_caught():
    """With two honest relays before the pair, the lookahead answer of an
    honest voucher exposes the first colluder."""
    sim = line_sim(
        6,
        {
            3: blackhole(collusion_group=0, collusion_partner=4),
            4: blackhole(collusion_group=0, collusion_partner=3),
        },
    )
    warm_up(sim)
    result = vet(sim, "baseline", 0, (0, 1, 2, 3, 4, 5))
    assert result.status is VetStatus.UNTRUSTED


def test_silent_voucher_burns_timers_to_untrusted(monkeypatch):
    monkeypatch.setattr(adversary, "blackhole_on_base_request", lambda node, pkt: None)
    sim = line_sim(4, {2: blackhole()}, k_r=2, k_m=1, t1_ms=10)
    warm_up(sim)
    sim.event_log = []
    result = vet(sim, "baseline", 0, (0, 1, 2, 3))
    assert result.status is VetStatus.UNTRUSTED
    # the hole was asked, and no answer of its own ever travelled
    deliveries = [e[2:5] for e in sim.event_log if e[1] == "deliver"]
    assert (2, int(PacketKind.BASE_REQ), 0) in deliveries
    assert not any(kind == PacketKind.BASE_REP and origin == 2
                   for _, kind, origin in deliveries)


@pytest.mark.parametrize("before, drop_first", [
    (2, False),  # hop 1's flags answer, while hop 1's onward-hop question waits
    (4, False),  # the same answer, while hop 2's flags question waits
    (2, True),  # the lost first answer, after a strike (k_r=1) asked again
], ids=["earlier-piece", "earlier-hop", "earlier-attempt"])
def test_reply_to_a_superseded_question_is_dropped(monkeypatch, before, drop_first):
    """The source's first BASE reply, replayed while a later question
    waits, queues nothing: the verdict, vet_msgs and event log equal a run
    without the replay."""
    handle = baseline.handle_base_rep

    def run(replay_before):
        intercept, replies = replaying_first_reply(handle, replay_before, drop_first)
        monkeypatch.setattr(baseline, "handle_base_rep", intercept)
        sim = line_sim(4, k_r=1)
        warm_up(sim)
        sim.event_log = []
        result = vet(sim, "baseline", 0, (0, 1, 2, 3))
        assert len(replies) == 6 + drop_first  # three pieces for each of two hops
        return result, sim.collector.vet_messages, sim.event_log

    replayed = run(before)
    assert replayed[0].status is VetStatus.TRUSTED
    assert replayed == run(None)


def test_message_overhead_exceeds_count_scheme_per_hop(honest_line):
    """Three relayed question/answer round trips per interrogated hop versus
    one adjacent request/reply plus the traveling accumulator."""
    before = honest_line.collector.vet_messages
    vet(honest_line, "baseline", 0, (0, 1, 2, 3))
    baseline_msgs = honest_line.collector.vet_messages - before

    from conftest import line_sim as fresh_line

    other = fresh_line(4)
    warm_up(other)
    before = other.collector.vet_messages
    vet(other, "proposed", 0, (0, 1, 2, 3))
    rel_msgs = other.collector.vet_messages - before

    hops = 2
    assert baseline_msgs / hops > rel_msgs / hops
    assert baseline_msgs == 30  # 12 for the voucher hop, 18 relayed to the far end
    assert rel_msgs == 8


def test_direct_neighbor_path_trusted_without_messages():
    sim = line_sim(3)
    warm_up(sim)
    before = sim.collector.vet_messages
    result = vet(sim, "baseline", 0, (0, 1))
    assert result.status is VetStatus.TRUSTED
    assert sim.collector.vet_messages == before


@pytest.mark.parametrize("n, vetted, triples", [
    (3, 1, [(1, 2, None)]),
    (4, 2, [(1, 2, 3), (2, 3, None)]),
    (5, 2, [(1, 2, 3), (2, 3, 4)]),
    (6, 3, [(1, 2, 3), (2, 3, 4), (3, 4, 5)]),
    (7, 4, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)]),
    (8, 5, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)]),
])
def test_interrogation_plan_on_honest_lines(n, vetted, triples):
    """Hop ``i`` asks voucher ``path[i + 1]`` about subject ``path[i]`` and
    the onward hop ``path[i + 2]``; the final intermediate is only asked
    about, by the destination, when there are exactly two intermediates."""
    sim = line_sim(n)
    warm_up(sim)
    aodv.initiate_discovery(sim.nodes[0], n - 1, lambda candidates: None)
    sim.run()
    asked = []
    send = sim.transmit_or_drop

    def watch(src, dst, pkt):
        if pkt.kind is PacketKind.BASE_REQ and src == 0:
            payload = pkt.payload
            triple = (payload.path[-2], payload.path[-1], payload.expected_next)
            if triple not in asked:
                asked.append(triple)
        return send(src, dst, pkt)

    sim.transmit_or_drop = watch
    result = vet(sim, "baseline", 0, tuple(range(n)))
    assert result.status is VetStatus.TRUSTED
    assert result.vetted_hops == vetted
    assert asked == triples
