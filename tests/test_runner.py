import gc
import math
import weakref
from contextlib import contextmanager
from dataclasses import replace

import pytest

from relsim import aodv, baseline, defense, node, runner
from relsim.defense import VetStatus
from relsim.errors import SimulationError
from relsim.engine import MICROS_PER_MS, MICROS_PER_S, Simulator
from relsim.metrics import FlowLedger
from relsim.runner import FIRST_FLOW_START_S, ScenarioRun, run_scenario
from relsim.scenario import ScenarioConfig

from conftest import blackhole, is_hole, line_sim, queued, vet, warm_up


def _cfg(**kwargs):
    base = dict(nodes=20, flows=4, duration=20.0, seed=3, scheme="proposed")
    base.update(kwargs)
    return ScenarioConfig(**base).validate()


def test_clean_run_conserves_everything():
    record = run_scenario(_cfg(scheme="undefended"))
    assert record.throughput_pct == 100.0
    assert record.loss_pct == 0.0
    assert record.starved_flows == 0
    assert not record.failed


def test_same_config_twice_is_identical():
    cfg = _cfg(blackholes=3, colluding_pairs=1, seed=42)
    assert run_scenario(cfg) == run_scenario(cfg)


def test_same_config_twice_replays_the_event_trace():
    def trace(cfg):
        run = ScenarioRun(cfg)
        run.sim.event_log = []
        run.execute()
        return run.sim.event_log

    cfg = _cfg(blackholes=2, colluding_pairs=1, seed=13, duration=10.0)
    assert trace(cfg) == trace(cfg)


def test_link_times_round_to_the_nearest_microsecond():
    """1.023 ms is 1022.99... us in floating point: it runs 1,023 us, not
    1,022, and 1.001 ms runs 1,001 us, not 1,000."""
    run = ScenarioRun(_cfg(link_delay_ms=1.001, link_jitter_ms=1.023))
    assert (run.sim.delay_us, run.sim.jitter_us) == (1_001, 1_023)


# each link and vetting field of the config, with a value that differs from
# the base run's; a field the run ignored would leave both outputs alone
LINK_AND_VETTING = dict(link_delay_ms=3, link_jitter_ms=2, link_loss=0.06, t1_ms=40,
                        k_r=2, k_m=2, delta_match=1, ratio_cap=2)


def test_every_link_and_vetting_field_reaches_the_run():
    """Changing any one of them changes the event trace or the record."""
    def outputs(cfg):
        run = ScenarioRun(cfg.validate())
        run.sim.event_log = []
        record = run.execute()
        return repr(run.sim.event_log), record

    cfg = ScenarioConfig(nodes=20, area_side=500.0, flows=3, duration=5.0, colluding_pairs=1,
                         link_loss=0.05, seed=3)
    base = outputs(cfg)
    unwired = [key for key, value in LINK_AND_VETTING.items()
               if outputs(replace(cfg, **{key: value})) == base]
    assert unwired == []


def test_vet_msgs_column_mirrors_collector():
    cfg = _cfg(scheme="proposed", blackholes=2)
    run = ScenarioRun(cfg)
    record = run.execute()
    assert record.vet_msgs == run.sim.collector.vet_messages
    assert record.untrusted_paths == run.sim.collector.untrusted_paths


def test_per_flow_ledger_balances_exactly():
    """generated = delivered + hole drops + link drops + undeliverable +
    never transmitted, for every flow, once the queue drains."""
    for kwargs in (
        dict(scheme="undefended", blackholes=4),
        dict(scheme="proposed", colluding_pairs=2, link_loss=0.05),
        dict(scheme="baseline", blackholes=2, colluding_pairs=1),
    ):
        cfg = _cfg(**kwargs)
        run = ScenarioRun(cfg)
        run.execute()
        assert run.sim.idle()
        for flow in run.flows:
            led = run.sim.collector.flows[flow.flow_id]
            assert led.generated == (
                led.delivered
                + led.blackhole_drops
                + led.link_drops
                + led.undeliverable
                + led.never_sent
            ), (kwargs, led)


def test_unbalanced_ledger_raises_naming_the_flow():
    run = ScenarioRun(_cfg(scheme="undefended", blackholes=4))
    run.sim.collector.on_blackhole_drop = lambda pkt: None  # drops go uncounted
    with pytest.raises(SimulationError, match=r"flow \d+: \d+ packets generated"):
        run.execute()


def test_conversation_left_open_raises_naming_node_and_map():
    run = ScenarioRun(_cfg(scheme="proposed"))
    run.sim.nodes[5].open[999] = aodv.DiscoveryState(lambda c: None)  # no timer behind it
    with pytest.raises(SimulationError,
                       match=r"node 5: conversations still open: 999 \(DiscoveryState\)"):
        run.execute()


# three ranked paths: the vetting status and mean reliability each gets
UNTRUSTED_BEST_FIRST = ((VetStatus.UNTRUSTED, 0.0), (VetStatus.TRUSTED, 0.9),
                        (VetStatus.TRUSTED, 0.5))
BEST_LAST = ((VetStatus.UNTRUSTED, 0.0), (VetStatus.TRUSTED, 0.5),
             (VetStatus.TRUSTED, 0.9))


@pytest.mark.parametrize("scheme,script,vetted,chosen", [
    ("undefended", UNTRUSTED_BEST_FIRST, 0, 0),  # trusts the top-ranked path
    ("baseline", UNTRUSTED_BEST_FIRST, 2, 1),  # stops at the first trusted path
    ("proposed", UNTRUSTED_BEST_FIRST, 3, 1),  # vets all, keeps the most reliable
    ("proposed", BEST_LAST, 3, 2),
])
def test_route_choice_follows_the_scheme(monkeypatch, scheme, script, vetted, chosen):
    run = ScenarioRun(_cfg(scheme=scheme))
    flow = run.flows[0]
    relays = [u for u in range(20) if u not in (flow.source, flow.destination)]
    paths = [(flow.source, relays[i], flow.destination) for i in range(3)]
    asked = []

    def scripted(node, path, on_done):
        asked.append(path)
        status, mrr = script[paths.index(path)]
        on_done(defense.VettingResult(status, mrr, 1, path))

    monkeypatch.setattr(defense, "begin_vetting", scripted)
    monkeypatch.setattr(baseline, "begin_baseline_vetting", scripted)
    run._choose_route(flow, paths)
    assert asked == paths[:vetted]
    assert flow.route == paths[chosen]
    assert run.sim.collector.flows[flow.flow_id].route_mrr is not None
    if scheme == "undefended":
        assert run.sim.collector.untrusted_paths == 0


def test_defended_run_reroutes_around_attack():
    record = run_scenario(_cfg(scheme="proposed", blackholes=3, seed=8))
    captured = run_scenario(_cfg(scheme="undefended", blackholes=3, seed=8))
    assert record.loss_pct <= captured.loss_pct
    assert record.mrr > 0.5


def test_proposed_on_captured_fixture_reports_no_trusted_route():
    """Line fixture with the hole astride the only path: every candidate is
    poisoned, so selection must refuse rather than feed the hole."""
    from relsim import aodv
    from relsim.defense import select_route

    from conftest import blackhole, line_sim, warm_up

    sim = line_sim(4, {2: blackhole()})
    warm_up(sim)
    candidates = []
    aodv.initiate_discovery(sim.nodes[0], 3, candidates.extend)
    sim.run()
    assert candidates
    vetted = [vet(sim, "proposed", 0, c.path) for c in candidates]
    assert select_route(vetted) is None


def test_undefended_loss_grows_with_attack_size():
    """Across seeds, mean undefended loss is non-decreasing in hole count."""
    means = []
    for holes in (0, 2, 4):
        losses = []
        for seed in range(20, 26):
            record = run_scenario(
                _cfg(scheme="undefended", blackholes=holes, nodes=16, flows=3,
                     duration=10.0, seed=seed, area_side=600.0, radio_range=300.0)
            )
            assert not record.failed
            losses.append(record.loss_pct)
        means.append(sum(losses) / len(losses))
    assert means[0] <= means[1] <= means[2]
    assert means[0] == 0.0 and means[2] > 0.0


def test_undefended_blackhole_capture_scores_zero_mrr():
    record = run_scenario(_cfg(scheme="undefended", blackholes=6, nodes=30, seed=5))
    # every routed flow was lured by a forged reply on this seed
    assert record.loss_pct == 100.0
    assert record.mrr == 0.0


def test_impossible_placement_yields_failed_record():
    # valid config, but endpoints crowd out the adversaries at runtime
    cfg = ScenarioConfig(
        nodes=12, flows=20, blackholes=8, duration=5.0, seed=1, scheme="undefended"
    ).validate()
    record = run_scenario(cfg)
    assert record.failed
    assert record.failure_reason
    assert math.isnan(record.throughput_pct)


def test_reliability_series_plateaus_once_routes_are_vetted():
    """The routes vetting selects past two colluding pairs score high in
    ground truth."""
    run = ScenarioRun(_cfg(scheme="proposed", colluding_pairs=2, seed=9))
    run.execute()
    assert run.sim.collector.mean_selected_mrr() >= 0.9


def test_undefended_series_reflects_captured_routes():
    """Undefended selection takes routes into the holes, which score low in
    ground truth."""
    run = ScenarioRun(_cfg(scheme="undefended", blackholes=6, nodes=30, seed=5))
    run.execute()
    assert run.sim.collector.mean_selected_mrr() < 0.5


def _warmup_run(**kwargs) -> ScenarioRun:
    run = ScenarioRun(_cfg(nodes=30, blackholes=2, colluding_pairs=1, **kwargs))
    run.schedule_warmup()
    return run


def test_warmup_queues_one_event_per_round():
    run = _warmup_run()
    assert len(queued(run.sim)) == run.cfg.warmup_packets


@pytest.mark.parametrize("loss", [0.0, 0.05])
def test_warmup_rounds_match_one_app_event_per_probe(loss):
    """A warm-up sent in rounds leaves every count, packet sequence number
    and RNG stream as ``conftest.warm_up`` does, which queues every probe
    as an app event of its own; streams are compared once their owed ACK
    draws are settled."""
    run = _warmup_run(link_loss=loss)
    run.sim.run(until_us=int(FIRST_FLOW_START_S * MICROS_PER_S))
    assert run.sim.idle()
    oracle = Simulator(run.topology, [n.profile for n in run.sim.nodes], run.cfg)
    warm_up(oracle, run.cfg.warmup_packets)
    assert any(node.dri for node in run.sim.nodes)
    for ours, theirs in zip(run.sim.nodes, oracle.nodes, strict=True):
        assert ours.dri == theirs.dri
        assert ours._packet_seq == theirs._packet_seq
    for sim in (run.sim, oracle):
        for n in sim.nodes:
            sim.settle(n)
    assert [r.getstate() for r in run.sim.rngs] == [r.getstate() for r in oracle.rngs]


def test_no_warmup_makes_no_evidence_entry_before_traffic():
    """Without warm-up no probe record is built, so no node holds a
    ``dri`` entry when the first flow starts."""
    run = _warmup_run(warmup_packets=0)
    assert not hasattr(run, "_probes")
    run.schedule_flows()
    run.sim.run(until_us=min(f.start_us for f in run.flows) - 1)
    assert not any(n.dri for n in run.sim.nodes)
    assert not run.sim.idle()


def test_warmup_rounds_share_one_record_per_directed_edge(monkeypatch):
    """Every round sends one record per directed edge from an honest node,
    each the one object built for its edge and shared by all rounds, and
    the last round drops them; each record carries the receiver's entry
    for the sender, ``None`` at a black hole; honest receivers count every
    probe, and probes touch no flow ledger, lost, absorbed or delivered.
    A probe reaches its receiver's ``"probe"`` handler as ``(sender, seq,
    receiver_entry, entry)``, so the records are read where
    ``Simulator.probe_round`` sends them."""
    rounds, received = [], {}
    probe_round, on_probe = Simulator.probe_round, node._on_probe

    def sent_spy(sim, records):
        rounds.append(list(records))
        probe_round(sim, records)

    def received_spy(receiver, event):
        path = (event[0], receiver.id)
        received[path] = received.get(path, 0) + 1
        on_probe(receiver, event)

    monkeypatch.setattr(Simulator, "probe_round", sent_spy)
    monkeypatch.setattr(node, "_on_probe", received_spy)
    run = _warmup_run(link_loss=0.05, warmup_packets=3)
    records = run._probes
    run.sim.run()
    assert not hasattr(run, "_probes")  # dropped by the last round
    edges = [(sender.id, receiver) for sender, receiver, _, _ in records]
    assert sorted(edges) == sorted(
        (s, r) for u, v in run.topology.edges() for s, r in ((u, v), (v, u))
        if not is_hole(run.sim, s)
    )
    assert len(set(edges)) == len(edges)
    assert len(rounds) == 3
    for sent in rounds:
        assert len(sent) == len(records)
        assert all(ours is first for ours, first in zip(sent, records))
    for sender, receiver, entry, receiver_entry in records:
        assert entry is sender.dri[receiver]
        assert entry.sent == 3
        assert receiver_entry is run.sim.nodes[receiver].dri.get(sender.id)
        assert (receiver_entry is None) == is_hole(run.sim, receiver)
    honest = [e for e in edges if not is_hole(run.sim, e[1])]
    assert sorted(received) == sorted(honest)
    assert max(received.values()) == 3
    for s, r in honest:
        assert run.sim.nodes[r].dri[s].received == received[(s, r)]
    assert sorted(run.sim.collector.flows) == [f.flow_id for f in run.flows]
    for flow_id, ledger in run.sim.collector.flows.items():
        assert ledger == FlowLedger(flow_id)


# -- a run leaves no cyclic garbage: its loop runs with the GC off ---------


@contextmanager
def _gc_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _cyclic_garbage(make):
    """``make()``, called with the GC off, and the number of objects in
    reference cycles it left unreachable."""
    gc.collect()
    with _gc_off():
        made = make()
        return made, gc.collect()


def _executed(cfg: ScenarioConfig) -> ScenarioRun:
    run = ScenarioRun(cfg)
    run.execute()
    return run


@pytest.mark.parametrize("adversaries", [dict(blackholes=3), dict(colluding_pairs=2)],
                         ids=["solo", "colluding"])
@pytest.mark.parametrize("loss", [0.0, 0.1])
@pytest.mark.parametrize("scheme", ["undefended", "baseline", "proposed"])
def test_run_creates_no_cyclic_garbage(scheme, loss, adversaries):
    cfg = _cfg(scheme=scheme, link_loss=loss, nodes=30, seed=10, **adversaries)
    run, garbage = _cyclic_garbage(lambda: _executed(cfg))
    assert garbage == 0
    # routes were chosen, so every vetting callback ran
    assert any(f.route is not None for f in run.flows)


COLLUDERS = {2: blackhole(collusion_group=0, collusion_partner=3),
             3: blackhole(collusion_group=0, collusion_partner=2)}


@pytest.mark.parametrize("roles", [{}, {2: blackhole()}, COLLUDERS],
                         ids=["honest", "solo", "colluding"])
@pytest.mark.parametrize("scheme", ["proposed", "baseline"])
def test_synchronous_vetting_creates_no_cyclic_garbage(scheme, roles):
    sim = line_sim(5, roles)
    warm_up(sim)
    _, garbage = _cyclic_garbage(lambda: vet(sim, scheme, 0, (0, 1, 2, 3, 4)))
    assert garbage == 0


def _run_scenario_and_watch(monkeypatch, cfg: ScenarioConfig):
    """``run_scenario(cfg)`` with the GC off, and whether the run's
    simulator was still alive when it returned, read before the GC is
    turned back on."""
    refs = []
    build = ScenarioRun.__init__

    def watched(self, cfg):
        build(self, cfg)
        refs.append(weakref.ref(self.sim))

    monkeypatch.setattr(ScenarioRun, "__init__", watched)
    with _gc_off():
        record = run_scenario(cfg)
        (ref,) = refs
        return record, ref() is not None


def test_run_scenario_frees_a_good_run(monkeypatch):
    record, alive = _run_scenario_and_watch(monkeypatch, _cfg(colluding_pairs=1))
    assert not record.failed
    assert not alive


def test_run_scenario_frees_a_failed_run(monkeypatch):
    def broken(sim):
        raise SimulationError("invariant broken")

    monkeypatch.setattr(runner, "check_invariants", broken)
    record, alive = _run_scenario_and_watch(monkeypatch, _cfg(colluding_pairs=1))
    assert record.failed and record.failure_reason == "invariant broken"
    assert not alive
