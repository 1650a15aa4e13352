"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from relsim import aodv
from relsim.cli import main, summarize, sweep_records
from relsim.defense import VetStatus, select_route
from relsim.engine import Simulator
from relsim.metrics import (
    FlowStats,
    mean_end_to_end_delay,
    packet_loss,
    throughput_ratio,
)
from relsim.adversary import honest_profiles
from relsim.packets import DataPayload, Packet, PacketKind
from relsim.runner import run_scenario
from relsim.scenario import ScenarioConfig
from relsim.topology import bfs_hop_counts, build_connected_topology

from conftest import blackhole, line_sim, vet, warm_up

TOL = 1e-9


def _report(number: int, passed: bool, detail: str) -> None:
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _flow(sent, received, send_tp, recv_tp, delay=0.0, app_id=0):
    return FlowStats(
        app_id=app_id, packets_sent=sent, packets_received=received,
        send_throughput=send_tp, recv_throughput=recv_tp, mean_delay_s=delay,
    )


def test_criterion_1_formula_unit_suite():
    start = time.perf_counter()
    checks = [
        abs(throughput_ratio([_flow(100, 76, 100.0, 76.0)]) - 76.0) < TOL,
        abs(throughput_ratio([_flow(100, 65, 100.0, 65.0)]) - 65.0) < TOL,
        abs(packet_loss([_flow(100, 80, 0.0, 0.0)]) - 20.0) < TOL,
        abs(packet_loss([_flow(100, 50, 0.0, 0.0)]) - 50.0) < TOL,
        abs(mean_end_to_end_delay([_flow(10, 10, 1.0, 1.0, 0.065)]) - 0.065) < TOL,
        abs(
            mean_end_to_end_delay(
                [_flow(10, 10, 1.0, 1.0, 0.092, 0), _flow(10, 10, 1.0, 1.0, 0.092, 1)]
            )
            - 0.092
        )
        < TOL,
    ]
    # ratio and accumulation primitives at their stated points
    from relsim.defense import DriEntry, accumulate_rel, mean_route_reliability, reliability_ratio

    cfg = ScenarioConfig()
    checks += [
        reliability_ratio(DriEntry(sent=10, received=10), cfg) == 1.0,
        reliability_ratio(DriEntry(sent=0, received=25), cfg) == 0.0,
        accumulate_rel(1.0, 1.0) == 2.0,
        mean_route_reliability(2.0, 2) == 1.0,
    ]
    elapsed = time.perf_counter() - start
    _report(
        1, all(checks) and elapsed < 1.0,
        f"formula points 76/65/20/50/0.065/0.092 within 1e-9 in {elapsed:.3f}s",
    )


def test_criterion_2_directional_comparison():
    start = time.perf_counter()
    base = ScenarioConfig(
        nodes=50, flows=10, duration=100.0, blackholes=0, colluding_pairs=5,
        seed=101,
    ).validate()
    seeds = [101 + i for i in range(60)]
    # ten black-hole nodes realized as five adjacent cooperative pairs, the
    # attack both schemes were designed against; the record column counts
    # all ten
    records = sweep_records(base, [0], seeds, ["baseline", "proposed"])
    elapsed = time.perf_counter() - start
    summary = summarize(records)
    prop = summary[("proposed", 10)]
    base_s = summary[("baseline", 10)]

    def separated_above(metric):  # proposed must sit higher
        p_mean, p_hw = prop[metric]
        b_mean, b_hw = base_s[metric]
        return p_mean - p_hw > b_mean + b_hw

    def separated_below(metric):  # proposed must sit lower
        p_mean, p_hw = prop[metric]
        b_mean, b_hw = base_s[metric]
        return p_mean + p_hw < b_mean - b_hw

    checks = {
        "throughput": separated_above("throughput_pct"),
        "loss": separated_below("loss_pct"),
        "delay": separated_below("delay_s"),
        "mrr": separated_above("mrr"),
    }
    detail = (
        f"10 cooperative holes, 60 seeds/scheme: eta {prop['throughput_pct'][0]:.1f}"
        f" vs {base_s['throughput_pct'][0]:.1f}, L {prop['loss_pct'][0]:.1f} vs "
        f"{base_s['loss_pct'][0]:.1f}, E {prop['delay_s'][0]*1e3:.2f}ms vs "
        f"{base_s['delay_s'][0]*1e3:.2f}ms, MRR {prop['mrr'][0]:.2f} vs "
        f"{base_s['mrr'][0]:.2f}; CIs disjoint on all axes={all(checks.values())}; "
        f"{elapsed:.1f}s"
    )
    _report(2, all(checks.values()) and elapsed < 180.0, detail)


def test_criterion_3_adversary_free_sanity():
    start = time.perf_counter()
    ok = True
    for scheme in ("undefended", "baseline", "proposed"):
        cfg = ScenarioConfig(scheme=scheme, blackholes=0, link_loss=0.0, seed=55).validate()
        record = run_scenario(cfg)
        ok = ok and record.throughput_pct == 100.0 and record.loss_pct == 0.0
    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 5.0, f"eta=100.0 and L=0.0 exactly, 3 schemes, {elapsed:.2f}s")


def test_criterion_4_attack_potency_on_fixture():
    sim = line_sim(4, {2: blackhole()}, seed=5)
    ledger = sim.collector.register_flow(0)
    candidates = []
    aodv.initiate_discovery(sim.nodes[0], 3, candidates.extend)
    sim.run()
    chosen = min(candidates, key=aodv.candidate_rank_key)
    for _ in range(100):
        ledger.generated += 1
        node = sim.nodes[0]
        pkt = Packet(
            kind=PacketKind.DATA, origin=0,
            seq_no=node.next_seq(),
            payload=DataPayload(0, sim.now_us, chosen.path), pos=1,
        )
        sim.transmit_or_drop(0, chosen.path[1], pkt)
    sim.run()
    _report(
        4,
        2 in chosen.path and ledger.delivered == 0 and ledger.blackhole_drops == 100,
        f"undefended fixture flow routed into the hole, delivered={ledger.delivered}",
    )


def test_criterion_5_detection_soundness_property():
    rng = random.Random(2024)
    trials = 0
    violations = 0
    attempts = 0
    while trials < 1000 and attempts < 4000:
        attempts += 1
        n = rng.randint(6, 15)
        topo_rng = random.Random(rng.randrange(1 << 30))
        try:
            topo = build_connected_topology(n, 500.0, 250.0, topo_rng, max_attempts=20)
        except Exception:
            continue
        nodes = list(range(n))
        hole = rng.choice(nodes)
        endpoints = [u for u in nodes if u != hole]
        source = rng.choice(endpoints)
        dest = rng.choice([u for u in endpoints if u != source])
        profiles = honest_profiles(n)
        profiles[hole] = blackhole()
        sim = Simulator(topo, profiles, ScenarioConfig(seed=attempts))
        warm_up(sim, packets=4)
        candidates = []
        aodv.initiate_discovery(sim.nodes[source], dest, candidates.extend)
        sim.run()
        if not candidates:
            continue
        vetted = []
        for candidate in candidates:
            result = vet(sim, "proposed", source, candidate.path)
            vetted.append(result)
            if hole in candidate.path[1:-1]:
                if result.status is VetStatus.TRUSTED and result.rel > 0:
                    violations += 1
        chosen = select_route(vetted)
        if chosen is not None and hole in chosen[1:-1]:
            violations += 1
        trials += 1
    _report(
        5,
        trials >= 1000 and violations == 0,
        f"{trials} randomized topologies, {violations} poisoned paths trusted",
    )


def test_criterion_6_collusion_differential():
    roles = {
        2: blackhole(collusion_group=0, collusion_partner=3),
        3: blackhole(collusion_group=0, collusion_partner=2),
    }
    fixture_path = (0, 1, 2, 3, 4)

    sim_base = line_sim(5, roles, seed=31)
    warm_up(sim_base)
    flag_verdict = vet(sim_base, "baseline", 0, fixture_path)

    sim_rel = line_sim(5, roles, seed=31)
    warm_up(sim_rel)
    rel_verdict = vet(sim_rel, "proposed", 0, fixture_path)

    ok = flag_verdict.status is VetStatus.TRUSTED and (
        rel_verdict.rel == 0.0 or rel_verdict.status is VetStatus.UNTRUSTED
    )
    _report(
        6, ok,
        f"baseline={flag_verdict.status.name} (false negative), "
        f"count-scheme rel={rel_verdict.rel} status={rel_verdict.status.name}",
    )


def test_criterion_7_bfs_oracle_equivalence():
    rng = random.Random(777)
    checked = 0
    mismatches = 0
    while checked < 200:
        n = rng.randint(5, 25)
        topo_rng = random.Random(rng.randrange(1 << 30))
        try:
            topo = build_connected_topology(n, 600.0, 250.0, topo_rng, max_attempts=30)
        except Exception:
            continue
        source = rng.randrange(n)
        dest = rng.choice([u for u in range(n) if u != source])
        sim = Simulator(topo, honest_profiles(n), ScenarioConfig(seed=checked + 1))
        candidates = []
        aodv.initiate_discovery(sim.nodes[source], dest, candidates.extend)
        sim.run()
        assert candidates, "connected topology must discover a route"
        best = min(len(c.path) - 1 for c in candidates)
        if best != bfs_hop_counts(topo, source)[dest]:
            mismatches += 1
        checked += 1
    _report(7, mismatches == 0, f"200 topologies, {mismatches} length mismatches")


def test_criterion_8_sweep_determinism(tmp_path):
    args_for = lambda out: [
        "sweep", "--max-blackholes", "2", "--seeds", "2",
        "--nodes", "16", "--flows", "3", "--duration", "10",
        "--radio_range", "300", "--area_side", "600", "--seed", "7",
        "--out", str(out),
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args_for(first)) == 0
    assert main(args_for(second)) == 0
    identical = first.read_bytes() == second.read_bytes()
    _report(8, identical, f"two sweeps produced byte-identical CSVs ({first.stat().st_size} bytes)")


def test_criterion_9_overhead_comparison():
    sim_flag = line_sim(4, seed=7)
    warm_up(sim_flag)
    before = sim_flag.collector.vet_messages
    vet(sim_flag, "baseline", 0, (0, 1, 2, 3))
    flag_msgs = sim_flag.collector.vet_messages - before

    sim_rel = line_sim(4, seed=7)
    warm_up(sim_rel)
    before = sim_rel.collector.vet_messages
    vet(sim_rel, "proposed", 0, (0, 1, 2, 3))
    rel_msgs = sim_rel.collector.vet_messages - before

    hops = 2  # both schemes vetted the same two intermediate hops
    _report(
        9,
        flag_msgs / hops > rel_msgs / hops,
        f"per vetted hop: baseline {flag_msgs / hops:.1f} msgs > "
        f"count-scheme {rel_msgs / hops:.1f} msgs",
    )
