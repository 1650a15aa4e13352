"""Single-run orchestration: warm-up, discovery, vetting, traffic, metrics.

A run builds a connected topology, places the adversaries away from the
flow endpoints, floods warm-up probes so the per-neighbor evidence tables
hold real counts and acknowledgements, then starts the application
flows.  Each flow acquires a route according to the configured scheme,
buffering generated packets until a route is installed; flows that never
obtain a route keep generating and are reported as starved.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from functools import partial

from . import aodv, defense, metrics
from .adversary import assign_adversaries
from .engine import (MICROS_PER_MS, MICROS_PER_S, SCENARIO_STREAM, EventKind, Simulator,
                     derive_stream)
from .errors import SimulationError, UndefinedMetricError
from .packets import DataPayload, PacketKind
from .scenario import SCHEME_TABLE, ScenarioConfig
from .topology import build_connected_topology

WARMUP_START_MS = 50
PROBE_SPACING_MS = 5
FIRST_FLOW_START_S = 1.0
FLOW_STAGGER_S = 0.1
# a module global is read about ten times faster than an enum member
_DATA, _APP = PacketKind.DATA, EventKind.APP


@dataclass(slots=True)
class RunRecord:
    """One run's CSV row: ``cli.CSV_HEADER`` names its columns after these
    fields.  A failed run keeps the defaults: undefined metrics, no counts."""

    scenario: str
    scheme: str
    blackholes: int
    seed: int
    throughput_pct: float = math.nan
    loss_pct: float = math.nan
    delay_s: float = math.nan
    mrr: float = math.nan
    vet_msgs: int = 0
    untrusted_paths: int = 0
    starved_flows: int = 0
    failed: bool = False
    failure_reason: str = ""


@dataclass(slots=True)
class _FlowDriver:
    flow_id: int
    source: int
    destination: int
    start_us: int
    packet_count: int
    route: tuple[int, ...] | None = None
    buffer: list[int] = field(default_factory=list)  # creation times awaiting a route


class ScenarioRun:
    """Mutable state of one simulation run."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.scheme = SCHEME_TABLE[cfg.scheme]
        rng = derive_stream(cfg.seed, SCENARIO_STREAM)
        self.topology = build_connected_topology(
            cfg.nodes, cfg.area_side, cfg.radio_range, rng
        )
        self.flows: list[_FlowDriver] = []
        endpoints: set[int] = set()
        total = cfg.nodes
        for i in range(cfg.flows):
            src = rng.randrange(total)
            dst = rng.randrange(total - 1)
            if dst >= src:
                dst += 1
            endpoints.update((src, dst))
            start_us = int((FIRST_FLOW_START_S + i * FLOW_STAGGER_S) * MICROS_PER_S)
            horizon = cfg.duration - (FIRST_FLOW_START_S + i * FLOW_STAGGER_S)
            count = max(0, math.floor(horizon * cfg.packet_rate))
            self.flows.append(
                _FlowDriver(
                    flow_id=i, source=src, destination=dst,
                    start_us=start_us, packet_count=count,
                )
            )
        profiles = assign_adversaries(
            rng, self.topology, endpoints, cfg.blackholes, cfg.colluding_pairs
        )
        self.sim = Simulator(self.topology, profiles, cfg)
        self.sim.set_app_handler(self._on_app_event)
        for flow in self.flows:
            self.sim.collector.register_flow(flow.flow_id)

    # -- warm-up --------------------------------------------------------

    def schedule_warmup(self) -> None:
        """Queue one app event per probe round: round ``j`` fires at
        ``WARMUP_START_MS + j * PROBE_SPACING_MS`` and sends a probe each
        way on every edge, in ``edges()`` order, black holes staying mute.
        A round is one ``Simulator.probe_round`` call, which queues each
        probe as a one-hop event of its own, not as a DATA packet.

        Queuing every probe's send as an app event of its own would run
        them in this same order, back to back: all were queued before
        anything else, so they carry the lowest ``seq`` of their time.  Only
        the queue shrinks, not the traffic: a transmission is not always a
        delivery.  Every probe is still transmitted and answered, but an
        ACK whose prober already holds the flag it would set is neither
        built nor queued (``node._on_probe`` owes its draws instead), and
        ``Simulator.broadcast`` queues no second copy of a route request
        for a node.  An energy count charges those unqueued copies too.

        Each directed edge's record, ``(sender node, receiver, the sender's
        dri entry for it, the receiver's dri entry for the sender)``, is
        built once, shared by every round and dropped by the last.  Making
        the entries here changes no read: nothing reads ``dri`` before the
        first round, which makes every such entry.  Every honest node
        probes every neighbor, so an honest receiver's entry is one of the
        sender entries; a black hole's is ``None``, and it makes none.
        """
        cfg = self.cfg
        if cfg.warmup_packets == 0:
            return
        profiles = self.sim.profiles
        nodes = self.sim.nodes
        sent = [
            (nodes[sender], receiver, nodes[sender].dri[receiver])
            for u, v in self.topology.edges()
            for sender, receiver in ((u, v), (v, u))
            if not profiles[sender].is_blackhole  # black holes originate no traffic
        ]
        self._probes = [
            (node, receiver, entry, nodes[receiver].dri.get(node.id))
            for node, receiver, entry in sent
        ]
        start = WARMUP_START_MS * MICROS_PER_MS
        spacing = PROBE_SPACING_MS * MICROS_PER_MS
        for j in range(cfg.warmup_packets):
            # a round belongs to no single node
            self.sim.schedule_at(start + j * spacing, EventKind.APP, -1, ("warmup", j))

    def schedule_flows(self) -> None:
        for flow in self.flows:
            if flow.packet_count > 0:
                self.sim.schedule_at(
                    flow.start_us, EventKind.APP, flow.source,
                    ("flow_start", flow.flow_id),
                )

    # -- app events -------------------------------------------------------

    def _on_app_event(self, payload: tuple) -> None:
        tag = payload[0]
        if tag == "warmup":
            self.sim.probe_round(self._probes)
            if payload[1] == self.cfg.warmup_packets - 1:
                del self._probes
        elif tag == "flow_start":
            flow = self.flows[payload[1]]
            self._generate_packet(flow, 0)
            self._acquire_route(flow)
        elif tag == "flow_send":
            self._generate_packet(self.flows[payload[1]], payload[2])

    def _generate_packet(self, flow: _FlowDriver, index: int) -> None:
        self.sim.collector.on_generated(flow.flow_id)
        created = self.sim.now_us
        if flow.route is not None:
            self._send_data(flow, created)
        else:
            flow.buffer.append(created)
        nxt = index + 1
        if nxt < flow.packet_count:
            when = flow.start_us + int(nxt / self.cfg.packet_rate * MICROS_PER_S)
            self.sim.schedule_at(
                when, _APP, flow.source, ("flow_send", flow.flow_id, nxt)
            )

    def _send_data(self, flow: _FlowDriver, created_us: int) -> None:
        self.sim.nodes[flow.source].send(
            _DATA, flow.route[1], DataPayload(flow.flow_id, created_us, flow.route), 1
        )

    # -- route acquisition ------------------------------------------------

    def _acquire_route(self, flow: _FlowDriver) -> None:
        node = self.sim.nodes[flow.source]
        if node.routes.best(flow.destination) is None:
            self._discover(flow)
            return
        # a stored route that answers the ping carries no fresh vetting
        # evidence, so it is chosen like a one-path discovery
        aodv.ping_destination(
            node, flow.destination,
            lambda alive, path, f=flow: (
                self._choose_route(f, [path]) if alive else self._discover(f)
            ),
        )

    def _discover(self, flow: _FlowDriver) -> None:
        aodv.initiate_discovery(
            self.sim.nodes[flow.source], flow.destination,
            lambda replies, f=flow: self._choose_route(f, [r.path for r in replies]),
        )

    def _choose_route(self, flow: _FlowDriver, paths: list[tuple[int, ...]]) -> None:
        """Take a route from ``paths``, ranked best first, as ``self.scheme``
        says: without a vetter, the first path unvetted; with one, vet the
        paths one at a time.  A flow left without a route stays starved.

        Each vetting reports to a ``partial`` of ``_collect_vetting`` that
        carries the walk's state, so no reference cycle is made: the event
        loop runs with the cyclic garbage collector off."""
        if self.scheme.vetter is None:
            if paths:
                self._activate(flow, paths[0])
            return
        self._vet_next(flow, self.scheme.vetter(), iter(paths), [])

    def _vet_next(self, flow: _FlowDriver, vetter, pending, results: list) -> None:
        path = next(pending, None)
        if path is not None:
            vetter(self.sim.nodes[flow.source], path,
                   partial(self._collect_vetting, flow, vetter, pending, results))
        elif results and self.scheme.vet_all:
            chosen = defense.select_route(results)
            if chosen is not None:
                self._activate(flow, chosen)

    def _collect_vetting(self, flow: _FlowDriver, vetter, pending, results: list,
                         result: defense.VettingResult) -> None:
        if not self.scheme.vet_all and result.status is defense.VetStatus.TRUSTED:
            self._activate(flow, result.path)
            return
        results.append(result)
        self._vet_next(flow, vetter, pending, results)

    def _activate(self, flow: _FlowDriver, path: tuple[int, ...]) -> None:
        flow.route = path
        node = self.sim.nodes[flow.source]
        mrr = metrics.ground_truth_route_mrr(self.sim, path)
        dest_seq = max(
            (e.dest_seq_no for e in node.routes.entries(flow.destination)), default=0
        )
        node.routes.upsert(aodv.RouteEntry(path, dest_seq))
        self.sim.collector.on_route_selected(flow.flow_id, mrr)
        for created in flow.buffer:
            self._send_data(flow, created)
        flow.buffer.clear()

    # -- execution ----------------------------------------------------------

    def execute(self) -> RunRecord:
        self.schedule_warmup()
        self.schedule_flows()
        self.sim.run()
        collector = self.sim.collector
        for flow in self.flows:
            collector.flows[flow.flow_id].never_sent = len(flow.buffer)
        check_invariants(self.sim)
        stats = collector.flow_stats(self.cfg.duration, self.cfg.packet_size)
        return _record(
            self.cfg,
            throughput_pct=_defined(metrics.throughput_ratio, stats),
            loss_pct=_defined(metrics.packet_loss, stats),
            delay_s=_defined(metrics.mean_end_to_end_delay, stats),
            mrr=collector.mean_selected_mrr(),
            vet_msgs=collector.vet_messages,
            untrusted_paths=collector.untrusted_paths,
            starved_flows=metrics.starved_flow_count(stats),
        )


def _record(cfg: ScenarioConfig, **results) -> RunRecord:
    """The record of a run of ``cfg``; ``blackholes`` counts pair members."""
    blackholes = cfg.blackholes + 2 * cfg.colluding_pairs
    return RunRecord(cfg.scenario_id, cfg.scheme, blackholes, cfg.seed, **results)


def failed_record(cfg: ScenarioConfig, reason: str) -> RunRecord:
    """The record of a run of ``cfg`` that failed for ``reason``."""
    return _record(cfg, failed=True, failure_reason=reason)


def _defined(formula, stats: list[metrics.FlowStats]) -> float:
    """``formula(stats)``, or nan where the metric is undefined."""
    try:
        return formula(stats)
    except UndefinedMetricError:
        return math.nan


def check_invariants(sim: Simulator) -> None:
    """Raise ``SimulationError`` unless every flow ledger balances and, the
    queue having drained, every node's ``open`` table is empty; the error
    names the node and each id still open with its kind."""
    for ledger in sim.collector.flows.values():
        accounted = (
            ledger.delivered + ledger.blackhole_drops + ledger.link_drops
            + ledger.undeliverable + ledger.never_sent
        )
        if ledger.generated != accounted:
            raise SimulationError(
                f"flow {ledger.flow_id}: {ledger.generated} packets generated "
                f"but {accounted} accounted for"
            )
    for node in sim.nodes:
        if node.open:
            still = ", ".join(f"{i} ({type(s).__name__})" for i, s in sorted(node.open.items()))
            raise SimulationError(f"node {node.id}: conversations still open: {still}")


def run_scenario(cfg: ScenarioConfig) -> RunRecord:
    """Run one scenario to completion; a run that fails, from an impossible
    topology to a broken invariant, produces a marked record.

    The event loop runs with the cyclic garbage collector off, and a
    finished run is still one reference cycle (its ``Simulator`` and
    ``Node`` objects point at each other), so the run is collected here,
    once per run, good or failed: a process running many scenarios then
    peaks no higher than one run."""
    try:
        return ScenarioRun(cfg).execute()
    except SimulationError as exc:
        return failed_record(cfg, str(exc))
    finally:
        gc.collect()
