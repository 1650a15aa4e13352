"""Per-layer metrics: which relsim functions are spans, and what each
layer metric is, which end-to-end metric it should move, and on which
workload that shows.  ``BENCHMARK.json`` lists the same names.

Self time of a span is its duration minus the time spent in wrapped
spans it called; work done in unwrapped helpers stays with the caller.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

# module -> functions and methods wrapped as spans named "<module>.<attr>"
SPANS = {
    "topology": ["build_connected_topology", "build_topology"],
    "adversary": [
        "assign_adversaries", "blackhole_on_rreq", "blackhole_on_data",
        "blackhole_on_dri_request", "blackhole_on_base_request",
    ],
    "engine": [
        "Simulator.__init__", "Simulator.run", "Simulator.transmit",
        "Simulator.transmit_or_drop", "Simulator.broadcast",
    ],
    "node": ["Node.on_packet", "Node.on_timer", "Node._on_data"],
    "aodv": [
        "initiate_discovery", "handle_rreq", "handle_rrep", "handle_discovery_timer",
        "ping_destination", "handle_ping", "handle_pong", "handle_ping_timer",
    ],
    "defense": [
        "record_data_packet", "begin_vetting", "handle_dri_req", "handle_dri_rep",
        "handle_feedback_timer", "handle_rel", "handle_vet_deadline", "select_route",
    ],
    "baseline": [
        "baseline_update", "begin_baseline_vetting", "handle_base_req",
        "handle_base_rep", "handle_base_timer", "handle_base_deadline",
    ],
    "metrics": [
        "RunCollector.on_generated", "RunCollector.on_vet_message",
        "RunCollector.on_vetting_done", "RunCollector.on_link_drop",
        "RunCollector.on_blackhole_drop", "RunCollector.on_undeliverable",
        "RunCollector.on_delivered", "RunCollector.on_route_selected",
        "RunCollector.flow_stats", "RunCollector.mean_selected_mrr",
        "ground_truth_route_mrr", "throughput_ratio", "packet_loss",
        "mean_end_to_end_delay", "starved_flow_count",
    ],
    "runner": ["ScenarioRun.__init__", "ScenarioRun.execute", "run_scenario"],
    "cli": ["summary_rows", "write_csv"],
}

APP_EVENT_SPAN = "runner.app_event"

COLLECTOR_HOOKS = [f"metrics.{s}" for s in SPANS["metrics"] if s.startswith("RunCollector.on_")]
DEFENSE_VETTING = [
    "defense.begin_vetting", "defense.handle_dri_req", "defense.handle_dri_rep",
    "defense.handle_feedback_timer", "defense.handle_rel", "defense.handle_vet_deadline",
    "defense.select_route",
]
BASELINE_VETTING = [
    "baseline.begin_baseline_vetting", "baseline.handle_base_req", "baseline.handle_base_rep",
    "baseline.handle_base_timer", "baseline.handle_base_deadline",
]
AGGREGATION = [
    "metrics.RunCollector.flow_stats", "metrics.RunCollector.mean_selected_mrr",
    "metrics.throughput_ratio", "metrics.packet_loss", "metrics.mean_end_to_end_delay",
    "metrics.starved_flow_count",
]


def install(tracer) -> None:
    """Wrap every span in ``SPANS``, plus the app-event handler and the
    counting hooks the layer metrics need."""
    counts = tracer.counts

    def rreq_seen(node, pkt):
        if (pkt.origin, pkt.payload.request_id) in node.seen_rreqs:
            counts["aodv.rreq_dup"] += 1

    def vet_message(collector, pkt):
        scheme = "baseline" if pkt.kind.name.startswith("BASE_") else "defense"
        counts[f"{scheme}.vet_msgs"] += 1

    def vetting_done(collector, result):
        # the innermost open span is the defense or baseline function
        # that finished the vetting
        scheme = tracer.current().split(".", 1)[0]
        counts[f"{scheme}.vet_results"] += 1
        if result.status.name == "TRUSTED":
            counts[f"{scheme}.trusted"] += 1

    hooks = {
        "aodv.handle_rreq": rreq_seen,
        "metrics.RunCollector.on_vet_message": vet_message,
        "metrics.RunCollector.on_vetting_done": vetting_done,
    }
    for module_name, attrs in SPANS.items():
        module = importlib.import_module(f"relsim.{module_name}")
        for attr in attrs:
            owner = module
            name = attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
            span = f"{module_name}.{attr}"
            tracer.patch(owner, name, span, pre=hooks.get(span))

    simulator = importlib.import_module("relsim.engine").Simulator
    set_app_handler = vars(simulator)["set_app_handler"]

    def traced_set_app_handler(sim, handler):
        set_app_handler(sim, tracer.span(handler, APP_EVENT_SPAN))

    tracer.replace(simulator, "set_app_handler", traced_set_app_handler)


class PassTrace:
    """One traced pass: span aggregates, hook counts and the pass's own
    timings (``extra``), as written by the worker."""

    def __init__(self, trace: dict, extra: dict):
        self.spans = trace["spans"]
        self.counts = trace["counts"]
        self.extra = extra

    def calls(self, *names: str) -> int:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)

    def events(self) -> int:
        return self.calls("node.Node.on_packet", "node.Node.on_timer", APP_EVENT_SPAN)


def _ratio(num: float, den: float) -> float:
    """``num / den``; 0.0 when nothing was attempted."""
    return num / den if den else 0.0


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric this layer metric should move
    where: str  # workload on which that shows
    value: Callable[[PassTrace], float] | None  # None: computed from untraced passes


LAYERS = [
    Layer("topology.build_s", "s", "lower", "setup_s", "scale-2000",
          lambda t: t.total("topology.build_connected_topology")),
    Layer("topology.attempts", "count", "lower", "setup_s", "scale-2000",
          lambda t: t.calls("topology.build_topology")),
    Layer("adversary.place_s", "s", "lower", "setup_s", "scale-2000",
          lambda t: t.total("adversary.assign_adversaries")),
    Layer("engine.init_s", "s", "lower", "wall_s", "scale-2000",
          lambda t: t.total("engine.Simulator.__init__")),
    Layer("engine.events", "count", "lower", "wall_s", "scale-2000", PassTrace.events),
    Layer("engine.deliveries", "count", "lower", "wall_s", "scale-2000",
          lambda t: t.calls("node.Node.on_packet")),
    Layer("engine.timers", "count", "lower", "wall_s", "scale-2000",
          lambda t: t.calls("node.Node.on_timer")),
    Layer("engine.app_events", "count", "lower", "wall_s", "scale-2000",
          lambda t: t.calls(APP_EVENT_SPAN)),
    Layer("engine.loop_self_s", "s", "lower", "wall_s", "scale-2000",
          lambda t: t.self_s("engine.Simulator.run")),
    Layer("engine.send_self_s", "s", "lower", "wall_s", "scale-2000",
          lambda t: t.self_s("engine.Simulator.transmit", "engine.Simulator.transmit_or_drop",
                             "engine.Simulator.broadcast")),
    # reads 0 unless a workload sets link_loss
    Layer("engine.link_drops", "count", "lower", "wall_s", "sweep-50",
          lambda t: t.calls("metrics.RunCollector.on_link_drop")),
    Layer("engine.ns_per_event", "ns", "lower", "wall_s", "scale-2000", None),
    Layer("node.dispatch_self_s", "s", "lower", "run_ms_p50", "sweep-50",
          lambda t: t.self_s("node.Node.on_packet", "node.Node.on_timer")),
    Layer("node.data_hops", "count", "lower", "run_ms_p50", "sweep-50",
          lambda t: t.calls("node.Node._on_data")),
    Layer("node.data_self_s", "s", "lower", "run_ms_p50", "sweep-50",
          lambda t: t.self_s("node.Node._on_data")),
    Layer("defense.record_calls", "count", "lower", "run_ms_p50", "sweep-50",
          lambda t: t.calls("defense.record_data_packet")),
    Layer("defense.record_self_s", "s", "lower", "run_ms_p50", "sweep-50",
          lambda t: t.self_s("defense.record_data_packet")),
    Layer("baseline.update_self_s", "s", "lower", "run_ms_p50", "sweep-50",
          lambda t: t.self_s("baseline.baseline_update")),
    Layer("aodv.discoveries", "count", "lower", "wall_s", "scale-2000",
          lambda t: t.calls("aodv.initiate_discovery")),
    Layer("aodv.rreq_rx", "count", "lower", "wall_s", "scale-2000",
          lambda t: t.calls("aodv.handle_rreq")),
    Layer("aodv.rreq_dup", "count", "lower", "wall_s", "scale-2000",
          lambda t: t.count("aodv.rreq_dup")),
    Layer("aodv.rreq_useful_ratio", "ratio", "higher", "wall_s", "scale-2000",
          lambda t: _ratio(t.calls("aodv.handle_rreq") - t.count("aodv.rreq_dup"),
                           t.calls("aodv.handle_rreq"))),
    Layer("aodv.rreq_self_s", "s", "lower", "wall_s", "scale-2000",
          lambda t: t.self_s("aodv.handle_rreq")),
    Layer("aodv.rrep_rx", "count", "lower", "wall_s", "scale-2000",
          lambda t: t.calls("aodv.handle_rrep")),
    Layer("defense.vettings", "count", "lower", "wall_s", "sweep-50",
          lambda t: t.calls("defense.begin_vetting")),
    Layer("defense.vet_msgs", "count", "lower", "wall_s", "sweep-50",
          lambda t: t.count("defense.vet_msgs")),
    Layer("defense.retries", "count", "lower", "wall_s", "sweep-50",
          lambda t: t.calls("defense.handle_feedback_timer")),
    Layer("defense.trusted_ratio", "ratio", "higher", "wall_s", "sweep-50",
          lambda t: _ratio(t.count("defense.trusted"), t.count("defense.vet_results"))),
    Layer("defense.vet_self_s", "s", "lower", "wall_s", "sweep-50",
          lambda t: t.self_s(*DEFENSE_VETTING)),
    Layer("baseline.vettings", "count", "lower", "wall_s", "sweep-50",
          lambda t: t.calls("baseline.begin_baseline_vetting")),
    Layer("baseline.vet_msgs", "count", "lower", "wall_s", "sweep-50",
          lambda t: t.count("baseline.vet_msgs")),
    Layer("baseline.retries", "count", "lower", "wall_s", "sweep-50",
          lambda t: t.calls("baseline.handle_base_timer")),
    Layer("baseline.trusted_ratio", "ratio", "higher", "wall_s", "sweep-50",
          lambda t: _ratio(t.count("baseline.trusted"), t.count("baseline.vet_results"))),
    Layer("baseline.vet_self_s", "s", "lower", "wall_s", "sweep-50",
          lambda t: t.self_s(*BASELINE_VETTING)),
    Layer("metrics.collector_self_s", "s", "lower", "wall_s", "sweep-50",
          lambda t: t.self_s(*COLLECTOR_HOOKS)),
    Layer("metrics.gt_mrr_s", "s", "lower", "wall_s", "sweep-50",
          lambda t: t.total("metrics.ground_truth_route_mrr")),
    Layer("metrics.aggregate_s", "s", "lower", "wall_s", "sweep-50",
          lambda t: t.total(*AGGREGATION)),
    Layer("cli.import_s", "s", "lower", "startup_s", "sweep-50",
          lambda t: t.extra["import_s"]),
    Layer("cli.summary_s", "s", "lower", "wall_s", "sweep-50",
          lambda t: t.total("cli.summary_rows")),
    Layer("cli.write_s", "s", "lower", "wall_s", "sweep-50",
          lambda t: t.total("cli.write_csv")),
    Layer("runner.warmup_s", "s", "lower", "wall_s", "scale-2000",
          lambda t: t.extra["warmup_s"]),
    Layer("runner.traffic_s", "s", "lower", "wall_s", "scale-2000",
          lambda t: t.extra["traffic_s"]),
    Layer("trace.overhead", "ratio", "lower", "wall_s", "every workload", None),
]
