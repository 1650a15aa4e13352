"""Discrete-event study of black-hole attacks on on-demand routing.

The package simulates route discovery under single and cooperative
black-hole adversaries and compares three route-selection schemes:
undefended ranking, a flag-table interrogation baseline, and
reliability-vetted selection driven by per-neighbor packet counts.
"""

from .adversary import AdversaryProfile, Role
from .defense import (
    DriEntry,
    VetStatus,
    VettingConfig,
    VettingResult,
    accumulate_rel,
    cross_check,
    mean_route_reliability,
    reliability_ratio,
    select_route,
    vet_path,
)
from .baseline import baseline_update, baseline_vet
from .engine import LinkParams, Simulator
from .errors import (
    ConfigError,
    NoRouteError,
    SimulationError,
    TopologyError,
    UndefinedMetricError,
)
from .metrics import (
    FlowStats,
    ground_truth_route_mrr,
    mean_end_to_end_delay,
    packet_loss,
    reliability_series,
    throughput_ratio,
)
from .runner import RunRecord, run_scenario
from .scenario import ScenarioConfig, parse_config
from .topology import Topology, build_connected_topology, build_topology

__version__ = "0.1.0"

__all__ = [
    "AdversaryProfile",
    "ConfigError",
    "DriEntry",
    "FlowStats",
    "LinkParams",
    "NoRouteError",
    "Role",
    "RunRecord",
    "ScenarioConfig",
    "SimulationError",
    "Simulator",
    "Topology",
    "TopologyError",
    "UndefinedMetricError",
    "VetStatus",
    "VettingConfig",
    "VettingResult",
    "accumulate_rel",
    "baseline_update",
    "baseline_vet",
    "build_connected_topology",
    "build_topology",
    "cross_check",
    "ground_truth_route_mrr",
    "mean_end_to_end_delay",
    "mean_route_reliability",
    "packet_loss",
    "parse_config",
    "reliability_ratio",
    "reliability_series",
    "run_scenario",
    "select_route",
    "throughput_ratio",
    "vet_path",
]
