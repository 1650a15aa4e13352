"""Discrete-event study of black-hole attacks on on-demand routing.

The package simulates route discovery under single and cooperative
black-hole adversaries and compares three route-selection schemes:
undefended ranking, a flag-table interrogation baseline, and
reliability-vetted selection driven by per-neighbor packet counts.
"""

from .runner import RunRecord, run_scenario
from .scenario import ScenarioConfig

__version__ = "0.1.0"

__all__ = ["RunRecord", "ScenarioConfig", "run_scenario"]
