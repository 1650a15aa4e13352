"""Every span ``perfbench/layers.py`` wraps must exist in relsim, and so
must everything else the benchmark reads of it.

The benchmark's traced passes wrap these functions by name; a renamed or
deleted one would otherwise surface only as a ``KeyError`` when
``perfbench/run.py --trace 1`` runs.  Its worker builds every workload
config through ``runner.ScenarioRun`` and splits run time at
``runner.FIRST_FLOW_START_S``.  The files are read, never edited.
"""

import ast
import gc
import importlib
import importlib.util
from pathlib import Path

from relsim import runner
from relsim.engine import Simulator
from relsim.scenario import ScenarioConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def _spans() -> dict[str, list[str]]:
    """The ``SPANS`` literal of ``layers.py``, read without running the file."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS in {LAYERS}")


def test_every_span_resolves_to_a_relsim_function():
    spans = _spans()
    assert "engine" in spans and "Simulator.broadcast" in spans["engine"]
    missing = []
    for module_name, attrs in spans.items():
        module = importlib.import_module(f"relsim.{module_name}")
        for attr in attrs:
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = vars(module).get(cls_name)
            if owner is None or not callable(vars(owner).get(name)):
                missing.append(f"{module_name}.{attr}")
    assert missing == []


def _workloads():
    """``perfbench/workloads.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_what_the_benchmark_reads_besides_its_spans_exists():
    # ``layers.install`` replaces the method found in the class's own dict
    assert "set_app_handler" in vars(Simulator)
    assert isinstance(runner.FIRST_FLOW_START_S, float)
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for seed in range(workloads.VARIANTS):  # one seed per variant
            for values in workloads.generate(name, seed):
                run = runner.ScenarioRun(ScenarioConfig(**values).validate())
                # the ``rreq_seen`` hook reads every node's request set
                assert isinstance(run.sim.nodes[0].seen_rreqs, set)
            gc.collect()  # a built run is one reference cycle
