"""Every span ``perfbench/layers.py`` wraps must exist in relsim.

The benchmark's traced passes wrap these functions by name; a renamed or
deleted one would otherwise surface only as a ``KeyError`` when
``perfbench/run.py --trace 1`` runs.  The file is read, never edited.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
