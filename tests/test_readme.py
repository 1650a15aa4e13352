"""The README's library example runs as written against the package root,
and its configuration table matches ``ScenarioConfig``."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from relsim.scenario import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]


def _library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_library_use_example_runs_unchanged():
    out = subprocess.run(
        [sys.executable, "-c", _library_use_block()], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert out.stdout.startswith("RunRecord(scenario=")
    assert "scheme='proposed'" in out.stdout
    assert "failed=False" in out.stdout


def test_configuration_table_lists_every_field_with_its_default():
    """The README's configuration table names every ``ScenarioConfig``
    field in declaration order, and each default cell parses to the
    field's default; it is the only place besides the class that states
    them."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Configuration\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.MULTILINE)
    assert [key for key, _ in rows] == [f.name for f in fields(ScenarioConfig)]
    for (key, cell), f in zip(rows, fields(ScenarioConfig)):
        assert type(f.default)(cell) == f.default, key
