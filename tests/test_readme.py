"""The README's library example runs as written against the package root."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
