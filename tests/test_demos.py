"""Smoke test of the package root: every demo and the README quickstart run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICKSTART = re.search(
    r"## Library quickstart\s+```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S
).group(1)


def run_python(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs():
    proc = run_python(["-c", QUICKSTART])
    assert proc.returncode == 0, proc.stderr
