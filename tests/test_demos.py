"""Smoke test of the package root: every demo, the README quickstart and CLI block run."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
QUICKSTART = re.search(r"## Library quickstart\s+```python\n(.*?)```", README, re.S).group(1)
CLI_BLOCK = re.search(r"## CLI\n.*?```bash\n(.*?)```", README, re.S).group(1)


def run_python(argv, cwd=ROOT):
    """Run python with argv, turning warnings into errors as the pytest config does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs():
    proc = run_python(["-c", QUICKSTART])
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_block_runs(tmp_path):
    """The README's CLI lines run in order in an empty directory, so each reads
    only files that an earlier line wrote."""
    lines = CLI_BLOCK.replace("\\\n", " ").splitlines()
    for argv in (shlex.split(line) for line in lines if line.strip()):
        assert argv[0] == "ebrguard"
        proc = run_python(["-m", "ebrguard.cli", *argv[1:]], cwd=tmp_path)
        assert proc.returncode == 0, f"{shlex.join(argv)}\n{proc.stderr}"
