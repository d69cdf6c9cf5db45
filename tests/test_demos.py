"""Each narrative demo runs from a plain checkout and exits cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem
)
def test_demo_runs(script):
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if script.stem.startswith("03_"):
        seeds = [line for line in done.stdout.splitlines() if "seed" in line]
        assert seeds
        assert all("certified isomorphic: True" in line for line in seeds)
