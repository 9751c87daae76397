"""Smoke test of the narrative demos: each runs to completion, and the
figure demo reproduces the committed SVGs byte for byte.

The demos run as subprocesses against this checkout's package; demo 06
writes next to itself, so it runs from a copy in a temporary directory
and the repository is never written to.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import slopespectra

DEMOS = Path(__file__).resolve().parents[1] / "demos"
ENV = {**os.environ, "PYTHONPATH": str(Path(slopespectra.__file__).parents[1]),
       "PYTHONDONTWRITEBYTECODE": "1"}
FIGURES = ("parallel_hexagon", "instance_classes", "forbidden_at_0")


def run_demo(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-5]_*.py")))
def test_demo_runs(tmp_path, name):
    proc = run_demo(DEMOS / name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_render_demo_reproduces_figures(tmp_path):
    script = tmp_path / "06_render_figures.py"
    shutil.copy(DEMOS / script.name, script)
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in FIGURES:
        got = (tmp_path / "out" / f"{name}.svg").read_bytes()
        assert got == (DEMOS / "out" / f"{name}.svg").read_bytes(), name
