"""Smoke runs of the experiment scripts, as subprocesses with tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_phase_sweep():
    result = run_script("phase_sweep.py", "--grid", "0.1:0.4:3", "--depth", "2", "--replicates", "20")
    assert result.returncode == 0, result.stderr
    rows = result.stdout.strip().splitlines()[3:]
    assert len(rows) == 3
    survival = [float(row.split()[-1]) for row in rows]
    assert all(0.0 <= s <= 1.0 for s in survival)
    assert survival == sorted(survival, reverse=True)


def test_depth_convergence():
    result = run_script("depth_convergence.py", "--depths", "1,2,4", "--replicates", "50")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    target = float(lines[0].rsplit(":", 1)[1])
    # default mixture model: extinction 5/27, printed to 6 decimals
    assert target == pytest.approx(22 / 27, abs=1e-6)
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [1, 2, 4]
    assert all(0.0 <= float(row[2]) <= float(row[1]) <= 1.0 for row in rows)
