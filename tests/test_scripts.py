"""Smoke runs of the experiment scripts with tiny inputs, as subprocesses or in process."""

import inspect
import os
import shutil
import subprocess
import sys
import time
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


def test_compare_cli_same_tree():
    src = str(ROOT / "src")
    result = run_script("compare_cli.py", src, src)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip().splitlines() == ["60 commands compared, 0 differ"]


def test_compare_cli_reports_a_difference(tmp_path):
    # a copy whose reports carry 16 significant digits instead of 17
    shutil.copytree(
        ROOT / "src" / "cliquecascade",
        tmp_path / "cliquecascade",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cli = tmp_path / "cliquecascade" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('".17g"') == 1
    cli.write_text(text.replace('".17g"', '".16g"'), encoding="utf-8")
    result = run_script("compare_cli.py", str(ROOT / "src"), str(tmp_path))
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.strip().splitlines()
    assert "triangle analyze: stdout first differs" in result.stdout
    assert lines[-1].startswith("60 commands compared, ") and not lines[-1].endswith(" 0 differ")


def test_unreached_in_process(monkeypatch):
    # one model, in this interpreter: the census overflow guard never fires,
    # and the Perron solve leaves only its budget-exhausted raise unrun
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import unreached
    from cliquecascade import clique_dynamics, mc_sim
    from cliquecascade.cascade_matrix import _perron_root

    started = time.monotonic()
    lines = unreached.unreached({"mixture": unreached.compare_cli.MODELS["mixture"]})
    assert time.monotonic() - started < 2.0
    assert any(line.startswith("mc_sim:") and "raise CensusOverflow(" in line for line in lines)
    body, first = inspect.getsourcelines(_perron_root)
    perron = [
        line for line in lines
        if line.startswith("cascade_matrix:")
        and first <= int(line.split(":")[1]) < first + len(body)
    ]
    assert perron and all(line.split(": ", 1)[1].startswith("raise ") for line in perron)
    # the floor-level walk and its readers, and the census engine as a whole,
    # run every statement
    engine = mc_sim.ActivationProcess
    for module, obj in (
        (clique_dynamics, clique_dynamics._walk),
        (clique_dynamics, clique_dynamics.mean_active_column),
        (mc_sim, mc_sim._walk_levels),
        (mc_sim, engine._resolve_cliques),
        (mc_sim, engine.root_step),
        (mc_sim, engine.step),
        (mc_sim, engine),
    ):
        name = obj.__qualname__
        body, first = inspect.getsourcelines(obj)
        prefix = module.__name__.rsplit(".", 1)[1] + ":"
        assert not [
            line for line in lines
            if line.startswith(prefix)
            and first <= int(line.split(":")[1]) < first + len(body)
        ], name
