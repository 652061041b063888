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


@pytest.fixture(scope="module")
def src_results(tmp_path_factory):
    """compare_cli, its commands, and the source tree's results, run once per module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "scripts"))
        import compare_cli
    config_dir = tmp_path_factory.mktemp("compare_cli")
    named = compare_cli.write_configs(config_dir)
    return compare_cli, config_dir, named, compare_cli.run_tree(ROOT / "src", named, config_dir)


def test_compare_cli_same_tree(src_results):
    # a second interpreter on the same tree
    compare_cli, config_dir, named, results = src_results
    again = compare_cli.run_tree(ROOT / "src", named, config_dir)
    assert compare_cli.compare(named, results, again) == ["90 commands compared, 0 differ"]


def test_compare_cli_reports_a_difference(tmp_path, src_results):
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
    compare_cli, config_dir, named, results = src_results
    lines = compare_cli.compare(named, results, compare_cli.run_tree(tmp_path, named, config_dir))
    assert any(line.startswith("triangle analyze: stdout first differs") for line in lines)
    assert lines[-1].startswith("90 commands compared, ") and not lines[-1].endswith(" 0 differ")


def test_phase_sweep_solves_each_theta_once(monkeypatch, capsys):
    # ten thetas, the last at 1/2: each row's rho and verdict read one solve
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import phase_sweep
    from cliquecascade import cascade_matrix

    solves = []
    scc = cascade_matrix.strongly_connected_components
    monkeypatch.setattr(
        cascade_matrix, "strongly_connected_components", lambda a: solves.append(1) or scc(a)
    )
    argv = ["phase_sweep.py", "--grid", "0.05:0.5:10", "--depth", "1", "--replicates", "10"]
    monkeypatch.setattr(sys, "argv", argv)
    phase_sweep.main()
    assert len(capsys.readouterr().out.strip().splitlines()[3:]) == 10
    assert len(solves) == 10


def test_unreached_in_process(monkeypatch):
    # three models, in this interpreter: the census overflow guard never
    # fires, and the Perron solve leaves only its budget-exhausted raise
    # unrun.  The census step plan takes a model's shape: the mixture's walk
    # states have several moves, census-deep's one, and p23-q23 has types
    # with several configurations.
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import unreached
    from cliquecascade import cascade_matrix, cli, clique_dynamics, dist_core, mc_sim, verification

    names = ("mixture", "census-deep", "p23-q23")
    started = time.monotonic()
    lines = unreached.unreached({name: unreached.compare_cli.MODELS[name] for name in names})
    assert time.monotonic() - started < 2.0
    assert any(line.startswith("mc_sim:") and "raise CensusOverflow(" in line for line in lines)

    def unrun(module, obj):
        body, first = inspect.getsourcelines(obj)
        prefix = module.__name__.rsplit(".", 1)[1] + ":"
        return [
            line.split(": ", 1)[1] for line in lines
            if line.startswith(prefix) and first <= int(line.split(":")[1]) < first + len(body)
        ]

    perron = unrun(cascade_matrix, cascade_matrix._perron_root)
    assert perron and all(line.startswith("raise ") for line in perron)
    # spectral_radius takes arrays only: its two input refusals are all it leaves
    assert unrun(cascade_matrix, cascade_matrix.spectral_radius) == [
        'raise ValueError("matrix must be square")',
        'raise ValueError("matrix must be finite and entrywise non-negative")',
    ]
    # the pgf composition runs all but its refusal of a degree past int64
    [line] = unrun(dist_core, dist_core.pgf_compose)
    assert line.startswith("raise EnumerationTooLarge(") and "degree" in line
    # the floor-level walk, its level map, its price, its fold and its
    # readers, verify's oracle checks, the census engine as a whole,
    # analyze, the memo that keeps a model's tables on it, the mean matrix's
    # build and its parent factor, the block analyze reports and the one
    # owner of rho run every statement
    engine = mc_sim.ActivationProcess
    for module, obj in (
        (cli, cli.cmd_analyze),
        (dist_core, dist_core._per_model),
        (cascade_matrix, cascade_matrix.mean_matrix.__wrapped__),
        (cascade_matrix, cascade_matrix._parents.__wrapped__),
        (cascade_matrix, cascade_matrix.MeanMatrix.block.func),
        (cascade_matrix, cascade_matrix.MeanMatrix.rho.func),
        (clique_dynamics, clique_dynamics._levels),
        (clique_dynamics, clique_dynamics._alive),
        (clique_dynamics, clique_dynamics._walk_moves.__wrapped__),
        (clique_dynamics, clique_dynamics._walk),
        (clique_dynamics, clique_dynamics._fold),
        (clique_dynamics, clique_dynamics.mean_active_column),
        (mc_sim, mc_sim._walk_levels),
        (mc_sim, engine._resolve_cliques),
        (mc_sim, engine.root_step),
        (mc_sim, engine.step),
        (mc_sim, engine),
        (verification, verification.oracle_equivalence_checks),
    ):
        assert not unrun(module, obj), obj.__qualname__
