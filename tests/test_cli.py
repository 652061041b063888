"""CLI subcommands: reports, serialization, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cliquecascade import (
    OracleCheck,
    Threshold,
    cli,
    mean_matrix,
    strongly_connected_components,
)

TRIANGLE = {
    "memberships": [[3, 1.0]],
    "community_sizes": [[3, 1.0]],
    "threshold": "0.1",
}
# about 3e17 sorted clique tuples at size 20, but a 58-type mean matrix
LARGE_COMMUNITIES = {
    "memberships": [[2, 1 / 3], [3, 1 / 3], [4, 1 / 3]],
    "community_sizes": [[w, 1 / 19] for w in range(2, 21)],
    "threshold": "1/5",
}
STOP_PATH_BUDGET = {
    "memberships": [[d, 0.1] for d in range(1, 11)],
    "community_sizes": [[40, 1.0]],
    "threshold": "1/40",
}
# C(1999, 999) binomial coefficients in the level walk, far past the float range
PAST_FLOAT_RANGE = {
    "memberships": [[1, 0.5], [2, 0.5]],
    "community_sizes": [[2000, 1.0]],
    "threshold": "1/3000",
}
# size 1025 passes the level walk's guard, but some clique outcomes have
# more orderings than a float holds, and the child-count cube has 2^1024 tuples
PAST_WEIGHT_RANGE = {
    "memberships": [[1, 0.5], [2, 0.5]],
    "community_sizes": [[1025, 1.0]],
    "threshold": "1/3000",
}
# 18 child-count types: 18^6 = 34012224 tuples in the size-7 cube
WIDE = {
    "memberships": [[d, 1 / 3] for d in (2, 3, 4)],
    "community_sizes": [[w, 1 / 6] for w in range(2, 8)],
    "threshold": "1/3",
}
MIXTURE = {
    "memberships": [[2, 0.5], [4, 0.5]],
    "community_sizes": [[2, 0.5], [3, 0.5]],
    "threshold": "3/10",
}


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(argv):
    return cli.main(argv)


class TestConfigParsing:
    def test_loads_valid(self, tmp_path):
        params = cli.load_model(write_config(tmp_path, TRIANGLE))
        assert params.memberships.items == ((3, 1.0),)
        assert str(params.threshold) == "1/10"

    def test_fraction_threshold(self, tmp_path):
        payload = dict(TRIANGLE, threshold="3/10")
        params = cli.load_model(write_config(tmp_path, payload))
        assert str(params.threshold) == "3/10"

    @pytest.mark.parametrize(
        "payload",
        [
            {"memberships": [[3, 1.0]], "community_sizes": [[3, 1.0]]},
            dict(TRIANGLE, memberships=[[3, 0.4]]),
            dict(TRIANGLE, memberships=[[3, -1.0], [2, 2.0]]),
            dict(TRIANGLE, memberships="not a list"),
            dict(TRIANGLE, memberships=[[1.5, 1.0]]),
            dict(TRIANGLE, threshold="0.0"),
            dict(TRIANGLE, threshold="1.0"),
            dict(TRIANGLE, threshold="nope"),
        ],
    )
    def test_rejects_malformed(self, tmp_path, payload):
        from cliquecascade import ConfigInvalid

        with pytest.raises(ConfigInvalid):
            cli.load_model(write_config(tmp_path, payload))

    def test_missing_file_is_config_error(self, tmp_path):
        from cliquecascade import ConfigInvalid

        with pytest.raises(ConfigInvalid):
            cli.load_model(str(tmp_path / "absent.json"))


class TestEmitter:
    def test_floats_carry_17_digits(self):
        text = cli.emit_json({"x": 0.1 + 0.2})
        assert "0.30000000000000004" in text

    def test_whole_floats_keep_a_point(self):
        assert cli._float_token(1.0) == "1.0"
        assert cli._float_token(-3.0) == "-3.0"
        assert cli._float_token(0.25) == "0.25"

    def test_roundtrip_nested(self):
        document = {
            "a": [1, 2.5, None, True, "s"],
            "b": {"nested": [[0, 0.5], [4, 0.5]]},
            "c": [],
            "d": {},
        }
        assert json.loads(cli.emit_json(document)) == document

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cli.emit_json({"x": float("nan")})


class TestAnalyze:
    def test_triangle_report(self, tmp_path, capsys):
        assert run(["analyze", "--config", write_config(tmp_path, TRIANGLE)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["kind"] == "CascadePossible"
        assert report["spectral_radius"] == pytest.approx(4.0)
        assert report["clustering"]["value"] == pytest.approx(0.2)
        assert report["child_count_pmf"] == [[4, 1.0]]
        assert report["model"]["threshold"] == "1/10"
        assert report["mean_matrix"][4][4] == pytest.approx(4.0)

    def test_roundtrip(self, tmp_path, capsys):
        run(["analyze", "--config", write_config(tmp_path, TRIANGLE)])
        text = capsys.readouterr().out
        assert cli.emit_json(json.loads(text)) == text

    def test_degenerate_path_report(self, tmp_path, capsys):
        payload = {
            "memberships": [[2, 1.0]],
            "community_sizes": [[2, 1.0]],
            "threshold": "0.4",
        }
        assert run(["analyze", "--config", write_config(tmp_path, payload)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["kind"] == "CascadeAlmostSure"
        assert report["verdict"]["reason"] == "DegenerateP2Q2"
        assert report["verdict"]["rho"] is None
        assert report["branching"]["degenerate"] is True
        assert report["spectral_radius"] == pytest.approx(1.0)

    def test_half_threshold_rule(self, tmp_path, capsys):
        payload = dict(TRIANGLE, threshold="0.5")
        run(["analyze", "--config", write_config(tmp_path, payload)])
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["kind"] == "FiniteAlmostSurely"
        assert report["verdict"]["reason"] == "ThresholdAtLeastHalf"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        config = write_config(tmp_path, TRIANGLE)
        run(["analyze", "--config", config])
        stdout_text = capsys.readouterr().out
        out = tmp_path / "report.json"
        run(["analyze", "--config", config, "--out", str(out)])
        assert out.read_text(encoding="utf-8") == stdout_text

    def test_assumption_violation_exit_2(self, tmp_path, capsys):
        payload = dict(TRIANGLE, memberships=[[0, 0.5], [3, 0.5]])
        assert run(["analyze", "--config", write_config(tmp_path, payload)]) == 2

    def test_malformed_pmf_exit_1(self, tmp_path, capsys):
        payload = dict(TRIANGLE, memberships=[[3, 0.7]])
        assert run(["analyze", "--config", write_config(tmp_path, payload)]) == 1

    def test_unknown_flag_exit_1(self, tmp_path, capsys):
        assert run(["analyze", "--nope"]) == 1


class TestSimulate:
    def test_triangle_survives(self, tmp_path, capsys):
        config = write_config(tmp_path, TRIANGLE)
        code = run(
            ["simulate", "--config", config, "--depth", "5",
             "--replicates", "100", "--seed", "7"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["survival_frequency"] == 1.0
        assert report["config"] == {"depth": 5, "replicates": 100, "seed": 7}
        assert "workers" not in json.dumps(report)

    def test_blocked_threshold_dies(self, tmp_path, capsys):
        payload = dict(TRIANGLE, threshold="0.3")
        code = run(
            ["simulate", "--config", write_config(tmp_path, payload), "--depth", "5",
             "--replicates", "100", "--seed", "7"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["survival_frequency"] == 0.0

    def test_zero_replicates_exit_1(self, tmp_path, capsys):
        code = run(
            ["simulate", "--config", write_config(tmp_path, TRIANGLE), "--depth", "2",
             "--replicates", "0", "--seed", "7"]
        )
        assert code == 1

    def test_byte_identical_across_runs(self, tmp_path):
        # a stochastic model, and replicates spanning three random-stream blocks
        config = write_config(tmp_path, MIXTURE)
        outputs = []
        for i in range(3):
            out = tmp_path / f"sim{i}.json"
            code = run(
                ["simulate", "--config", config, "--depth", "3",
                 "--replicates", "600", "--seed", "9", "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_triangle_depth_31_exact(self, tmp_path, capsys):
        code = run(
            ["simulate", "--config", write_config(tmp_path, TRIANGLE), "--depth", "31",
             "--replicates", "3", "--seed", "5"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean_active_by_depth"][31] == float(6 * 4**30)
        assert report["mean_vertices_by_depth"][31] == float(6 * 4**30)
        assert report["survival_frequency"] == 1.0

    def test_census_overflow_exit_1(self, tmp_path, capsys):
        code = run(
            ["simulate", "--config", write_config(tmp_path, TRIANGLE), "--depth", "32",
             "--replicates", "3", "--seed", "5"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err

    def test_enumeration_budget_exit_1(self, tmp_path, capsys):
        # about 3e17 sorted clique tuples at size 20, but few stop paths
        config = write_config(tmp_path, LARGE_COMMUNITIES)
        argv = ["--depth", "10", "--replicates", "10", "--seed", "1"]
        assert run(["simulate", "--config", config] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["depth"] == 10
        assert run(["analyze", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["mean_matrix"]) == 58
        assert report["verdict"]["kind"] == "FiniteAlmostSurely"
        # 1.3e9 positive-probability stop paths at size 40
        config = write_config(tmp_path, STOP_PATH_BUDGET, name="paths.json")
        started = time.monotonic()
        code = run(["simulate", "--config", config] + argv)
        assert time.monotonic() - started < 10.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "enumeration too large" in captured.err

    def test_roundtrip(self, tmp_path, capsys):
        run(
            ["simulate", "--config", write_config(tmp_path, TRIANGLE), "--depth", "2",
             "--replicates", "20", "--seed", "3"]
        )
        text = capsys.readouterr().out
        assert cli.emit_json(json.loads(text)) == text


class TestSweep:
    GRID = "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5"

    def test_triangle_grid(self, tmp_path, capsys):
        config = write_config(tmp_path, TRIANGLE)
        assert run(["sweep", "--config", config, "--grid", self.GRID]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta,rho,verdict,boundary"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == self.GRID.split(",")
        rhos = [float(r[1]) for r in rows]
        assert all(a >= b for a, b in zip(rhos, rhos[1:]))
        verdicts = [r[2] for r in rows]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1
        assert verdicts[0] == "CascadePossible"
        assert verdicts[-1] == "FiniteAlmostSurely"

    def test_half_row_finite(self, tmp_path, capsys):
        config = write_config(tmp_path, TRIANGLE)
        run(["sweep", "--config", config, "--grid", "0.5"])
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[2] == "FiniteAlmostSurely"

    def test_empty_grid_exit_1(self, tmp_path, capsys):
        assert run(["sweep", "--config", write_config(tmp_path, TRIANGLE),
                    "--grid", " , "]) == 1

    def test_out_of_range_theta_exit_1(self, tmp_path, capsys):
        assert run(["sweep", "--config", write_config(tmp_path, TRIANGLE),
                    "--grid", "0.2,1.5"]) == 1


class TestVerify:
    def test_triangle_passes(self, tmp_path, capsys):
        assert run(["verify", "--config", write_config(tmp_path, TRIANGLE)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_mixture_passes(self, tmp_path, capsys):
        payload = {
            "memberships": [[1, 0.5], [3, 0.5]],
            "community_sizes": [[2, 0.5], [3, 0.5]],
            "threshold": "0.3",
        }
        assert run(["verify", "--config", write_config(tmp_path, payload)]) == 0

    def test_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "oracle_equivalence_checks",
            lambda params: [OracleCheck("forced", 1.0, 1e-9)],
        )
        assert run(["verify", "--config", write_config(tmp_path, TRIANGLE)]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is False


def fresh_cli(argv, config):
    """Run the CLI in a fresh interpreter, so the exit code and stderr are the
    real ones; returns the completed process and its wall time."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "cliquecascade.cli", *argv, "--config", config],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return result, time.monotonic() - started


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["simulate", "--depth", "2", "--replicates", "10", "--seed", "1"]],
    ids=["analyze", "simulate"],
)
def test_float_range_guard_exit_1(tmp_path, argv):
    result, seconds = fresh_cli(argv, write_config(tmp_path, PAST_FLOAT_RANGE))
    assert seconds < 5.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert "enumeration too large" in result.stderr
    assert "float range" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "payload, message",
    [
        (WIDE, "enumeration too large: 34012224 child-count tuples exceed the 10000000 budget"),
        (PAST_WEIGHT_RANGE, "enumeration too large: "),
    ],
    ids=["wide", "past-weight-range"],
)
def test_verify_refuses_before_enumerating(tmp_path, payload, message):
    # every size's budgets are checked before any cube is walked
    result, seconds = fresh_cli(["verify"], write_config(tmp_path, payload))
    assert seconds < 2.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: " + message)
    assert "Traceback" not in result.stderr


def test_analytic_commands_never_import_numpy_random(tmp_path):
    # pytest and hypothesis import numpy.random themselves, so the commands
    # run in a fresh interpreter
    config = write_config(tmp_path, MIXTURE)
    grid = "0.1,0.3"  # 0.3 is the model's own threshold
    params = cli.load_model(config)
    for theta in grid.split(","):
        entries = mean_matrix(params.with_threshold(Threshold.from_string(theta))).entries
        components = strongly_connected_components(entries > 0)
        assert max(len(c) for c in components) >= 2  # the Perron solve iterates
    script = (
        "import os, sys\n"
        "from cliquecascade import cli\n"
        f"config, grid = {config!r}, {grid!r}\n"
        "for argv in (['analyze'], ['sweep', '--grid', grid], ['verify']):\n"
        "    assert cli.main(argv + ['--config', config, '--out', os.devnull]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
