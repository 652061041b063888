"""CLI subcommands: reports, serialization, exit codes, determinism."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquecascade import (
    EnumerationTooLarge,
    ModelParams,
    OracleCheck,
    Threshold,
    cascade_matrix,
    child_count_pmf,
    cli,
    dist_core,
    mean_matrix,
    spectral_radius,
    strongly_connected_components,
)
from cliquecascade.clique_dynamics import _walk_moves, mean_active_column
from cliquecascade.dist_core import pgf_compose
from cliquecascade.mc_sim import _census_tables

from conftest import models, standard_model_suite

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
# 307 walk states at size 40, but 1.3e9 positive-probability stop paths
WIDE_CLIQUE = {
    "memberships": [[d, 0.1] for d in range(1, 11)],
    "community_sizes": [[40, 1.0]],
    "threshold": "1/40",
}
# C(29, 11) = 34,597,290 configuration tuples at 12 memberships; at 1/1000
# every type sits on level 0, so the walks reach all 199 and each row would be listed
CONFIGURATION_BUDGET = {
    "memberships": [[12, 1.0]],
    "community_sizes": [[w, 1 / 19] for w in range(2, 21)],
    "threshold": "1/1000",
}
# a 10^12-square mean matrix, and 10^24 vertices by depth 2 of the census;
# verify passes, since the one child needs 10^11 + 1 active neighbours
HUGE_MEMBERSHIP = {
    "memberships": [[10**12, 1.0]],
    "community_sizes": [[2, 1.0]],
    "threshold": "1/10",
}
# one community of 10^12 members: the mean matrix is 1 x 1, and its column
# needs binomial coefficients far past the float range
HUGE_COMMUNITY = {
    "memberships": [[1, 1.0]],
    "community_sizes": [[10**12, 1.0]],
    "threshold": "1/10",
}
# one large membership value against large communities: each composition
# needs a few point-mass products, where Horner over dense convolutions ran
# for tens of seconds
LARGE_MEMBERSHIP = {
    "p703-q776": {"memberships": [[703, 1.0]], "community_sizes": [[776, 1.0]], "threshold": "1/15"},
    "p1e6-q2": {"memberships": [[10**6, 1.0]], "community_sizes": [[2, 1.0]], "threshold": "1/10"},
    "p703-q409-879": {
        "memberships": [[703, 1.0]],
        "community_sizes": [[409, 0.5], [879, 0.5]],
        "threshold": "1/15",
    },
}
# about 1.5e11 priced pairs to compose the child-count law
WIDE_COMPOSITION = {
    "memberships": [[d, 1 / 700] for d in range(1, 701)],
    "community_sizes": [[w, 1 / 775] for w in range(2, 777)],
    "threshold": "1/15",
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
# 18 child-count types: 18 + 18^2 + ... + 18^6 = 36012942 tuples in the six cubes
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
# one 10-type component with entries from 2e-119 to 1.8 and rho far below
# them: a Perron shift by the max row sum, 1.8, left its bracket open
DEEPLY_SUBCRITICAL = {
    "memberships": [[3, 0.5], [7, 0.5]],
    "community_sizes": [[2, 2e-17], [5, 1.0]],
    "threshold": "1/10",
}
# DEEPLY_SUBCRITICAL's Perron root, from mpmath's eig of its block at 60 digits
DEEPLY_SUBCRITICAL_RHO = 3.3941126406650291227912759403818330916130958726886e-09
# size 2's size-biased mass, 2 * 5e-324 / 201.5, rounds to zero
UNDERFLOWED_SIZE = {
    "memberships": [[3, 1.0]],
    "community_sizes": [[2, 5e-324], [3, 0.5], [400, 0.5]],
    "threshold": "1/5",
}
# size 2's size-biased mass, 2e-310 / 5, is subnormal, and so is type 1's:
# a parent weight of 1 over it overflows to inf
SUBNORMAL_SIZE = {
    "memberships": [[2, 1.0]],
    "community_sizes": [[2, 1e-310], [5, 1.0]],
    "threshold": "1/10",
}
# fuzz models whose Perron root is subnormal: every entry of M lies below
# 1e-321, too few bits for a bracket relative to rho to close unless the solve
# lifts the component by an exact power of two first
SUBNORMAL_ROOT = {
    "memberships": [[1, 1.0], [7, 5e-324]],
    "community_sizes": [[5, 0.05263157894736842], [6, 0.47368421052631576], [7, 1e-300], [9, 0.47368421052631576]],
    "threshold": "1/20",
}
SUBNORMAL_ROOT_TINY_THETA = {
    "memberships": [[1, 1.0], [6, 5e-324]],
    "community_sizes": [[2, 0.6428571428571429], [3, 1e-200], [7, 0.35714285714285715]],
    "threshold": "1/3000",
}

# every individual in two communities of two: the infinite path carve-out
ALL_TWOS = {"memberships": [[2, 1.0]], "community_sizes": [[2, 1.0]], "threshold": "2/5"}

# past Python's 4300-digit int-to-str limit: a threshold whose denominator no
# report could echo, one whose power of ten would take seconds to build, and a
# config integer that json.load cannot read (raw text: json.dumps cannot write it)
OVERSIZED = {
    "threshold-1e-5000": dict(TRIANGLE, threshold="1e-5000"),
    "threshold-1e-3000000": dict(TRIANGLE, threshold="1e-3000000"),
    "integer-5001-digits": json.dumps(TRIANGLE).replace("[[3, 1.0]]", f"[[{'1' * 5001}, 1.0]]", 1),
}


# report-shaped documents: str-keyed dicts, lists, finite floats, ints, bools,
# None and strings, with empty containers at any depth
REPORT_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


def write_config(tmp_path, payload, name="model.json"):
    """Write payload as JSON, or as it stands when it is already JSON text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    return str(path)


def run(argv):
    return cli.main(argv)


def dense_mean_matrix(params):
    """The dim x dim mean matrix built as it was before the support form: weights padded to dim."""
    dim = params.max_child_count + 1
    xp, further = child_count_pmf(params), params.extra_communities
    others = np.zeros(dim)
    if further.support_max > 0:
        composed = pgf_compose(further.size_biased_shifted(), params.extra_members)
        others[composed.values] = further.mean() * composed.probs
    block = np.zeros((xp.values.size, xp.values.size))
    for w in params.community_sizes.support:
        parents = np.concatenate((np.zeros(min(w - 1, dim)), others))[xp.values]
        block += np.outer(parents, params.extra_members(w - 1) * mean_active_column(params, w))
    dense = np.zeros((dim, dim))
    dense[np.ix_(xp.values, xp.values)] = block / xp.probs[:, None]
    return dense


def assert_near_dense(params, dense):
    """dense is dense_mean_matrix(params) with the same zeros, and within (|sizes| + 2) eps relative.

    Each entry sums |sizes| nonnegative products, each rounded at most three
    times, on either side.
    """
    reference = dense_mean_matrix(params)
    assert np.array_equal(dense == 0.0, reference == 0.0)
    bound = (len(params.community_sizes.support) + 2) * np.finfo(float).eps
    assert (np.abs(dense - reference) <= bound * reference).all()


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
            dict(TRIANGLE, threshold="1/0"),
            dict(TRIANGLE, memberships=[[3, float("nan")], [4, 1.0]]),
            # past the float range: a mass, then a support value the mean multiplies
            dict(TRIANGLE, memberships=[[3, 10**400]]),
            dict(TRIANGLE, memberships=[[10**400, 1.0]]),
            # past the int-to-str limit
            *OVERSIZED.values(),
            dict(TRIANGLE, threshold="1/" + "7" * 5000),
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

    def test_undecodable_file_is_config_error(self, tmp_path):
        from cliquecascade import ConfigInvalid

        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(TRIANGLE).encode("utf-8"))
        with pytest.raises(ConfigInvalid, match="config is not valid JSON"):
            cli.load_model(str(path))


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

    def test_empty_containers(self):
        # empty lists take the flat-list branch, at any depth
        text = cli.emit_json({"c": [], "d": {}, "e": [[], [1]]})
        assert text == '{\n  "c": [],\n  "d": {},\n  "e": [\n    [],\n    [1]\n  ]\n}\n'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cli.emit_json({"x": float("nan")})

    @given(REPORT_DOCUMENTS)
    def test_matches_the_list_threading_writer(self, document):
        # the writer that appended every token to one output list
        assert cli.emit_json(document) == threaded_emit_json(document)


def threaded_emit_json(document) -> str:
    """The report writer as it was before it returned each node's text: one out list, indices for commas."""
    out: list[str] = []

    def emit(node, indent):
        pad = "  " * indent
        if isinstance(node, dict):
            if not node:
                out.append("{}")
                return
            out.append("{\n")
            for i, (key, value) in enumerate(node.items()):
                out.append(f"{pad}  {json.dumps(key)}: ")
                emit(value, indent + 1)
                out.append(",\n" if i < len(node) - 1 else "\n")
            out.append(pad + "}")
        elif isinstance(node, list):
            if all(not isinstance(v, (dict, list)) for v in node):
                out.append("[" + ", ".join(cli._scalar(v) for v in node) + "]")
                return
            out.append("[\n")
            for i, value in enumerate(node):
                out.append(pad + "  ")
                emit(value, indent + 1)
                out.append(",\n" if i < len(node) - 1 else "\n")
            out.append(pad + "]")
        else:
            out.append(cli._scalar(node))

    emit(document, 0)
    return "".join(out) + "\n"


class TestAnalyze:
    def test_triangle_report(self, tmp_path, capsys):
        assert run(["analyze", "--config", write_config(tmp_path, TRIANGLE)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["kind"] == "CascadePossible"
        assert report["spectral_radius"] == pytest.approx(4.0)
        assert report["clustering"]["value"] == pytest.approx(0.2)
        assert report["child_count_pmf"] == [[4, 1.0]]
        assert report["model"]["threshold"] == "1/10"
        assert report["mean_matrix"]["types"] == [4]
        assert report["mean_matrix"]["entries"] == [[pytest.approx(4.0)]]

    @pytest.mark.parametrize("params", standard_model_suite())
    def test_block_expands_to_the_dense_matrix(self, params):
        # the report's {types, entries}, expanded, is the dense view analyze
        # once emitted, up to rounding, with the same zeros
        report = json.loads(cli.emit_json(cli.cmd_analyze(params)))["mean_matrix"]
        dense = np.zeros((params.max_child_count + 1,) * 2)
        dense[np.ix_(report["types"], report["types"])] = report["entries"]
        assert_near_dense(params, dense)

    @given(models(range(1, 6), range(2, 8), max_points=4))
    def test_entries_are_the_dense_matrix(self, params):
        assert_near_dense(params, mean_matrix(params).entries)

    def test_tiny_membership_keeps_its_block_row(self, tmp_path, capsys):
        # a type-2 vertex opens one size-3 community, whose two children are
        # of type 2 with probability 5e-201 and of type 6 with 1.5e-200, and
        # all activate: the rows are rank one, and the root is 1e-199
        payload = {
            "memberships": [[1, 1.0], [2, 1e-200]],
            "community_sizes": [[3, 0.4375], [7, 0.5625]],
            "threshold": "1/10",
        }
        assert run(["analyze", "--config", write_config(tmp_path, payload)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean_matrix"]["types"] == [0, 2, 6]
        assert report["mean_matrix"]["entries"][1] == pytest.approx([2.0, 1e-200, 3e-200], rel=1e-9, abs=0.0)
        assert report["spectral_radius"] == pytest.approx(1e-199, rel=1e-9, abs=0.0)

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

    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path, TRIANGLE)
        for out in (tmp_path, tmp_path / "absent" / "report.json"):
            assert run(["analyze", "--config", config, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: cannot write output: ")

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

    def test_many_community_sizes_answer(self, tmp_path, capsys):
        # 600 sizes: the configuration table lists its size-count vectors
        # without a call per size on the stack
        payload = {
            "memberships": [[1, 0.5], [2, 0.5]],
            "community_sizes": [[w, 1 / 600] for w in range(2, 602)],
            "threshold": "1/5",
        }
        argv = ["--depth", "2", "--replicates", "50", "--seed", "1"]
        assert run(["simulate", "--config", write_config(tmp_path, payload)] + argv) == 0
        assert json.loads(capsys.readouterr().out)["config"]["depth"] == 2

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
        # about 3e17 sorted clique tuples at size 20, but a small walk
        config = write_config(tmp_path, LARGE_COMMUNITIES)
        argv = ["--depth", "10", "--replicates", "10", "--seed", "1"]
        assert run(["simulate", "--config", config] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["depth"] == 10
        assert run(["analyze", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        types = report["mean_matrix"]["types"]  # 57 types on a dense dim of 58
        assert len(types) == 57 and max(types) == 57
        assert [len(row) for row in report["mean_matrix"]["entries"]] == [57] * 57
        assert report["verdict"]["kind"] == "FiniteAlmostSurely"
        config = write_config(tmp_path, CONFIGURATION_BUDGET, name="configs.json")
        assert run(["simulate", "--config", config] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "enumeration too large: 34597290 configuration tuples" in captured.err

    def test_configuration_count_past_float_range(self, tmp_path, capsys):
        # a type-1099 parent has 1,100 configurations, and the multinomial
        # count of the middle ones passes 1.8e308, so a weight formed as that
        # count times a product overflows; the table forms it in log space.  A root's 1,100 communities hold 1.6 more
        # members each in expectation, so the depth-1 mean is 1760 with a
        # standard error of about 5; the bound is fixed before any run.
        payload = {"memberships": [[1100, 1.0]], "community_sizes": [[2, 0.5], [3, 0.5]], "threshold": "1/5"}
        argv = ["simulate", "--config", write_config(tmp_path, payload)]
        assert run(argv + ["--depth", "2", "--replicates", "10", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        report = json.loads(captured.out)
        assert abs(report["mean_vertices_by_depth"][1] - 1760) < 60

    def test_underflowed_size_simulates(self, tmp_path, capsys):
        # the root's spread keeps one column per community size
        config = write_config(tmp_path, UNDERFLOWED_SIZE)
        argv = ["--depth", "2", "--replicates", "10", "--seed", "1"]
        assert run(["simulate", "--config", config] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        # three communities of 3 or 400 below the root
        assert 6 <= report["mean_vertices_by_depth"][1] <= 1197

    def test_wide_clique_simulates(self, tmp_path, capsys):
        # the census walks the 307 states, so depth 3 runs, and depth 10
        # would outgrow int64 at level 8
        config = write_config(tmp_path, WIDE_CLIQUE)
        argv = ["--replicates", "10", "--seed", "1"]
        assert run(["simulate", "--config", config, "--depth", "3"] + argv) == 0
        assert len(json.loads(capsys.readouterr().out)["mean_active_by_depth"]) == 4
        started = time.monotonic()
        code = run(["simulate", "--config", config, "--depth", "10"] + argv)
        assert time.monotonic() - started < 10.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "simulation overflow" in captured.err

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

    def test_boundary_column_reads_rho_on_carve_outs(self, tmp_path, capsys):
        # the path's rho is 1: sweep flags it, analyze's verdict (a carve-out) does not
        config = write_config(tmp_path, ALL_TWOS)
        run(["sweep", "--config", config, "--grid", "2/5"])
        assert capsys.readouterr().out.splitlines()[1] == "2/5,1.0,CascadeAlmostSure,true"
        run(["analyze", "--config", config])
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["rho"] is None and verdict["boundary"] is False

    def test_tiny_size_masses_keep_the_root(self, tmp_path, capsys):
        # every vertex has one further community, and sizes 6 and 9 activate
        # nobody at 3/10, so M on sizes 2 and 3 is [[e2, e3], [2 e2, 2 e2 e3]]
        # with e_w = w q_w / E[W]; 7.1343739231793107e-101 is its root to 50 digits
        tiny = 2.3446206874129604e-200
        payload = {
            "memberships": [[2, 1.0]],
            "community_sizes": [[2, tiny], [3, 0.4110663526636965], [6, 0.5889336473363035], [9, tiny]],
            "threshold": "1/10",
        }
        assert run(["sweep", "--config", write_config(tmp_path, payload), "--grid", "3/10"]) == 0
        rho = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert rho == pytest.approx(7.1343739231793107e-101, rel=1e-9, abs=0.0)

    def test_empty_grid_exit_1(self, tmp_path, capsys):
        assert run(["sweep", "--config", write_config(tmp_path, TRIANGLE),
                    "--grid", " , "]) == 1

    def test_out_of_range_theta_exit_1(self, tmp_path, capsys):
        assert run(["sweep", "--config", write_config(tmp_path, TRIANGLE),
                    "--grid", "0.2,1.5"]) == 1

    def test_zero_denominator_theta_exit_1(self, tmp_path, capsys):
        assert run(["sweep", "--config", write_config(tmp_path, TRIANGLE),
                    "--grid", "1/10,1/0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad sweep threshold '1/0'")


    def test_deeply_subcritical_root(self, tmp_path, capsys):
        config = write_config(tmp_path, DEEPLY_SUBCRITICAL)
        assert run(["sweep", "--config", config, "--grid", "1/10"]) == 0
        _, rho, kind, boundary = capsys.readouterr().out.splitlines()[1].split(",")
        assert (kind, boundary) == ("FiniteAlmostSurely", "false")
        rel = abs(float(rho) - DEEPLY_SUBCRITICAL_RHO) / DEEPLY_SUBCRITICAL_RHO
        assert rel <= cascade_matrix.POWER_REL_TOL
        assert run(["analyze", "--config", config]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["kind"] == "FiniteAlmostSurely" and verdict["rho"] == float(rho)

    def test_exhausted_perron_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cascade_matrix, "POWER_MAX_ITER", 5)
        config = write_config(tmp_path, DEEPLY_SUBCRITICAL)
        assert run(["sweep", "--config", config, "--grid", "1/10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "error: iteration did not converge: power iteration exhausted its budget with rho in ["
        (line,) = captured.err.splitlines()
        assert line.startswith(prefix) and line.endswith("]")
        lo, hi = map(float, line[len(prefix):-1].split(", "))
        assert lo <= DEEPLY_SUBCRITICAL_RHO <= hi

    def test_points_share_the_threshold_free_laws(self, monkeypatch):
        # no threshold enters the child-count law or the mean matrix's
        # communities factor: a sweep composes each once for all its points,
        # every point's mean matrix reads its base's communities, and a
        # separate load of equal laws composes its own
        points, composed, with_threshold = [], [], ModelParams.with_threshold

        def kept(base, threshold):
            points.append(with_threshold(base, threshold))
            return points[-1]

        def counted(outer, inner):
            composed.append(outer)
            return pgf_compose(outer, inner)

        monkeypatch.setattr(ModelParams, "with_threshold", kept)
        monkeypatch.setattr(dist_core, "pgf_compose", counted)
        monkeypatch.setattr(cascade_matrix, "pgf_compose", counted)
        base = ModelParams.create({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "3/10")
        cli.cmd_sweep(base, ["1/20", "1/10", "1/5", "3/10", "2/5"])
        assert len(points) == 5 and len(composed) == 2
        communities = mean_matrix(base).communities
        for point in points:
            assert child_count_pmf(point) is child_count_pmf(base) and mean_matrix(point).communities is communities
        fresh = mean_matrix(ModelParams.create({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "3/10"))
        assert child_count_pmf(fresh.params) == child_count_pmf(base)
        assert np.array_equal(fresh.communities, communities)
        assert child_count_pmf(fresh.params) is not child_count_pmf(base) and fresh.communities is not communities
        assert len(composed) == 4

    def test_each_point_is_freed_with_its_tables(self, monkeypatch):
        # a point's walk tables, mean columns and mean matrix are kept on the
        # point alone, so nothing holds a point once the sweep is done with it;
        # the laws the points share with their model go with the last of them
        points, with_threshold = [], ModelParams.with_threshold

        def kept(base, threshold):
            point = with_threshold(base, threshold)
            points.append(weakref.ref(point))
            return point

        monkeypatch.setattr(ModelParams, "with_threshold", kept)
        params = ModelParams.create({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "3/10")
        cli.cmd_sweep(params, ["1/20", "1/5", "3/10", "1/2"])
        gc.collect()
        assert len(points) == 4 and all(point() is None for point in points)
        law, communities = weakref.ref(child_count_pmf(params)), weakref.ref(mean_matrix(params).communities)
        del params
        gc.collect()
        assert law() is None and communities() is None


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


SIMULATE_DEPTH_2 = ["simulate", "--depth", "2", "--replicates", "10", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, code, expected",
    [(["analyze"], 0, {"mean_matrix": {"types": [10**12 - 1], "entries": [[0.0]]}}),
     (SIMULATE_DEPTH_2, 1, "error: simulation overflow: level 2 would hold "),
     (["verify"], 0, {"all_passed": True})],
    ids=["analyze", "simulate", "verify"],
)
def test_huge_membership_value(tmp_path, argv, code, expected):
    # one type: analyze reports its 1 x 1 block, whatever its dense dim
    result, seconds = fresh_cli(argv, write_config(tmp_path, HUGE_MEMBERSHIP))
    assert seconds < 5.0
    assert result.returncode == code
    if code:
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(expected)
    else:
        assert result.stderr == ""
        report = json.loads(result.stdout)
        assert {key: report[key] for key in expected} == expected


@pytest.mark.parametrize("argv", [["analyze"], ["sweep", "--grid", "1/10,1/5"]], ids=["analyze", "sweep"])
def test_huge_community_size_refused_at_once(tmp_path, argv):
    result, seconds = fresh_cli(argv, write_config(tmp_path, HUGE_COMMUNITY))
    assert seconds < 5.0
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: enumeration too large: community size 1000000000000 ")


@pytest.mark.parametrize(
    "name, argv",
    [("p703-q776", SIMULATE_DEPTH_2), ("p703-q776", ["verify"]), ("p1e6-q2", SIMULATE_DEPTH_2),
     ("p1e6-q2", ["verify"]), ("p703-q409-879", SIMULATE_DEPTH_2)],
    ids=["p703-q776-simulate", "p703-q776-verify", "p1e6-q2-simulate", "p1e6-q2-verify",
         "p703-q409-879-simulate"],
)
def test_one_large_membership_value_composes_at_once(tmp_path, name, argv):
    result, seconds = fresh_cli(argv, write_config(tmp_path, LARGE_MEMBERSHIP[name]))
    assert result.returncode == 0, result.stderr
    assert seconds < 5.0


def test_wide_composition_refused_at_once(tmp_path):
    result, seconds = fresh_cli(["verify"], write_config(tmp_path, WIDE_COMPOSITION))
    assert seconds < 2.0
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: enumeration too large: ")
    assert lines[0].endswith(" composition products exceed the 10000000 budget")


@pytest.mark.parametrize("name", sorted(OVERSIZED))
@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["simulate", "--depth", "2", "--replicates", "10", "--seed", "1"],
     ["sweep", "--grid", "0.1"], ["verify"]],
    ids=["analyze", "simulate", "sweep", "verify"],
)
def test_oversized_integers_refused_before_any_work(tmp_path, capsys, argv, name):
    started = time.monotonic()
    assert run(argv + ["--config", write_config(tmp_path, OVERSIZED[name])]) == 1
    assert time.monotonic() - started < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "digit" in lines[0] or "exponent" in lines[0]


def test_oversized_sweep_threshold_refused(tmp_path, capsys):
    assert run(["sweep", "--grid", "0.1,1e-5000", "--config", write_config(tmp_path, TRIANGLE)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: bad sweep threshold '1e-5000': threshold exponent must lie within +-4300"
    ]


def test_huge_depth_refused_before_allocating(tmp_path):
    # depth 10^9 would ask for per-depth tallies of 10^9 + 1 entries each
    argv = ["simulate", "--depth", "1000000000", "--replicates", "10", "--seed", "1"]
    result, seconds = fresh_cli(argv, write_config(tmp_path, TRIANGLE))
    assert seconds < 5.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: enumeration too large: 1000000001 depth levels exceed the 10000000 budget"
    ]


@pytest.mark.parametrize(
    "payload, message",
    [
        (WIDE, "enumeration too large: 36012942 child-count tuples exceed the 10000000 budget"),
        (
            PAST_WEIGHT_RANGE,
            "enumeration too large: at least 2^1024 child-count tuples exceed the 10000000 budget",
        ),
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
    # a count past int64 is shown as a bound, so the refusal is one short line
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 120


@pytest.mark.parametrize(
    "command, memberships, community_sizes",
    [
        ("analyze", [[4, 1.0]], [[100000, 1.0]]),
        ("simulate", [[4, 1.0]], [[100000, 1.0]]),
        ("analyze", [[4, 1.0]], [[2, 0.5], [100000, 0.5]]),
        ("simulate", [[4, 1.0]], [[2, 0.5], [100000, 0.5]]),
        ("verify", [[4, 1.0]], [[100000, 1.0]]),
        ("verify", [[4, 1.0]], [[2, 0.5], [100000, 0.5]]),
    ],
    ids=["analyze-q1e5", "simulate-q1e5", "analyze-q-mixed", "simulate-q-mixed", "verify-q1e5",
         "verify-q-mixed"],
)
def test_refused_before_composing(tmp_path, command, memberships, community_sizes):
    # a community size past the walk's float range: analyze, simulate and
    # verify all refuse it at the walk's gate, before composing the
    # child-count law
    payload = {"memberships": memberships, "community_sizes": community_sizes, "threshold": "1/10"}
    argv = [command]
    if command == "simulate":
        argv += ["--depth", "2", "--replicates", "10", "--seed", "1"]
    result, seconds = fresh_cli(argv, write_config(tmp_path, payload))
    assert seconds < 2.0
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: enumeration too large: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("members", [5000, 10**5, 10**6], ids=["p5000", "p1e5", "p1e6"])
def test_one_type_reported_at_once(tmp_path, members):
    # p = {d: 1}, q = {2: 1} has the one type d - 1: a 1 x 1 block, however
    # large the dense d x d view it was once refused on
    payload = {"memberships": [[members, 1.0]], "community_sizes": [[2, 1.0]], "threshold": "1/10"}
    result, seconds = fresh_cli(["analyze"], write_config(tmp_path, payload))
    assert seconds < 2.0
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["mean_matrix"] == {"types": [members - 1], "entries": [[0.0]]}


# walks of 20,833,251 moves in one size, and of 3.1M-3.8M in each of four
# sizes but 13,764,022 together; the folds and the census plan ran 64-87 s
WIDE_WALKS = {
    "p1-1000-q500": ([[d, 1 / 1000] for d in range(1, 1001)], [[500, 1.0]], "1/600", 20833251),
    "p1-100-q300-330": (
        [[d, 1 / 100] for d in range(1, 101)], [[w, 0.25] for w in (300, 310, 320, 330)], "1/340", 13764022,
    ),
}


@pytest.mark.parametrize("name", sorted(WIDE_WALKS))
@pytest.mark.parametrize(
    "argv", [["analyze"], SIMULATE_DEPTH_2, ["verify"]], ids=["analyze", "simulate", "verify"]
)
def test_walk_moves_refused_at_once(tmp_path, argv, name):
    memberships, community_sizes, theta, moves = WIDE_WALKS[name]
    payload = {"memberships": memberships, "community_sizes": community_sizes, "threshold": theta}
    result, seconds = fresh_cli(argv, write_config(tmp_path, payload))
    assert seconds < 2.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: enumeration too large: {moves} walk moves exceed the 10000000 budget"
    ]


@pytest.mark.parametrize("argv", [["analyze"], SIMULATE_DEPTH_2], ids=["analyze", "simulate"])
def test_one_move_walk_answered(tmp_path, argv):
    # one type, 999, on level 199 of the size-1000 walk: one move, the parent alone activates nothing
    payload = {"memberships": [[2, 1.0]], "community_sizes": [[1000, 1.0]], "threshold": "1/10"}
    result, seconds = fresh_cli(argv, write_config(tmp_path, payload))
    assert seconds < 2.0
    assert result.returncode == 0, result.stderr


# p uniform on 1..4000 with pairs: 4000 types, a 1.6e7-entry block.  At
# theta 1/10 (1/5) the types x <= 8 (x <= 3) activate, each weighing
# x (x + 1) / (4000 * 2000.5), so rho is 240 (20) / 8,002,000
WIDE_PAIRS = {
    "memberships": [[d, 1 / 4000] for d in range(1, 4001)],
    "community_sizes": [[2, 1.0]],
    "threshold": "1/10",
}
# p uniform on 1..40, q uniform on the 21 primes in 101..199: 3,783 types
# and a 14,311,089-entry block, but 21 walk moves, since no child activates
PRIME_SIZES = {
    "memberships": [[d, 1 / 40] for d in range(1, 41)],
    "community_sizes": [[w, 1 / 21] for w in range(101, 200) if all(w % f for f in range(2, 15))],
    "threshold": "1/12",
}


def test_sweep_answers_past_the_block_budget(tmp_path, capsys):
    # sweep solves rho on the size-to-size matrix and never builds the block;
    # analyze reports the block, so it still refuses it
    config = write_config(tmp_path, WIDE_PAIRS)
    assert run(["analyze", "--config", config]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: enumeration too large: 16000000 mean matrix entries exceed the 10000000 budget"
    ]
    assert run(["sweep", "--config", config, "--grid", "1/10,1/5"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(theta, kind, boundary) for theta, _, kind, boundary in rows] == [
        ("1/10", "FiniteAlmostSurely", "false"), ("1/5", "FiniteAlmostSurely", "false")
    ]
    for (_, rho, _, _), expected in zip(rows, (240 / 8_002_000, 20 / 8_002_000)):
        assert float(rho) == pytest.approx(expected, rel=1e-12)
    assert "block" not in vars(mean_matrix(cli.load_model(config)))


def test_subnormal_type_mass_answered(tmp_path, capsys):
    # a quotient by type 1's subnormal mass can overflow to inf, and then
    # spectral_radius's ValueError escapes cli.main; each factor divides
    # by a type's mass only where the quotient is bounded
    config = write_config(tmp_path, SUBNORMAL_SIZE)
    expected = spectral_radius(mean_matrix(cli.load_model(config)).block)
    assert expected == pytest.approx(4.0, rel=1e-9)
    assert run(["analyze", "--config", config]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert captured.err == "" and report["verdict"]["kind"] == "CascadePossible"
    assert report["spectral_radius"] == report["verdict"]["rho"] == pytest.approx(expected, rel=1e-9, abs=0.0)
    assert run(["sweep", "--config", config, "--grid", "1/10,1/5"]) == 0
    captured = capsys.readouterr()
    header, *rows = captured.out.splitlines()
    assert captured.err == "" and header == "theta,rho,verdict,boundary" and len(rows) == 2
    assert float(rows[0].split(",")[1]) == pytest.approx(expected, rel=1e-9, abs=0.0)


def lifted_eigenvalue_root(params) -> float:
    """LAPACK's largest |eigenvalue| of M = columns^T communities lifted by 2^up, scaled back by 2^-up."""
    matrix = mean_matrix(params)
    m = matrix.columns.T @ matrix.communities
    up = max(0, -int(np.frexp(m.max())[1]))
    return math.ldexp(float(max(abs(np.linalg.eigvals(np.ldexp(m, up))))), -up)


def test_subnormal_root_answered(tmp_path, capsys):
    # the bracket [8.8931816251424378e-322, 8.9425881897265624e-322] could
    # not close at 1/20 (exit 3); lifted, each root is LAPACK's within one
    # subnormal step
    config = write_config(tmp_path, SUBNORMAL_ROOT)
    assert run(["sweep", "--config", config, "--grid", "1/20,1/10"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert captured.err == ""
    assert [(theta, float(rho), kind) for theta, rho, kind, _ in rows] == [
        ("1/20", 8.9425881897265624e-322, "FiniteAlmostSurely"),
        ("1/10", 8.3497094147170666e-322, "FiniteAlmostSurely"),
    ]
    params = cli.load_model(config)
    for theta, rho, _, _ in rows:
        assert abs(float(rho) - lifted_eigenvalue_root(params.with_threshold(theta))) <= 5e-324


def test_subnormal_root_at_a_tiny_threshold_answered(tmp_path, capsys):
    config = write_config(tmp_path, SUBNORMAL_ROOT_TINY_THETA)
    assert run(["analyze", "--config", config]) == 0
    captured = capsys.readouterr()
    rho = json.loads(captured.out)["spectral_radius"]
    assert captured.err == "" and 0.0 < rho < sys.float_info.min
    assert abs(rho - lifted_eigenvalue_root(cli.load_model(config))) <= 5e-324


def test_sweep_answers_many_types_with_a_short_walk(tmp_path, capsys):
    config = write_config(tmp_path, PRIME_SIZES)
    started = time.monotonic()
    assert run(["sweep", "--config", config, "--grid", "1/12"]) == 0
    assert time.monotonic() - started < 5.0
    assert capsys.readouterr().out.splitlines()[1] == "1/12,0.0,FiniteAlmostSurely,false"
    params = cli.load_model(config)
    assert len(params.community_sizes.support) == 21 and _walk_moves(params) == 21
    assert child_count_pmf(params).values.size == 3783


def test_analyze_prices_the_block_before_folding(tmp_path, capsys):
    # at 1/200 the walks are short but the block has 14,311,089 entries:
    # analyze refuses it before any mean column is folded (8.7 s when every
    # column was folded first).  The 2.0 s bound was fixed before any run
    config = write_config(tmp_path, dict(PRIME_SIZES, threshold="1/200"))
    started = time.monotonic()
    assert run(["analyze", "--config", config]) == 1
    assert time.monotonic() - started < 2.0
    assert capsys.readouterr().err.splitlines() == [
        "error: enumeration too large: 14311089 mean matrix entries exceed the 10000000 budget"
    ]
    params = cli.load_model(config)
    with pytest.raises(EnumerationTooLarge):
        cli.cmd_analyze(params)
    assert "mean_active_column" not in vars(params) and "block" not in vars(mean_matrix(params))


# sizes 10..58 at theta 1/2: no walk places a child, yet 3,444,939
# configuration rows were listed for a simulate run of 18.3 s and 720 MB
NO_CHILD_ACTIVATES = {
    "memberships": [[1, 0.2], [5, 0.2], [10, 0.2], [20, 0.2], [34, 0.2]],
    "community_sizes": [[10, 0.15], [18, 0.15], [26, 0.15], [34, 0.15], [42, 0.15], [50, 0.15], [58, 0.1]],
    "threshold": "1/2",
}


def test_simulate_lists_no_rows_when_no_child_activates(tmp_path, capsys):
    # the census lists configuration rows only for types a walk activates;
    # the 2.0 s bound was fixed before any run
    config = write_config(tmp_path, NO_CHILD_ACTIVATES)
    started = time.monotonic()
    assert run(["simulate", "--depth", "2", "--replicates", "50", "--seed", "1", "--config", config]) == 0
    assert time.monotonic() - started < 2.0
    assert json.loads(capsys.readouterr().out)["mean_active_by_depth"] == [1.0, 0.0, 0.0]
    tables = _census_tables(cli.load_model(config))
    assert not tables.configs and not tables.fixed.any()


# 40 memberships over sizes 2..21 at 9/20: no walk activates any type, yet a
# price over every size counted C(58, 39) = 947,309,492,837,400 tuples
NO_TYPE_REACHED = {
    "memberships": [[40, 1.0]],
    "community_sizes": [[w, 1 / 20] for w in range(2, 22)],
    "threshold": "9/20",
}


def test_simulate_prices_only_the_rows_within_reach(tmp_path, capsys):
    # the configuration price reads the walks' reach, so a model whose walks
    # activate nothing lists and prices no row; sweep answers rho = 0 there
    config = write_config(tmp_path, NO_TYPE_REACHED)
    assert run(["simulate", "--depth", "3", "--replicates", "10", "--seed", "1", "--config", config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["survival_frequency"] == 0.0
    assert report["mean_active_by_depth"] == [1.0, 0.0, 0.0, 0.0]
    assert run(["sweep", "--config", config, "--grid", "9/20"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "9/20,0.0,FiniteAlmostSurely,false"


# 300 community sizes and 601 types: analyze builds the 601-square block
MANY_SIZES = {
    "memberships": [[d, 1 / 3] for d in (1, 2, 3)],
    "community_sizes": [[w, 1 / 300] for w in range(2, 302)],
    "threshold": "1/5",
}


def test_analyze_answers_many_community_sizes(tmp_path, capsys):
    # analyze and sweep each answer within 5.0 s, over ten times what either
    # takes in process, and print the same rho token at 1/5
    config = write_config(tmp_path, MANY_SIZES)
    started = time.monotonic()
    assert run(["analyze", "--config", config]) == 0
    assert time.monotonic() - started < 5.0
    text = capsys.readouterr().out
    [token] = [line.split(": ")[1].rstrip(",") for line in text.splitlines() if '"spectral_radius"' in line]
    assert json.loads(text)["verdict"]["kind"] == "FiniteAlmostSurely"
    started = time.monotonic()
    assert run(["sweep", "--config", config, "--grid", "1/5,1/10"]) == 0
    assert time.monotonic() - started < 5.0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [theta for theta, *_ in rows] == ["1/5", "1/10"] and rows[0][1] == token


def test_verify_prices_its_cubes_together(tmp_path):
    # 5 types: cubes of 1,953,125 and 9,765,625 tuples, each inside the
    # budget but 11,718,750 together: about 2 minutes of rounds at ~12 us a tuple
    payload = {"memberships": [[2, 0.5], [3, 0.5]], "community_sizes": [[10, 0.5], [11, 0.5]], "threshold": "1/10"}
    result, seconds = fresh_cli(["verify"], write_config(tmp_path, payload))
    assert seconds < 2.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: enumeration too large: 11718750 child-count tuples exceed the 10000000 budget"
    ]


P23_Q23 = {
    "memberships": [[2, 0.5], [3, 0.5]],
    "community_sizes": [[2, 0.5], [3, 0.5]],
    "threshold": "1/5",
}
# sha256 of simulate --depth 6 --replicates 600 --seed 3 reports, three
# blocks each; p23-q23 draws from a configuration table with several rows
SIMULATE_DIGESTS_NUMPY = "2.4.6"
SIMULATE_DIGESTS = {
    "triangle": (TRIANGLE, "9797193fe639dfd9756ec7b8fc080278119cd70a1718340f392f111b12399019"),
    "p23-q23": (P23_Q23, "def8c6b5980ca752951894161303b3ba822f94171198963a69a27cef085a114d"),
    "wide": (WIDE, "0529bee0131c70afacaf23c1a182f21980147a15a97bcb7ae8de6e38ea530c98"),
}


@pytest.mark.skipif(
    np.__version__ != SIMULATE_DIGESTS_NUMPY,
    reason=f"digests recorded with numpy {SIMULATE_DIGESTS_NUMPY}; "
    "the determinism contract covers the same numpy only",
)
@pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
def test_simulate_reports_are_pinned(tmp_path, name):
    # a report is a function of (model, depth, replicates, seed): every
    # random stream and every float in it stays as recorded
    payload, digest = SIMULATE_DIGESTS[name]
    out = tmp_path / "report.json"
    argv = ["simulate", "--depth", "6", "--replicates", "600", "--seed", "3"]
    assert run(argv + ["--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the benchmark's depth-30 census model: sha256 of simulate --depth 30
# reports at (replicates, seed), recorded before the census step plan
# replaced the per-level loop; 515 replicates span three blocks
CENSUS_DEEP = {
    "memberships": [[1, 0.5], [3, 0.5]],
    "community_sizes": [[2, 1.0]],
    "threshold": "1/10",
}
CENSUS_DEEP_DIGESTS = {
    (200, 101): "f6768e0e5ce849ad11406752853e5b1b82e4bf03437205f0e234cf6490f52c63",
    (200, 102): "981b2afbec7afe8a01b13da08e9acd1d9cb017da2c900cd6620a2e930b1011ee",
    (200, 103): "2f6e72a08af64a3a789b5b64f249e211b94ed7dd56e1e1e3a8772484b09f473a",
    (2 * 256 + 3, 104): "3f618fe6adae8c3a96600ce4e36e33575399355225469d01398c79216774eb24",
}


@pytest.mark.skipif(
    np.__version__ != SIMULATE_DIGESTS_NUMPY,
    reason=f"digests recorded with numpy {SIMULATE_DIGESTS_NUMPY}; "
    "the determinism contract covers the same numpy only",
)
@pytest.mark.parametrize("replicates, seed", sorted(CENSUS_DEEP_DIGESTS))
def test_census_deep_reports_are_pinned(tmp_path, replicates, seed):
    out = tmp_path / "report.json"
    argv = ["simulate", "--depth", "30", "--replicates", str(replicates), "--seed", str(seed)]
    assert run(argv + ["--config", write_config(tmp_path, CENSUS_DEEP), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CENSUS_DEEP_DIGESTS[replicates, seed]


@pytest.mark.parametrize(
    "payload",
    [TRIANGLE, MIXTURE, ALL_TWOS],
    ids=["triangle", "mixture", "all-2s-path"],
)
def test_one_perron_solve_per_point(tmp_path, capsys, monkeypatch, payload):
    # every spectral_radius call condenses its matrix once, on the community
    # sizes; the verdict, analyze's spectral_radius field and each sweep row
    # read MeanMatrix.rho
    solves = []

    def counting(adjacency):
        solves.append(adjacency.shape[0])
        return strongly_connected_components(adjacency)

    monkeypatch.setattr(cascade_matrix, "strongly_connected_components", counting)
    config = write_config(tmp_path, payload)
    sizes = len(cli.load_model(config).community_sizes.support)
    for argv, points in ((["analyze"], 1), (["sweep", "--grid", "1/20,1/5,2/5,1/2,3/5"], 5)):
        solves.clear()
        assert run(argv + ["--config", config]) == 0
        capsys.readouterr()
        assert solves == [sizes] * points


def test_analytic_commands_never_import_numpy_random(tmp_path):
    # pytest and hypothesis import numpy.random themselves, so the commands
    # run in a fresh interpreter
    config = write_config(tmp_path, MIXTURE)
    grid = "0.1,0.3"  # 0.3 is the model's own threshold
    params = cli.load_model(config)
    for theta in grid.split(","):
        point = params.with_threshold(Threshold.from_string(theta))
        matrix = mean_matrix(point)
        components = strongly_connected_components(matrix.columns.T @ matrix.communities > 0)
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


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_matches_fresh_interpreters(self, tmp_path, capsys):
        # a --out write, stdout, a usage refusal and a CSV, in one process
        config = write_config(tmp_path, MIXTURE)
        simulate = ["simulate", "--replicates", "50", "--seed", "5"]
        commands = [
            simulate + ["--depth", "3", "--out"],
            ["analyze"],
            simulate,  # no --depth
            ["sweep", "--grid", "0.1,0.3"],
        ]

        def outcomes(run_one, prefix):
            results = []
            for i, argv in enumerate(commands):
                path = tmp_path / f"{prefix}{i}.json"
                if argv[-1] == "--out":
                    argv = argv + [str(path)]
                code, out, err = run_one(argv)
                written = path.read_text(encoding="utf-8") if path.exists() else None
                results.append((code, out, err, written))
            return results

        def fresh(argv):
            result, _ = fresh_cli(argv, config)
            return result.returncode, result.stdout, result.stderr

        def reused(argv):
            code = cli.main(argv + ["--config", config])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        expected = outcomes(fresh, "fresh")
        assert [r[0] for r in expected] == [0, 0, 1, 0]
        assert expected[0][3] and expected[2][2].startswith("error: ")
        assert outcomes(reused, "reused") == expected


def test_parser_is_built_on_the_first_main_call(tmp_path):
    # a fresh interpreter, so no earlier test has built the parser
    config = write_config(tmp_path, TRIANGLE)
    script = (
        "import argparse, os\n"
        "roots = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    roots.extend([1] if kwargs.get('prog') == 'cliquecascade' else [])\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from cliquecascade import cli\n"
        "counts = [len(roots)]\n"
        "for _ in range(2):\n"
        f"    assert cli.main(['analyze', '--config', {config!r}, '--out', os.devnull]) == 0\n"
        "    counts.append(len(roots))\n"
        "print(counts)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 1, 1]"
