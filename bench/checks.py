"""Correctness checks on every op's output; any problem marks the op failed.

Statistical bounds are fixed in advance from a per-test false-alarm rate of
3.8e-8, the two-sided normal tail beyond 5.5 sigma.  Comparing two commits
takes about 70 runs of up to ~12 batches with ~35 tests each, about 3e4
tests, so the chance of even one false alarm among them is about 1e-3.  The
bounds must never be tuned after seeing a failure: a failure is reported as
a package bug.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

Z_BOUND = 5.5
# Student t quantile with workloads.CENSUS_OPS - 1 = 19 degrees of freedom at the same
# two-sided tail (scipy.stats.t.isf(3.8e-8 / 2, 19) = 8.823).  The census
# report carries only per-op means, so the spread of the per-depth means is
# estimated from the spread across ops.
T_BOUND = 8.83
REFERENCE_REL_TOL = 1e-9
FIXED_POINT_RESIDUAL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _pairs(entries) -> dict[int, float]:
    return {int(v): float(p) for v, p in entries}


def params_of(cc, model: dict):
    return cc.ModelParams.create(
        _pairs(model["memberships"]), _pairs(model["community_sizes"]), model["threshold"]
    )


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REFERENCE_REL_TOL * abs(reference)


# --- census_deep -----------------------------------------------------------

def census_report_problems(op: dict, report: dict) -> list[str]:
    """Checks one simulate report needs nothing else for."""
    problems = []
    depth = int(op["argv"][op["argv"].index("--depth") + 1])
    config = report["config"]
    if [config["depth"], config["replicates"], config["seed"]] != [
        int(op["argv"][op["argv"].index(flag) + 1])
        for flag in ("--depth", "--replicates", "--seed")
    ]:
        problems.append("config echo differs from the op")
    survival = report["survival_frequency"]
    alive = report["graph_alive_frequency"]
    if not (0.0 <= survival <= 1.0 and 0.0 <= alive <= 1.0):
        problems.append(f"frequency outside [0,1]: survival {survival}, alive {alive}")
    if survival > alive:
        problems.append(f"survival {survival} exceeds alive {alive}")
    active = report["mean_active_by_depth"]
    vertices = report["mean_vertices_by_depth"]
    if len(active) != depth + 1 or len(vertices) != depth + 1:
        problems.append("per-depth lists do not cover depths 0..depth")
    for d, (a, v) in enumerate(zip(active, vertices)):
        if not 0.0 <= a <= v:
            problems.append(f"depth {d}: mean active {a} not in [0, mean vertices {v}]")
    return problems


def expected_active_by_depth(cc, params, depth: int) -> np.ndarray:
    """Root mean vector times M^(d-1), summed over types, for d = 0..depth."""
    matrix = cc.mean_matrix(params).entries
    lam = params.mean_memberships
    mu = params.mean_community_size
    q = params.community_sizes
    root = np.zeros(matrix.shape[0])
    for x in cc.child_count_pmf(params).support:
        for w in q.support:
            root[x] += lam * (w * q(w) / mu) * cc.mean_active_of_type(params, x, w)
    expected = [1.0]
    vec = root
    for _ in range(depth):
        expected.append(float(vec.sum()))
        vec = vec @ matrix
    return np.array(expected)


def alive_probability(params, depth: int) -> float:
    """P(the graph has a vertex at the given depth), from iterated pgfs."""
    members = params.extra_members.pgf
    s = 0.0
    for _ in range(depth - 1):
        s = params.extra_communities.pgf(members(s))
    return 1.0 - params.memberships.pgf(members(s))


def census_pooled_problems(cc, ops: list[dict], reports: list[dict]) -> list[str]:
    """Pooled z-tests tying the census engine to the mean matrix and the pgfs."""
    problems = []
    residuals = []
    alive_count = 0.0
    alive_mean = 0.0
    alive_var = 0.0
    for op, report in zip(ops, reports):
        params = params_of(cc, op["model"])
        depth = report["config"]["depth"]
        n = report["config"]["replicates"]
        residuals.append(
            np.array(report["mean_active_by_depth"])
            - expected_active_by_depth(cc, params, depth)
        )
        p_alive = alive_probability(params, depth)
        alive_count += round(report["graph_alive_frequency"] * n)
        alive_mean += n * p_alive
        alive_var += n * p_alive * (1.0 - p_alive)
    res = np.array(residuals)
    k = res.shape[0]
    mean = res.mean(axis=0)
    sd = res.std(axis=0, ddof=1)
    for d in range(res.shape[1]):
        if sd[d] == 0.0:
            if abs(mean[d]) > 1e-12:
                problems.append(f"depth {d}: constant residual {mean[d]}")
        elif abs(mean[d]) / (sd[d] / math.sqrt(k)) > T_BOUND:
            t = mean[d] / (sd[d] / math.sqrt(k))
            problems.append(f"depth {d}: mean active off the matrix prediction, t = {t:.2f}")
    if alive_var > 0.0:
        z = (alive_count - alive_mean) / math.sqrt(alive_var)
        if abs(z) > Z_BOUND:
            problems.append(f"alive frequency off the pgf prediction, z = {z:.2f}")
    elif alive_count != alive_mean:
        problems.append("alive frequency differs from a certain outcome")
    return problems


# --- analytic_phase --------------------------------------------------------

def parse_sweep(text: str) -> dict[str, dict]:
    lines = text.strip().splitlines()
    if lines[0] != "theta,rho,verdict,boundary":
        raise ValueError(f"unexpected sweep header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        theta, rho, verdict, _ = line.split(",")
        rows[theta] = {"rho": float(rho), "verdict": verdict}
    return rows


def analytic_summary(output) -> dict:
    """The values the reference pins, from a sweep CSV or an analyze report."""
    if isinstance(output, str):
        return parse_sweep(output)
    return {
        "spectral_radius": output["spectral_radius"],
        "verdict": output["verdict"]["kind"],
        "fixed_point": output["branching"]["fixed_point"],
        "extinction": output["branching"]["extinction_probability"],
    }


def _compare(label: str, value: dict, reference: dict) -> list[str]:
    problems = []
    if set(value) != set(reference):
        return [f"{label}: keys {sorted(value)} differ from reference {sorted(reference)}"]
    for key, ref in reference.items():
        got = value[key]
        if isinstance(ref, dict):
            problems += _compare(f"{label}.{key}", got, ref)
        elif isinstance(ref, str):
            if got != ref:
                problems.append(f"{label}.{key}: {got!r} != reference {ref!r}")
        elif not _close(got, ref):
            problems.append(f"{label}.{key}: {got!r} differs from reference {ref!r}")
    return problems


def analytic_problems(cc, op: dict, output, reference: dict) -> list[str]:
    problems = _compare(op["name"], analytic_summary(output), reference[op["name"]])
    if op["argv"][0] == "analyze":
        params = params_of(cc, op["model"])
        x = output["branching"]["fixed_point"]
        residual = abs(params.extra_communities.pgf(params.extra_members.pgf(x)) - x)
        if not residual <= FIXED_POINT_RESIDUAL:
            problems.append(f"fixed-point residual {residual:.3e}")
    return problems


# --- graph_coupling --------------------------------------------------------

def worst_bin_z(left: dict[int, int], right: dict[int, int]) -> float:
    """Largest pooled two-sample z-score over histogram bins."""
    n_left, n_right = sum(left.values()), sum(right.values())
    worst = 0.0
    for k in set(left) | set(right):
        a, b = left.get(k, 0), right.get(k, 0)
        pooled = (a + b) / (n_left + n_right)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_left + 1.0 / n_right))
        if se > 0.0:
            worst = max(worst, abs(a / n_left - b / n_right) / se)
    return worst


def coupling_problems(op: dict, output: dict) -> list[str]:
    problems = []
    if op["kind"] == "coupling":
        graph = {int(k): v for k, v in output["graph"].items()}
        branching = {int(k): v for k, v in output["branching"].items()}
        for label, hist in (("graph", graph), ("branching", branching)):
            if any(v < 0 for v in hist.values()) or sum(hist.values()) != op["replicates"]:
                problems.append(f"{label} histogram does not count {op['replicates']} replicates")
        if problems:
            return problems
        if not output["match"]:
            problems.append(f"histogram_match failed at {Z_BOUND} sigma")
        worst = worst_bin_z(graph, branching)
        if worst > Z_BOUND:
            problems.append(f"graph and branching histograms differ, z = {worst:.2f}")
        return problems
    survival = output["survival"]
    if len(survival) != len(op["thetas"]):
        return ["one survival frequency per threshold expected"]
    if any(not 0.0 <= s <= 1.0 for s in survival):
        problems.append(f"survival frequency outside [0,1]: {survival}")
    if any(b > a for a, b in zip(survival, survival[1:])):
        problems.append(f"survival rises with the threshold: {survival}")
    return problems


# --- per batch -------------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def batch_problems(cc, workload: str, ops: list[dict], outputs: list) -> list[list[str]]:
    """Problems per op; an output of None means the op raised or exited non-zero.

    A pooled check that fails marks every op of the pool, since it cannot
    say which op is at fault.
    """
    problems = [[] if out is not None else ["op raised or exited non-zero"] for out in outputs]
    if workload == "census_deep":
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is not None:
                problems[i] += census_report_problems(op, out)
        if any(problems):
            return problems
        pooled = census_pooled_problems(cc, ops, outputs)
        return [p + pooled for p in problems]
    if workload == "analytic_phase":
        reference = load_reference()
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is not None:
                problems[i] += analytic_problems(cc, op, out, reference)
        return problems
    if workload == "graph_coupling":
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is not None:
                problems[i] += coupling_problems(op, out)
        return problems
    raise ValueError(f"unknown workload {workload!r}")
