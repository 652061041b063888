"""Op lists of the three benchmark workloads, derived only from (seed, batch).

This module imports nothing from the package, so the same op list can be
rebuilt and compared without running anything.  An op is a plain dict:

* ``kind`` is ``"cli"`` (an ``argv`` for ``cli.main``, minus ``--config`` and
  ``--out``, which the worker fills in), ``"coupling"`` (depth-1 graph vs
  branching histograms for one model) or ``"ladder"`` (coupled survival over
  a threshold ladder);
* ``model`` is a config object in the CLI's JSON format;
* ``units`` is the work the op counts towards ``units_per_s``: replicates,
  or solved (model, threshold) points for ``analytic_phase``.

Within one batch every op has its own (model, threshold) key, so no op is
served from a table an earlier op left in a package cache.  Each batch runs
in a fresh interpreter, so nothing carries over between batches either.
"""

from __future__ import annotations

import random

WORKLOADS = ("census_deep", "analytic_phase", "graph_coupling")

# census_deep: ROADMAP's reference case, p={1:.5,3:.5}, q={2:1}, depth 30.
# Child counts are 0 or 2 and cliques are pairs, so every threshold below 1/3
# gives the same law; op i uses 1/(10+i), which keeps the law of the 1/10
# reference case while giving each op its own cache key.
CENSUS_P = [[1, 0.5], [3, 0.5]]
CENSUS_Q = [[2, 1.0]]
CENSUS_DEPTH = 30
CENSUS_OPS = 20
CENSUS_REPLICATES = 200

# analytic_phase: p uniform on {2,3,4}, q uniform on 2..7 (101k sorted tuples
# at the largest size), swept over thresholds below 1/2; the analyze point is
# off the grid.  The near-critical structure sits EPS above the survival
# boundary, where the extinction fixed point takes about 6e4 monotone steps.
WIDE_P = [[d, 1.0 / 3.0] for d in (2, 3, 4)]
WIDE_Q = [[w, 1.0 / 6.0] for w in range(2, 8)]
SWEEP_GRID = ("1/4", "3/10", "7/20", "2/5", "9/20")
ANALYZE_THETA = "1/3"
EPS = 1e-4
NEAR_CRITICAL_P = [[1, 0.75 - EPS], [3, 0.25 + EPS]]
NEAR_CRITICAL_Q = [[2, 1.0]]

# graph_coupling: the five models of acceptance test 7, then a survival
# ladder on a sixth model (distinct from the five, so its graph sampler
# tables are built afresh) over the phase_sweep.py grid 0.05..0.5.
COUPLING_MODELS = (
    ([[3, 1.0]], [[3, 1.0]], "1/10"),
    ([[2, 1.0]], [[2, 1.0]], "2/5"),
    ([[1, 0.5], [3, 0.5]], [[2, 1.0]], "1/10"),
    ([[2, 0.5], [4, 0.5]], [[2, 0.5], [3, 0.5]], "3/10"),
    ([[3, 1.0]], [[2, 0.3], [4, 0.7]], "1/4"),
)
COUPLING_REPLICATES = 2000
LADDER_P = [[2, 0.5], [3, 0.5]]
LADDER_Q = [[2, 0.5], [3, 0.5]]
LADDER_THETAS = tuple(f"{k}/20" for k in range(1, 11))
LADDER_DEPTH = 3
LADDER_REPLICATES = 1000


def _model(memberships, community_sizes, threshold: str) -> dict:
    return {
        "memberships": memberships,
        "community_sizes": community_sizes,
        "threshold": threshold,
    }


def _census_ops(rng: random.Random) -> list[dict]:
    ops = []
    for i in range(CENSUS_OPS):
        seed = rng.getrandbits(64)
        ops.append({
            "name": f"simulate-{i}",
            "kind": "cli",
            "model": _model(CENSUS_P, CENSUS_Q, f"1/{10 + i}"),
            "argv": [
                "simulate",
                "--depth", str(CENSUS_DEPTH),
                "--replicates", str(CENSUS_REPLICATES),
                "--seed", str(seed),
            ],
            "units": CENSUS_REPLICATES,
        })
    return ops


def _analytic_ops() -> list[dict]:
    return [
        {
            "name": "sweep-wide",
            "kind": "cli",
            "model": _model(WIDE_P, WIDE_Q, SWEEP_GRID[0]),
            "argv": ["sweep", "--grid", ",".join(SWEEP_GRID)],
            "units": len(SWEEP_GRID),
        },
        {
            "name": "analyze-wide",
            "kind": "cli",
            "model": _model(WIDE_P, WIDE_Q, ANALYZE_THETA),
            "argv": ["analyze"],
            "units": 1,
        },
        {
            "name": "analyze-near-critical",
            "kind": "cli",
            "model": _model(NEAR_CRITICAL_P, NEAR_CRITICAL_Q, "1/10"),
            "argv": ["analyze"],
            "units": 1,
        },
    ]


def _coupling_ops(rng: random.Random) -> list[dict]:
    ops = []
    for i, (p, q, theta) in enumerate(COUPLING_MODELS):
        ops.append({
            "name": f"coupling-{i}",
            "kind": "coupling",
            "model": _model(p, q, theta),
            "replicates": COUPLING_REPLICATES,
            "graph_seed": rng.getrandbits(63),
            "branch_seed": rng.getrandbits(63),
            "units": 2 * COUPLING_REPLICATES,
        })
    ops.append({
        "name": "ladder",
        "kind": "ladder",
        "model": _model(LADDER_P, LADDER_Q, LADDER_THETAS[0]),
        "thetas": list(LADDER_THETAS),
        "depth": LADDER_DEPTH,
        "replicates": LADDER_REPLICATES,
        "seed": rng.getrandbits(63),
        "units": LADDER_REPLICATES,
    })
    return ops


def build_ops(workload: str, seed: int, batch: int) -> list[dict]:
    """The op list of one batch; the same arguments always give the same list."""
    rng = random.Random(f"{workload}:{seed}:{batch}")
    if workload == "census_deep":
        return _census_ops(rng)
    if workload == "analytic_phase":
        return _analytic_ops()
    if workload == "graph_coupling":
        return _coupling_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")
