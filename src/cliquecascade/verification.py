"""Cross-checks between independent computation routes.

Every closed-form law in the package has a brute-force counterpart that
enumerates raw child-count draws directly.  The checks here compare the two
routes and are used both by the test suite and by the `verify` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt

import numpy as np

from .cascade_matrix import mean_active_by_type_oracle, mean_active_of_type
from .clique_dynamics import (
    _require_float_range,
    clique_cascade_size,
    clique_pgf,
    iter_enumerated_outcomes,
    require_enumerable,
)
from .dist_core import ModelParams, child_count_pmf
from .mc_sim import _blocks, _census_tables, run_contagion, sample_local_graph

ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class OracleCheck:
    name: str
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def _pgf_points(size: int) -> list[list[float]]:
    """The fixed points of the clique pgf checks: s = 1, s = 0 and two type-varying vectors."""
    rising = [(i + 1) / (size + 1) for i in range(size)]
    return [[1.0] * size, [0.0] * size, rising, rising[::-1]]


def oracle_equivalence_checks(params: ModelParams) -> list[OracleCheck]:
    """Walk pgf, cascade sizes and mean columns vs one pass per size's cube, budgets first."""
    params.require_contagion_assumptions()
    for w in params.community_sizes.support:
        _require_float_range(w)  # the walk's guard, before the child-count law is composed
    xp = child_count_pmf(params)
    for w in params.community_sizes.support:
        require_enumerable(len(xp.support) ** (w - 1), "child-count tuples")
    index = {x: i for i, x in enumerate(xp.support)}
    points = _pgf_points(len(index))
    checks, mean_checks = [], []
    for w in params.community_sizes.support:
        brute, worst_size = {}, 0.0
        for xs, weight, outcome in iter_enumerated_outcomes(params, w):
            brute[outcome] = brute.get(outcome, 0.0) + weight
            direct = clique_cascade_size(params.threshold, w, tuple(sorted(xs)))
            worst_size = max(worst_size, float(abs(direct - outcome.ell)))
        pgf = [clique_pgf(params, w, s) for s in points]
        worst = max(
            abs(g - sum(p * prod(s[index[x]] for x in o.types) for o, p in brute.items()))
            for g, s in zip(pgf, points)
        )
        checks.append(OracleCheck(f"clique_law_w{w}", worst, ORACLE_TOL))
        checks.append(OracleCheck(f"clique_law_mass_w{w}", abs(pgf[0] - 1.0), ORACLE_TOL))
        checks.append(OracleCheck(f"cascade_size_w{w}", worst_size, 0.0))
        means = mean_active_by_type_oracle(brute)
        worst = max(abs(mean_active_of_type(params, x, w) - means.get(x, 0)) for x in xp.support)
        mean_checks.append(OracleCheck(f"mean_active_w{w}", worst, ORACLE_TOL))
    return checks + mean_checks


def _histogram(per_replicate: np.ndarray, hist: dict[int, int]) -> None:
    counts = np.bincount(per_replicate)
    for k in np.flatnonzero(counts).tolist():
        hist[k] = hist.get(k, 0) + int(counts[k])


def depth1_active_counts(
    params: ModelParams, replicates: int, seed: int
) -> dict[int, int]:
    """Histogram of the number of active depth-1 vertices in the graph model.

    Replicates run in blocks of _BLOCK (256), block b sampling one depth-1
    forest from SeedSequence(seed, spawn_key=(b,)); each tree is a replicate.
    Fewer than one replicate raises ConfigInvalid.
    """
    hist: dict[int, int] = {}
    for rows, rng in _blocks(replicates, seed):
        graph = run_contagion(sample_local_graph(params, 1, rng, roots=rows), params.threshold)
        _histogram(graph.active_per_tree(), hist)
    return hist


def branching_root_counts(
    params: ModelParams, replicates: int, seed: int
) -> dict[int, int]:
    """Histogram of the first-generation size of the activation process.

    Replicates run in blocks of _BLOCK (256), block b drawing the root level
    of all its rows at once with ActivationProcess.root_step and the stream
    of SeedSequence(seed, spawn_key=(b,)).  Fewer than one replicate raises
    ConfigInvalid.
    """
    process = _census_tables(params)
    hist: dict[int, int] = {}
    for rows, rng in _blocks(replicates, seed):
        active, _ = process.root_step(rows, rng)
        _histogram(active.sum(axis=1), hist)
    return hist


def histogram_match(
    left: dict[int, int], right: dict[int, int], sigmas: float = 3.0
) -> tuple[bool, float]:
    """Compare two sampled histograms bin by bin.

    Uses the pooled two-sample standard error per bin; returns the worst
    z-score over bins alongside the pass flag.  Bins where both samples are
    empty are skipped.  A histogram that counts no replicates is no evidence
    either way and raises ValueError.
    """
    n_left = sum(left.values())
    n_right = sum(right.values())
    if n_left < 1 or n_right < 1:
        raise ValueError("both histograms must count at least one replicate")
    worst = 0.0
    for k in set(left) | set(right):
        f_left = left.get(k, 0) / n_left
        f_right = right.get(k, 0) / n_right
        pooled = (left.get(k, 0) + right.get(k, 0)) / (n_left + n_right)
        se = sqrt(pooled * (1.0 - pooled) * (1.0 / n_left + 1.0 / n_right))
        if se == 0.0:
            continue
        worst = max(worst, abs(f_left - f_right) / se)
    return worst <= sigmas, worst
