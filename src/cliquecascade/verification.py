"""Cross-checks between independent computation routes.

Every closed-form law in the package has a brute-force counterpart that
enumerates raw child-count draws directly.  The checks here compare the two
routes and are used both by the test suite and by the `verify` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .cascade_matrix import mean_active_by_type_oracle, mean_active_of_type
from .clique_dynamics import (
    _levels,
    clique_cascade_size,
    clique_outcome_law,
    iter_enumerated_outcomes,
    require_enumerable,
)
from .dist_core import ModelParams, Threshold, child_count_pmf
from .mc_sim import _blocks, _census_tables, _root_level, run_contagion, sample_local_graph

ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class OracleCheck:
    name: str
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def oracle_equivalence_checks(params: ModelParams) -> list[OracleCheck]:
    """Closed forms vs one walk per size's child-count cube, every budget checked first."""
    params.require_contagion_assumptions()
    xp = child_count_pmf(params)
    for w in params.community_sizes.support:
        require_enumerable(comb(len(xp.support) + w - 2, w - 1), "sorted tuples")
        _levels(params, w)  # clique_outcome_law's float-range guard
        require_enumerable(len(xp.support) ** (w - 1), "child-count tuples")
    checks, mean_checks = [], []
    for w in params.community_sizes.support:
        law = clique_outcome_law(params, w)
        brute, worst_size = {}, 0.0
        for xs, weight, outcome in iter_enumerated_outcomes(params, w):
            brute[outcome] = brute.get(outcome, 0.0) + weight
            direct = clique_cascade_size(params.threshold, w, tuple(sorted(xs)))
            worst_size = max(worst_size, float(abs(direct - outcome.ell)))
        keys = set(law) | set(brute)
        worst = max(abs(law.get(k, 0.0) - brute.get(k, 0.0)) for k in keys)
        checks.append(OracleCheck(f"clique_law_w{w}", worst, ORACLE_TOL))
        checks.append(
            OracleCheck(f"clique_law_mass_w{w}", abs(sum(law.values()) - 1.0), ORACLE_TOL)
        )
        checks.append(OracleCheck(f"cascade_size_w{w}", worst_size, 0.0))
        means = mean_active_by_type_oracle(brute)
        worst = max(abs(mean_active_of_type(params, x, w) - means.get(x, 0)) for x in xp.support)
        mean_checks.append(OracleCheck(f"mean_active_w{w}", worst, ORACLE_TOL))
    return checks + mean_checks


def standard_model_suite() -> list[ModelParams]:
    """Fixed models plus seeded random ones, spanning the supported regimes."""
    fixed = [
        ({2: 1.0}, {2: 1.0}),
        ({3: 1.0}, {3: 1.0}),
        ({4: 1.0}, {4: 1.0}),
        ({2: 1.0}, {3: 1.0}),
        ({3: 1.0}, {2: 1.0}),
        ({4: 1.0}, {2: 1.0}),
        ({2: 1.0}, {4: 1.0}),
        ({1: 0.5, 3: 0.5}, {2: 1.0}),
        ({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}),
        ({3: 1.0}, {2: 0.3, 4: 0.7}),
    ]
    thetas = [
        Threshold(1, 10),
        Threshold(3, 10),
        Threshold(2, 5),
        Threshold(49, 100),
    ]
    models = []
    for i, (p, q) in enumerate(fixed):
        models.append(ModelParams.create(p, q, thetas[i % len(thetas)]))
    rng = np.random.default_rng(20240829)
    for i in range(10):
        p_support = sorted(rng.choice(np.arange(1, 5), size=rng.integers(1, 4), replace=False))
        q_support = sorted(rng.choice(np.arange(2, 5), size=rng.integers(1, 4), replace=False))
        p = _random_pmf(rng, [int(v) for v in p_support])
        q = _random_pmf(rng, [int(v) for v in q_support])
        models.append(ModelParams.create(p, q, thetas[i % len(thetas)]))
    return models


def _random_pmf(rng: np.random.Generator, support: list[int]) -> dict[int, float]:
    raw = rng.random(len(support)) + 0.1
    probs = raw / raw.sum()
    out = {v: float(p) for v, p in zip(support[:-1], probs[:-1])}
    out[support[-1]] = 1.0 - sum(out.values())
    return out


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
    of all its rows at once from the census tables with the stream of
    SeedSequence(seed, spawn_key=(b,)).  Fewer than one replicate raises
    ConfigInvalid.
    """
    tables = _census_tables(params)
    hist: dict[int, int] = {}
    for rows, rng in _blocks(replicates, seed):
        active, _ = _root_level(tables, rows, rng)
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
