"""Cross-checks between independent computation routes.

Every closed-form law in the package has a brute-force counterpart: for the
clique, the synchronous rounds and the order-statistics scan on every tuple
of the child-count cube, one pass per community size.  The checks here
compare the routes and are used both by the test suite and by the `verify`
CLI command.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod, sqrt
from typing import NamedTuple

import numpy as np

from .clique_dynamics import _walk_moves, clique_pgf, mean_active_column
from .dist_core import ModelParams, Threshold, child_count_pmf, require_enumerable
from .errors import InvalidOutcome, UnsortedInput
from .mc_sim import _blocks, _census_tables, run_contagion, sample_local_graph

ORACLE_TOL = 1e-9


class CliqueOutcome(NamedTuple):
    """Number of activated children and their child counts in sorted order."""

    ell: int
    types: tuple[int, ...]


@dataclass(frozen=True)
class OracleCheck:
    name: str
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def activation_requirement(threshold: Threshold, child_count: int, clique_size: int) -> int:
    """Minimum active neighbours for a child with the given child count."""
    if clique_size < 2:
        raise ValueError("clique size must be at least 2")
    if child_count < 0:
        raise ValueError("child count must be non-negative")
    return threshold.floor_times(child_count + clique_size - 1) + 1


def clique_cascade_size(threshold: Threshold, clique_size: int, sorted_child_counts) -> int:
    """Number of children the cascade activates, from sorted child counts.

    The cascade fills the clique in increasing order of child count, so scan
    positions i = 1..w-1: the first position whose activation requirement
    exceeds i caps the cascade at i - 1; if no position fails the whole
    clique activates.
    """
    xs = tuple(int(v) for v in sorted_child_counts)
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise UnsortedInput(f"sequence must be non-decreasing: {xs}")
    if len(xs) != clique_size - 1:
        raise InvalidOutcome(f"expected {clique_size - 1} child counts, got {len(xs)}")
    for i, x in enumerate(xs, start=1):
        if activation_requirement(threshold, x, clique_size) > i:
            return i - 1
    return clique_size - 1


def _round_based_active(numerator: int, denominator: int, clique_size: int, child_counts) -> list[bool]:
    """Synchronous-round fixpoint of the clique dynamics for one child-count tuple.

    Deliberately independent of the order-statistics shortcut: every round,
    every inactive child compares parent-plus-activated-brothers against its
    exact threshold.
    """
    w = clique_size
    need = [numerator * (x + w - 1) // denominator + 1 for x in child_counts]
    active = [False] * len(need)
    count = 0
    while True:
        newly = [i for i, a in enumerate(active) if not a and 1 + count >= need[i]]
        if not newly:
            return active
        for i in newly:
            active[i] = True
        count += len(newly)


def iter_enumerated_outcomes(params: ModelParams, clique_size: int):
    """Yield (child-count tuple, weight, round-based outcome) over the full cube."""
    params.require_contagion_assumptions()
    xp = child_count_pmf(params)
    values = xp.support
    n_children = clique_size - 1
    require_enumerable(len(values) ** n_children, "child-count tuples")
    num, den = params.threshold.numerator, params.threshold.denominator
    for xs in itertools.product(values, repeat=n_children):
        weight = 1.0
        for x in xs:
            weight *= xp(x)
        active = _round_based_active(num, den, clique_size, xs)
        types = tuple(sorted(x for x, a in zip(xs, active) if a))
        yield xs, weight, CliqueOutcome(len(types), types)


def brute_force_clique_law(params: ModelParams, clique_size: int) -> dict[CliqueOutcome, float]:
    """The outcome law of the synchronous-round dynamics over the cube: clique_pgf's oracle."""
    law: dict[CliqueOutcome, float] = {}
    for _, weight, outcome in iter_enumerated_outcomes(params, clique_size):
        law[outcome] = law.get(outcome, 0.0) + weight
    return law


def _pgf_points(size: int) -> list[list[float]]:
    """The fixed points of the clique pgf checks: s = 1, s = 0 and two type-varying vectors."""
    rising = [(i + 1) / (size + 1) for i in range(size)]
    return [[1.0] * size, [0.0] * size, rising, rising[::-1]]


def mean_active_by_type_oracle(law: dict[CliqueOutcome, float]) -> dict[int, float]:
    """Expected activated children of every type under one clique outcome law."""
    means: dict[int, float] = {}
    for outcome, prob in law.items():
        for x in set(outcome.types):
            means[x] = means.get(x, 0) + prob * outcome.types.count(x)
    return means


def oracle_equivalence_checks(params: ModelParams) -> list[OracleCheck]:
    """Walk pgf, cascade sizes and mean columns vs one pass per size's cube, budgets first."""
    params.require_contagion_assumptions()
    _walk_moves(params)  # the walk's gate, before the child-count law is composed
    xp = child_count_pmf(params)
    # the cubes are priced together, as the walk's moves are
    cubes = sum(len(xp.support) ** (w - 1) for w in params.community_sizes.support)
    require_enumerable(cubes, "child-count tuples")
    index = {x: i for i, x in enumerate(xp.support)}
    points = _pgf_points(len(index))
    checks, mean_checks = [], []
    for w in params.community_sizes.support:
        brute: dict[CliqueOutcome, float] = {}
        worst_size = 0.0
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
        column = mean_active_column(params, w).tolist()
        worst = max(abs(c - means.get(x, 0)) for x, c in zip(xp.support, column))
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
