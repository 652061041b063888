"""Exact law of the cascade inside a single clique whose parent just fired.

A community of size w projects to a clique: one already-active parent plus
w - 1 fresh children.  Child i has some number x_i of children of its own
elsewhere, so its degree is x_i + w - 1 and it activates when its active
neighbours (parent plus activated brothers) strictly exceed threshold *
degree, i.e. reach floor(threshold * (x_i + w - 1)) + 1.

Because the activation requirement is monotone in x, the cascade fills the
clique in increasing order of x: sort the children's child counts, scan the
order statistics, and stop at the first position whose requirement exceeds the
number of vertices already available.  That reduces the joint law of (number
activated, their sorted child counts) to a closed form over order statistics,
implemented here next to a brute-force round-based enumeration used to verify
it.

The same monotonicity gives a walk over floor levels f(x) = floor(threshold *
(x + w - 1)), and this module is the only one that knows it: _levels holds
its tables for one clique size, mean_active_column runs it as a DP for the
mean activated count of every type, and _count_paths and _stop_paths count
and list its stop paths, which the census engine in mc_sim maps to draw slots.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from math import comb, factorial, lgamma, log
from typing import NamedTuple

import numpy as np

from .dist_core import ModelParams, Pmf, Threshold, child_count_pmf
from .errors import EnumerationTooLarge, InvalidOutcome, UnsortedInput

ENUMERATION_BUDGET = 10**7


class CliqueOutcome(NamedTuple):
    """Number of activated children and their child counts in sorted order."""

    ell: int
    types: tuple[int, ...]


def require_enumerable(count: int, what: str) -> None:
    """Raise EnumerationTooLarge before an enumeration of count items starts."""
    if count > ENUMERATION_BUDGET:
        raise EnumerationTooLarge(f"{count} {what} exceed the {ENUMERATION_BUDGET} budget")


def activation_requirement(threshold: Threshold, child_count: int, clique_size: int) -> int:
    """Minimum active neighbours for a child with the given child count."""
    if clique_size < 2:
        raise ValueError("clique size must be at least 2")
    if child_count < 0:
        raise ValueError("child count must be non-negative")
    return threshold.floor_times(child_count + clique_size - 1) + 1


def _check_sorted(values) -> tuple[int, ...]:
    vals = tuple(int(v) for v in values)
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise UnsortedInput(f"sequence must be non-decreasing: {vals}")
    return vals


def clique_cascade_size(threshold: Threshold, clique_size: int, sorted_child_counts) -> int:
    """Number of children the cascade activates, from sorted child counts.

    Scan positions i = 1..w-1: the first position whose activation
    requirement exceeds i caps the cascade at i - 1; if no position fails the
    whole clique activates.
    """
    xs = _check_sorted(sorted_child_counts)
    if len(xs) != clique_size - 1:
        raise InvalidOutcome(f"expected {clique_size - 1} child counts, got {len(xs)}")
    for i, x in enumerate(xs, start=1):
        if activation_requirement(threshold, x, clique_size) > i:
            return i - 1
    return clique_size - 1


def _orderings(sorted_values) -> int:
    """Distinct orderings of a sorted multiset, e.g. 6! / (3! 2!) = 60 for (1, 2, 2, 2, 5, 5)."""
    ways = factorial(len(sorted_values))
    for _, run in itertools.groupby(sorted_values):
        ways //= factorial(len(list(run)))
    return ways


@lru_cache(maxsize=None)
def _levels(params: ModelParams, clique_size: int) -> tuple[Pmf, dict, tuple, tuple]:
    """The floor-level walk of one clique size: (xp, floors, mass, tail), cached.

    A child of type x sits on level floors[x] = floor(threshold * (x + w - 1)).
    mass[m] = P(f(X) = m) on the w - 1 levels a cascade can reach; tail[m] =
    P(f(X) > m), m = 0..w-1, is the chance a fresh child is out of reach even
    with m activated brothers plus the parent.  Raises EnumerationTooLarge
    when the walk's largest binomial coefficient, C(w - 1, (w - 1) // 2),
    passes the float range (w >= 1031), before any table is built.
    """
    n = clique_size - 1
    if lgamma(n + 1) - lgamma(n // 2 + 1) - lgamma(n - n // 2 + 1) > log(sys.float_info.max):
        raise EnumerationTooLarge(
            f"community size {clique_size} needs binomial coefficients beyond the float range"
        )
    xp = child_count_pmf(params)
    floors = {x: params.threshold.floor_times(x + n) for x in xp.support}
    mass = tuple(sum(p for x, p in xp.items if floors[x] == m) for m in range(n))
    tail = tuple(sum(p for x, p in xp.items if floors[x] > m) for m in range(n + 1))
    return xp, floors, mass, tail


@lru_cache(maxsize=None)
def _level_steps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step tables of the level DP over n children, shared by every model.

    A step goes from N_{m-1} = i (rows) to N_m = j (columns): placed = j - i
    of the n - i children above level m - 1 land on level m, stay = n - j
    stay above it, in ways = C(n - i, j - i) orders (0 where j < i).
    Cached and read-only.
    """
    i, j = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
    placed, stay = np.maximum(j - i, 0), n - np.maximum(i, j)
    ways = np.vectorize(comb, otypes=[float])(n - i, placed) * (j >= i)
    for table in (placed, stay, ways):
        table.flags.writeable = False
    return placed, stay, ways


@lru_cache(maxsize=None)
def mean_active_column(params: ModelParams, clique_size: int) -> np.ndarray:
    """Expected activated children of each type x = 0..max child count in one clique.

    A child of type x sits on level f(x) = floor(threshold * (x + w - 1)), and
    with N_m children on levels <= m it is active iff N_j > j for all j <=
    f(x).  Level counts are binomial in turn, each over the children not yet
    placed with the level's mass conditioned on f >= m; alive[k] is P(N_m = k,
    N_j > j for all j <= m).  Within a level, types follow the child-count law
    conditioned on the level.  O(w^3); cached and read-only.
    """
    xp, floors, mass, tail = _levels(params, clique_size)
    n = clique_size - 1
    placed, stay, ways = _level_steps(n)
    alive = np.zeros(n + 1)
    alive[0] = 1.0
    expected = np.zeros(n)
    for m in range(n):
        reach = mass[m] + tail[m]
        if reach == 0.0:
            break
        joint = alive[:, None] * ways * (mass[m] / reach) ** placed * (tail[m] / reach) ** stay
        joint[:, : m + 1] = 0.0
        expected[m] = (joint * placed).sum()
        alive = joint.sum(axis=0)
    column = np.zeros(xp.support_max + 1)
    for x, p in xp.items:
        if floors[x] < n:
            column[x] = expected[floors[x]] * p / mass[floors[x]]
    column.flags.writeable = False
    return column


def _placements(rest: int, mass: float, tail: float) -> list[int]:
    """Children a level takes, out of rest unplaced, with positive probability."""
    return [k for k in range(rest + 1) if (k == 0 or mass) and (k == rest or tail)]


def _count_paths(params: ModelParams, clique_size: int) -> int:
    """Stop paths of positive probability of the level walk, by a DP over N_m."""
    _, _, mass, tail = _levels(params, clique_size)
    n, alive, paths = len(mass), {0: 1}, 0
    for m in range(n):
        after = {}
        for i, ways in alive.items():
            for k in _placements(n - i, mass[m], tail[m]):
                if i + k in (m, n):
                    paths += ways
                else:
                    after[i + k] = after.get(i + k, 0) + ways
        alive = after
    return paths


def _stop_paths(params: ModelParams, clique_size: int) -> tuple[list[float], list[list[int]]]:
    """List the stop paths of mean_active_column's walk over N_m.

    Level m takes k of the rest unplaced children with probability
    C(rest, k) (mass_m / reach)^k (tail_m / reach)^(rest - k); the cascade
    stops at the first m with N_m = m, or once every child is placed.
    Returns each path's probability and its row of 2n counts: column j < n
    counts the children on level j, column n + m those a stop at m leaves
    inactive.
    """
    _, _, mass, tail = _levels(params, clique_size)
    n = len(mass)
    alive, probs, rows = [(1.0, 0, [])], [], []
    for m in range(n):
        reach = mass[m] + tail[m]
        after = []
        for prob, i, counts in alive:
            rest = n - i
            for k in _placements(rest, mass[m], tail[m]):
                step = prob * comb(rest, k) * (mass[m] / reach) ** k
                step *= (tail[m] / reach) ** (rest - k)
                if i + k not in (m, n):
                    after.append((step, i + k, counts + [k]))
                    continue
                rows.append(counts + [k] + [0] * (2 * n - m - 1))
                rows[-1][n + m] = rest - k
                probs.append(step)
        alive = after
    return probs, rows


def _validate_outcome(clique_size: int, outcome: CliqueOutcome) -> CliqueOutcome:
    if clique_size < 2:
        raise InvalidOutcome("clique size must be at least 2")
    ell, types = outcome
    types = tuple(int(t) for t in types)
    if ell != len(types):
        raise InvalidOutcome(f"ell={ell} but {len(types)} types given")
    if ell > clique_size - 1:
        raise InvalidOutcome(f"ell={ell} exceeds clique capacity {clique_size - 1}")
    if any(t < 0 for t in types):
        raise InvalidOutcome("types must be non-negative")
    if any(b < a for a, b in zip(types, types[1:])):
        raise InvalidOutcome(f"types must be non-decreasing: {types}")
    return CliqueOutcome(ell, types)


def clique_outcome_prob(params: ModelParams, clique_size: int, outcome: CliqueOutcome) -> float:
    """Probability of a (count, sorted child counts) cascade outcome.

    Product of: feasibility indicators (position i must be reachable with i
    vertices), the exact integer count of child orderings collapsing to the
    sorted vector, the iid masses, and the probability that each of the
    remaining children is unreachable even with the whole activated set.
    Raises EnumerationTooLarge when that count passes the float range.
    """
    params.require_contagion_assumptions()
    ell, types = _validate_outcome(clique_size, outcome)
    w = clique_size
    xp, floors, _, tail = _levels(params, w)
    for i, x in enumerate(types, start=1):
        if x not in floors or floors[x] >= i:
            return 0.0
    try:
        prob = float(comb(w - 1, ell) * _orderings(types))
    except OverflowError:
        raise EnumerationTooLarge(f"community size {w} has weights beyond the float range") from None
    for x in types:
        prob *= xp(x)
        if prob == 0.0:
            return 0.0
    return prob * tail[ell] ** (w - 1 - ell)


def clique_outcome_law(params: ModelParams, clique_size: int) -> dict[CliqueOutcome, float]:
    """Full outcome law from the closed form, over the child-count support."""
    params.require_contagion_assumptions()
    xp = child_count_pmf(params)
    require_enumerable(comb(len(xp.support) + clique_size - 2, clique_size - 1), "sorted tuples")
    law: dict[CliqueOutcome, float] = {}
    for ell in range(clique_size):
        for types in itertools.combinations_with_replacement(xp.support, ell):
            prob = clique_outcome_prob(params, clique_size, CliqueOutcome(ell, types))
            if prob > 0.0:
                law[CliqueOutcome(ell, types)] = prob
    return law


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
    """Outcome law by exhaustive enumeration of child-count tuples.

    The oracle for the closed form: runs the synchronous-round dynamics on
    every tuple in the support cube and aggregates by outcome.
    """
    law: dict[CliqueOutcome, float] = {}
    for _, weight, outcome in iter_enumerated_outcomes(params, clique_size):
        law[outcome] = law.get(outcome, 0.0) + weight
    return law
