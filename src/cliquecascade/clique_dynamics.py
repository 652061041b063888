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
it.  The mean activated count by type needs no enumeration: mean_active_column
computes it by a DP over floor levels.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial
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


def run_lengths(sorted_values) -> tuple[int, ...]:
    """Length of the tie run starting at each position (1 off a run start).

    For (1, 2, 2, 2, 5, 5) this is (1, 3, 1, 1, 2, 1); the product of
    factorials over positions 1..n-1 is the number of permutations collapsed
    by sorting, i.e. the product of multiplicities' factorials.
    """
    vals = _check_sorted(sorted_values)
    n = len(vals)
    out = []
    for i in range(n):
        if i > 0 and vals[i] == vals[i - 1]:
            out.append(1)
        else:
            j = i
            while j + 1 < n and vals[j + 1] == vals[i]:
                j += 1
            out.append(j - i + 1)
    return tuple(out)


def order_stat_pmf(base: Pmf, n: int, sorted_values) -> float:
    """Joint pmf of the order statistics of n iid draws at the sorted point."""
    vals = _check_sorted(sorted_values)
    if len(vals) != n:
        raise InvalidOutcome(f"expected {n} values, got {len(vals)}")
    runs = run_lengths(vals)
    ties = 1
    for s in runs[:-1]:
        ties *= factorial(s)
    weight = factorial(n) // ties
    prob = float(weight)
    for v in vals:
        prob *= base(v)
    return prob


@lru_cache(maxsize=None)
def _context(params: ModelParams, clique_size: int):
    """Per-(model, clique size) tables: child-count law, floors, tail probabilities.

    tail[m] = P(floor(threshold * (X + w - 1)) > m): the chance a fresh child
    is out of reach even with m activated brothers plus the parent.
    """
    xp = child_count_pmf(params)
    floors = {x: params.threshold.floor_times(x + clique_size - 1) for x in xp.support}
    tail = tuple(
        sum(p for x, p in xp.items if floors[x] > m) for m in range(clique_size)
    )
    return xp, floors, tail


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
    xp, floors, tail = _context(params, clique_size)
    n = clique_size - 1
    level_mass = [0.0] * n  # levels >= n are never reached
    for x, p in xp.items:
        if floors[x] < n:
            level_mass[floors[x]] += p
    # step from N_{m-1} = i (rows) to N_m = j (columns): j - i of the n - i
    # children above level m - 1 land on level m and n - j stay above it
    i, j = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
    placed, stay = np.maximum(j - i, 0), n - np.maximum(i, j)
    ways = np.vectorize(comb, otypes=[float])(n - i, placed) * (j >= i)
    alive = np.zeros(n + 1)
    alive[0] = 1.0
    expected = np.zeros(n)
    for m in range(n):
        reach = level_mass[m] + tail[m]
        if reach == 0.0:
            break
        joint = alive[:, None] * ways * (level_mass[m] / reach) ** placed * (tail[m] / reach) ** stay
        joint[:, : m + 1] = 0.0
        expected[m] = (joint * placed).sum()
        alive = joint.sum(axis=0)
    column = np.zeros(xp.support_max + 1)
    for x, p in xp.items:
        if floors[x] < n:
            column[x] = expected[floors[x]] * p / level_mass[floors[x]]
    column.flags.writeable = False
    return column


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
    """
    params.require_contagion_assumptions()
    ell, types = _validate_outcome(clique_size, outcome)
    w = clique_size
    xp, floors, tail = _context(params, w)
    if ell == 0:
        return tail[0] ** (w - 1)
    for i, x in enumerate(types, start=1):
        if floors.get(x, params.threshold.floor_times(x + w - 1)) + 1 > i:
            return 0.0
    ties = 1
    for s in run_lengths(types)[:-1]:
        ties *= factorial(s)
    weight = factorial(w - 1) // (factorial(w - 1 - ell) * ties)
    prob = float(weight)
    for x in types:
        prob *= xp(x)
        if prob == 0.0:
            return 0.0
    return prob * tail[ell] ** (w - 1 - ell)


def clique_outcome_law(params: ModelParams, clique_size: int) -> dict[CliqueOutcome, float]:
    """Full outcome law from the closed form, over the child-count support."""
    params.require_contagion_assumptions()
    xp, _, _ = _context(params, clique_size)
    require_enumerable(comb(len(xp.support) + clique_size - 2, clique_size - 1), "sorted tuples")
    law: dict[CliqueOutcome, float] = {}
    empty = clique_outcome_prob(params, clique_size, CliqueOutcome(0, ()))
    if empty > 0.0:
        law[CliqueOutcome(0, ())] = empty
    for ell in range(1, clique_size):
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
    xp, _, _ = _context(params, clique_size)
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
