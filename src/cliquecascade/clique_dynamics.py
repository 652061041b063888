"""Exact law of the cascade inside a single clique whose parent just fired.

A community of size w projects to a clique: one already-active parent plus
w - 1 fresh children.  Child i has some number x_i of children of its own
elsewhere, so its degree is x_i + w - 1 and it activates when its active
neighbours (parent plus activated brothers) strictly exceed threshold *
degree, i.e. reach floor(threshold * (x_i + w - 1)) + 1.

Because the activation requirement is monotone in x, the cascade fills the
clique in increasing order of x: clique_cascade_size sorts the children's
child counts, scans the order statistics, and stops at the first position
whose requirement exceeds the number of vertices already available.

The same monotonicity gives a walk over floor levels f(x) = floor(threshold *
(x + w - 1)), and this module is the only one that knows it: _levels holds
its tables for one clique size and _walk steps through its reachable states.
Three readers share that one walk: clique_pgf folds it into the exact law
of the activated children by type, as its generating function;
mean_active_column folds it into the mean activated count of every type;
and the census engine in mc_sim turns its levels into draw tables.  The
oracle for all of them is brute force: the synchronous-round dynamics run on
every tuple of the child-count cube.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from math import comb, factorial, lgamma, log
from typing import NamedTuple

import numpy as np

from .dist_core import ModelParams, Pmf, Threshold, child_count_pmf, require_enumerable
from .errors import EnumerationTooLarge, InvalidOutcome, UnsortedInput


class CliqueOutcome(NamedTuple):
    """Number of activated children and their child counts in sorted order."""

    ell: int
    types: tuple[int, ...]


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


def _require_float_range(clique_size: int) -> None:
    """Raise EnumerationTooLarge if C(w - 1, (w - 1) // 2) passes the float range (w >= 1031)."""
    n = clique_size - 1
    if lgamma(n + 1) - lgamma(n // 2 + 1) - lgamma(n - n // 2 + 1) > log(sys.float_info.max):
        raise EnumerationTooLarge(
            f"community size {clique_size} needs binomial coefficients beyond the float range"
        )


@lru_cache(maxsize=None)
def _levels(params: ModelParams, clique_size: int) -> tuple[Pmf, dict, tuple, tuple]:
    """The floor-level walk of one clique size: (xp, floors, mass, tail), cached.

    A child of type x sits on level floors[x] = floor(threshold * (x + w - 1)).
    mass[m] = P(f(X) = m) on the w - 1 levels a cascade can reach; tail[m] =
    P(f(X) > m), m = 0..w-1, is the chance a fresh child is out of reach even
    with m activated brothers plus the parent.  Checks _require_float_range
    before any table is built.
    """
    _require_float_range(clique_size)
    n = clique_size - 1
    xp = child_count_pmf(params)
    floors = {x: params.threshold.floor_times(x + n) for x in xp.support}
    mass = tuple(sum(p for x, p in xp.items if floors[x] == m) for m in range(n))
    tail = tuple(sum(p for x, p in xp.items if floors[x] > m) for m in range(n + 1))
    return xp, floors, mass, tail


def _walk(params: ModelParams, clique_size: int):
    """Walk one clique size's floor levels: yield (m, moves) while a state is alive.

    moves maps each alive state i = N_{m-1} to its moves of positive
    probability, (j, C(rest, k) (mass_m / reach)^k (tail_m / reach)^(rest - k),
    live) with j = i + k and k ascending: k of the rest = n - i unplaced
    children land on level m and the others stay above it.  A move exists
    iff k = 0 or mass_m > 0, and k = rest or tail_m > 0.  The cascade stops
    at j = m (too few to go on: n - j children stay inactive above m) or at
    j = n (every child placed); live = m < j < n flags the other moves.
    """
    _, _, mass, tail = _levels(params, clique_size)
    n, m, alive = len(mass), 0, [0]
    while alive:  # alive states lie in m..n-1, so m < n and reach > 0
        reach, moves = mass[m] + tail[m], {}
        up, stay = mass[m] / reach, tail[m] / reach
        for i in alive:
            rest = n - i
            moves[i] = [
                (i + k, comb(rest, k) * up**k * stay ** (rest - k), m < i + k < n)
                for k in range(0 if tail[m] else rest, rest + 1 if mass[m] else 1)
            ]
        yield m, moves
        alive = sorted({j for steps in moves.values() for j, _, live in steps if live})
        m += 1


@lru_cache(maxsize=None)
def mean_active_column(params: ModelParams, clique_size: int) -> np.ndarray:
    """Expected activated children of each type in one clique, one entry per support type.

    Entry i is for type child_count_pmf(params).values[i].  A child of type x
    sits on level f(x) = floor(threshold * (x + w - 1)), and with N_m
    children on levels <= m it is active iff N_j > j for all j <= f(x).  A
    fold over _walk: alive[i] is P(N_m = i, N_j > j for all j <= m), and
    every child a move places on level m is active (a stop at N_m = m places
    none there).  Within a level, types follow the child-count law
    conditioned on the level.  Cached and read-only.
    """
    xp, floors, mass, _ = _levels(params, clique_size)
    n, alive, expected = clique_size - 1, {0: 1.0}, [0.0] * (clique_size - 1)
    for m, moves in _walk(params, clique_size):
        after = {}
        for i, steps in moves.items():
            for j, weight, live in steps:
                expected[m] += alive[i] * weight * (j - i)
                if live:
                    after[j] = after.get(j, 0.0) + alive[i] * weight
        alive = after
    column = np.zeros(len(xp.items))
    for i, (x, p) in enumerate(xp.items):
        if floors[x] < n:
            column[i] = expected[floors[x]] * p / mass[floors[x]]
    column.flags.writeable = False
    return column


def clique_pgf(params: ModelParams, clique_size: int, s) -> float:
    """G_w(s) = E[prod_x s_x^{A_x}], A_x the activated children of type x in one clique.

    s has one entry per type, indexed like child_count_pmf(params).values;
    any other length raises ValueError.  A fold over _walk: with r_m the
    child-count law's mean of s over the types on level m, a move that
    places k children on level m weighs r_m^k, inactive children weigh 1,
    and the stop moves sum to G_w.
    """
    params.require_contagion_assumptions()
    xp, floors, mass, _ = _levels(params, clique_size)
    if len(s) != len(xp.items):
        raise ValueError(f"s has {len(s)} entries but the child-count support has {len(xp.items)}")
    r = [0.0] * len(mass)
    for (x, p), s_x in zip(xp.items, s):
        if floors[x] < len(mass):
            r[floors[x]] += p * float(s_x)
    r = [mean / m if m else 0.0 for mean, m in zip(r, mass)]
    alive, total = {0: 1.0}, 0.0
    for m, moves in _walk(params, clique_size):
        after = {}
        for i, steps in moves.items():
            for j, weight, live in steps:
                value = alive[i] * weight * r[m] ** (j - i)
                if live:
                    after[j] = after.get(j, 0.0) + value
                else:
                    total += value
        alive = after
    return total


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

    The oracle for clique_pgf: runs the synchronous-round dynamics on
    every tuple in the support cube and aggregates by outcome.
    """
    law: dict[CliqueOutcome, float] = {}
    for _, weight, outcome in iter_enumerated_outcomes(params, clique_size):
        law[outcome] = law.get(outcome, 0.0) + weight
    return law
