"""The floor-level walk of the cascade inside a single clique whose parent just fired.

A community of size w projects to a clique: one already-active parent plus
w - 1 fresh children.  Child i has some number x_i of children of its own
elsewhere, so its degree is x_i + w - 1 and it activates when its active
neighbours (parent plus activated brothers) strictly exceed threshold *
degree, i.e. reach floor(threshold * (x_i + w - 1)) + 1.

Because the activation requirement is monotone in x, the cascade fills the
clique in increasing order of x: a walk over floor levels f(x) =
floor(threshold * (x + w - 1)).  This module holds that walk alone:
_levels holds its tables for one clique size, the support cut into level
runs by f's inverse, _alive its reach, _walk_moves its gate, which checks every
size's float range and prices all sizes' walks before a reader composes,
and _walk steps through its alive states.  _fold passes over the walk once:
clique_pgf reads it as the exact law of the activated children by type, as
its generating function, and mean_active_column as the mean activated
count of every type, that pgf's gradient at s = 1.  The census engine in
mc_sim turns its levels into draw tables.  The oracles for all of them,
the order-statistics scan clique_cascade_size and the synchronous-round
dynamics on every tuple of the child-count cube, live in verification.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from itertools import accumulate
from math import comb, lgamma, log

import numpy as np

from .dist_core import ModelParams, Pmf, _per_model, _read_only, child_count_pmf, require_enumerable
from .errors import EnumerationTooLarge


def _require_float_range(clique_size: int) -> None:
    """Raise EnumerationTooLarge if C(w - 1, (w - 1) // 2) passes the float range (w >= 1031)."""
    n = clique_size - 1
    if lgamma(n + 1) - lgamma(n // 2 + 1) - lgamma(n - n // 2 + 1) > log(sys.float_info.max):
        raise EnumerationTooLarge(
            f"community size {clique_size} needs binomial coefficients beyond the float range"
        )


@_per_model
def _levels(params: ModelParams, clique_size: int) -> tuple[Pmf, tuple, tuple, tuple]:
    """The floor-level walk of one clique size: (xp, bounds, mass, tail), kept on params.

    Type x sits on level f(x) = floor(threshold * (x + w - 1)), which never
    decreases along the support; f(x) >= m iff x + w - 1 >= ceil(m / threshold).
    So bounds[m], m = 0..w-1, the first support position at or past that
    integer inverse, cuts the support into runs: level m's types are
    xp.items[bounds[m]:bounds[m + 1]], and no cascade reaches those from
    bounds[w - 1] on.  mass[m] = P(f(X) = m) and tail[m] = P(f(X) > m),
    m = 0..w-2, the chance a fresh child is out of reach even with m activated
    brothers plus the parent.  Checks _require_float_range first for direct
    callers; the walk's readers pass _walk_moves, which checks every size.
    """
    _require_float_range(clique_size)
    n = clique_size - 1
    xp = child_count_pmf(params)
    num, den = params.threshold.numerator, params.threshold.denominator
    bounds = tuple(bisect_left(xp.support, -(-m * den // num) - n) for m in range(clique_size))
    mass = tuple(sum(p for _, p in xp.items[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    out = sum(p for _, p in xp.items[bounds[-1]:])  # P(f(X) >= n)
    tail = tuple(accumulate(reversed(mass), initial=out))[-2::-1]  # tail[m] = tail[m + 1] + mass[m + 1]
    return xp, bounds, mass, tail


def _alive(mass: tuple, tail: tuple):
    """Yield (m, lo, hi) for each level the walk visits: states lo..hi are alive entering level m.

    From state 0 on level 0, a level with positive mass and tail leaves
    [max(lo, m + 1), n - 1]; any other level leaves the states above m, or
    none if it has no tail.  A size-1 community, n = 0, visits no level.
    """
    n, m, lo, hi = len(mass), 0, 0, 0
    while lo <= hi < n:
        yield m, lo, hi
        hi = -1 if not tail[m] else n - 1 if mass[m] else hi
        lo, m = max(lo, m + 1), m + 1


@_per_model
def _walk_moves(params: ModelParams) -> int:
    """The walk's gate: every size's float range, then the moves _walk yields over all sizes.

    Every reader passes here before the child-count law is composed.  The
    moves are counted off _alive's intervals, in O(w) per size: a level with
    positive mass and tail gives state i its n - i + 1 moves, any other
    level gives each state one.  Raises EnumerationTooLarge past
    ENUMERATION_BUDGET moves, so a refusal walks nothing; the count is kept on params.
    """
    for w in params.community_sizes.support:
        _require_float_range(w)
    moves = 0
    for w in params.community_sizes.support:
        _, _, mass, tail = _levels(params, w)
        for m, lo, hi in _alive(mass, tail):
            moves += (hi - lo + 1) * (2 * w - lo - hi) // 2 if mass[m] and tail[m] else hi - lo + 1
    require_enumerable(moves, "walk moves")
    return moves


def _walk(params: ModelParams, clique_size: int):
    """Walk one clique size's floor levels: yield (m, moves) for each level _alive visits.

    moves maps each alive state i = N_{m-1} to its moves of positive
    probability, (j, C(rest, k) (mass_m / reach)^k (tail_m / reach)^(rest - k),
    live) with j = i + k and k ascending: k of the rest = n - i unplaced
    children land on level m and the others stay above it.  A move exists
    iff k = 0 or mass_m > 0, and k = rest or tail_m > 0.  The cascade stops
    at j = m (too few to go on: n - j children stay inactive above m) or at
    j = n (every child placed); live = m < j < n flags the other moves.
    The walk's gate, _walk_moves, passes the model before the first move.
    """
    _walk_moves(params)
    _, _, mass, tail = _levels(params, clique_size)
    n = len(mass)
    for m, lo, hi in _alive(mass, tail):  # alive states lie in m..n-1, so reach > 0
        reach, moves = mass[m] + tail[m], {}
        up, stay = mass[m] / reach, tail[m] / reach
        for i in range(lo, hi + 1):
            rest = n - i
            moves[i] = [
                (i + k, comb(rest, k) * up**k * stay ** (rest - k), m < i + k < n)
                for k in range(0 if tail[m] else rest, rest + 1 if mass[m] else 1)
            ]
        yield m, moves


def _fold(params: ModelParams, clique_size: int, r) -> tuple[float, list[float]]:
    """One pass over _walk, a child placed on level m weighing r[m]: (G_w, placed).

    A move of k = j - i children out of state i has reach = alive[i] *
    weight; it adds reach * k to placed[m] and sends reach * r[m]^k on to j
    or, for a stop, to G_w.  At r = 1, placed[m] is the expected count activated on
    level m: every placed child is active, and a stop at N_m = m places none.
    """
    alive, total, placed = {0: 1.0}, 0.0, [0.0] * (clique_size - 1)
    for m, moves in _walk(params, clique_size):
        after = {}
        for i, steps in moves.items():
            for j, weight, live in steps:
                reach = alive[i] * weight
                placed[m] += reach * (j - i)
                value = reach * r[m] ** (j - i)
                if live:
                    after[j] = after.get(j, 0.0) + value
                else:
                    total += value
        alive = after
    return total, placed


@_per_model
def mean_active_column(params: ModelParams, clique_size: int) -> np.ndarray:
    """Expected activated children of each type in one clique, one entry per support type.

    Entry i is for type child_count_pmf(params).values[i]: clique_pgf's
    gradient at s = 1.  _fold at r = 1 gives the expected count activated on
    each level f(x) = floor(threshold * (x + w - 1)), and within a level
    types follow the child-count law conditioned on it.  Kept on params, read-only.
    """
    xp, bounds, mass, _ = _levels(params, clique_size)
    placed = _fold(params, clique_size, [1.0] * len(mass))[1]
    column = np.zeros(len(xp.items))
    for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        column[lo:hi] = placed[m] * (xp.probs[lo:hi] / mass[m])
    return _read_only(column)


def clique_pgf(params: ModelParams, clique_size: int, s) -> float:
    """G_w(s) = E[prod_x s_x^{A_x}], A_x the activated children of type x in one clique.

    s has one entry per type, indexed like child_count_pmf(params).values;
    any other length raises ValueError.  With r_m the child-count law's mean
    of s over the types on level m, G_w is _fold's total at r.
    """
    params.require_contagion_assumptions()
    xp, bounds, mass, _ = _levels(params, clique_size)
    if len(s) != len(xp.items):
        raise ValueError(f"s has {len(s)} entries but the child-count support has {len(xp.items)}")
    weighted = [p * float(s_x) for (_, p), s_x in zip(xp.items[: bounds[-1]], s)]
    runs = zip(bounds, bounds[1:])
    r = [sum(weighted[lo:hi]) / mass[m] if mass[m] else 0.0 for m, (lo, hi) in enumerate(runs)]
    return _fold(params, clique_size, r)[0]
