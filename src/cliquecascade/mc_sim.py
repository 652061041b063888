"""Monte Carlo engine: sample truncated local graphs, run the contagion.

The local weak limit of the projected graph is a tree of cliques grown level
by level: the root draws its community count from the raw membership law,
every other vertex draws extra communities from the size-biased shift, and
community sizes always come from the size-biased size law.  Vertices at the
truncation depth are not expanded but still draw their would-be child count,
because their degree feeds the activation rule.  These laws and the
child-count law are dist_core's: ModelParams and child_count_pmf build them
once, and this module reads their arrays and draws with Pmf.draw.

Two sampling routes produce the same law.  sample_local_graph plus
run_contagion materialise the graphs and settle each clique in degree order,
in one pass for a whole threshold ladder when survival_by_threshold couples
thresholds on shared graphs.  estimate instead steps ActivationProcess, the
multi-type branching process of per-level census counts of vertex types: a
clique's cascade is the floor-level walk of clique_dynamics, compiled once
per model into a step plan.  A size's cliques move through the walk's alive
states together, one multinomial per state with several moves, and given
the moves the types placed on a level are iid, so a level costs only its
draws, not work proportional to the population or the sorted child-count
tuples.  Tests cross-check the two routes, and keep the per-level loop the
plan replaced and two older samplers as references.

Both routes run replicates in blocks of a fixed size.  estimate advances
every row of a block one level per step with one array draw per law; the
per-vertex route samples a block as one forest of independent trees and runs
the contagion on the whole forest at once.  Block b uses the stream seeded by
SeedSequence(seed, spawn_key=(b,)); the block size is a constant, so a result
depends only on the model, the depth, the replicate count and the seed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, inf, lgamma, log
from operator import mul

import numpy as np

from .clique_dynamics import _alive, _levels, _walk, _walk_moves
from .dist_core import ModelParams, Threshold, _per_model, child_count_pmf, require_enumerable
from .errors import CensusOverflow, ConfigInvalid

# Replicates per random stream.  Part of the report contract: changing it
# changes every report, so it is a constant and not a tuning knob.
_BLOCK = 256
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SimConfig:
    depth: int
    replicates: int
    seed: int

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigInvalid("depth must be at least 1")
        if self.replicates < 1:
            raise ConfigInvalid("replicates must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigInvalid("seed must be an unsigned 64-bit integer")
        require_enumerable(self.depth + 1, "depth levels")  # tallies hold one entry per level


@dataclass(frozen=True)
class SimReport:
    survival_frequency: float
    graph_alive_frequency: float
    mean_active_by_depth: tuple[float, ...]
    mean_vertices_by_depth: tuple[float, ...]


@dataclass
class LocalGraph:
    """Forest of depth-truncated trees of cliques in flat arrays.

    Vertices are numbered breadth-first with the roots at 0..n_roots-1; tree
    gives each vertex the id of its root.  The members born into one clique
    occupy a contiguous id range, in the order of the clique ids.
    """

    truncation_depth: int
    depth: np.ndarray
    tree: np.ndarray
    parent: np.ndarray
    clique_of: np.ndarray
    child_count: np.ndarray
    active: np.ndarray
    clique_size: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.depth.shape[0]

    @property
    def n_roots(self) -> int:
        return int(np.searchsorted(self.depth, 1))

    def active_per_tree(self) -> np.ndarray:
        """Active vertices at the truncation depth, per tree."""
        last = self.active & (self.depth == self.truncation_depth)
        return np.bincount(self.tree[last], minlength=self.n_roots)


def sample_local_graph(
    params: ModelParams, depth: int, rng: np.random.Generator, roots: int = 1
) -> LocalGraph:
    """Sample a forest of independent truncated local graphs.

    Roots take ids 0..roots-1.  Each level draws for all trees at once:
    community counts for the level's vertices, then the sizes of all the new
    communities; the frontier level draws child counts only.  Empty levels
    consume no randomness.  roots=1 gives a single graph.  Raises
    EnumerationTooLarge before allocating a level that would take the forest
    past ENUMERATION_BUDGET vertices.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if roots < 1:
        raise ValueError("roots must be at least 1")
    child = child_count_pmf(params)
    sizes = [roots]
    vtree = [np.arange(roots, dtype=np.int64)]
    vparent = [np.full(roots, -1, dtype=np.int64)]
    vclique = [np.full(roots, -1, dtype=np.int64)]
    vchild: list[np.ndarray] = []
    csize: list[np.ndarray] = []
    first = next_clique = 0  # ids of the level's first vertex and next clique
    for level in range(depth):
        n_here = sizes[-1]
        counts = (params.memberships if level == 0 else params.extra_communities).draw(rng, n_here)
        n_new_cliques = int(counts.sum())
        members = params.extra_members.draw(rng, n_new_cliques)
        n_new = int(members.sum())
        require_enumerable(first + n_here + n_new, "forest vertices")
        owner = np.repeat(np.arange(n_here), counts)
        local = np.repeat(np.arange(n_new_cliques), members)  # each new vertex's clique
        up = owner[local]  # and its parent, both level-local
        vchild.append(
            np.bincount(owner, weights=members, minlength=n_here).astype(np.int64)
        )
        csize.append(members + 1)
        vparent.append(first + up)
        vtree.append(vtree[-1][up])
        vclique.append(next_clique + local)
        first += n_here
        next_clique += n_new_cliques
        sizes.append(n_new)
    vchild.append(child.draw(rng, sizes[-1]))
    return LocalGraph(
        truncation_depth=depth,
        depth=np.repeat(np.arange(depth + 1, dtype=np.int64), sizes),
        tree=_joined(vtree),
        parent=_joined(vparent),
        clique_of=_joined(vclique),
        child_count=_joined(vchild),
        active=np.zeros(first + sizes[-1], dtype=bool),
        clique_size=_joined(csize),
    )


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate and drop the parts, so a forest is never held twice."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def _settle(graph: LocalGraph, ladder) -> np.ndarray:
    """Each vertex's activation count: v is active under ladder[k] iff k < counts[v].

    The ladder is ascending.  Two facts of the synchronous-round fixpoint
    make one pass enough.  An active non-root vertex has an active parent,
    since while the parent is inactive so are its co-members and children.
    With its parent active, a clique fills its members in increasing order
    of degree and stops at the first 1-based position i whose requirement
    floor_times(degree) + 1 (a Python int, so exact) exceeds i.
    """
    t, roots = len(ladder), graph.n_roots
    counts = np.full(graph.n_vertices, t, dtype=np.int64)
    co = graph.clique_of[roots:]
    members = graph.clique_size - 1
    degree = members[co] + graph.child_count[roots:]
    # a requirement row per degree present, offset by row * stride so the
    # flat table is sorted; by_degree then maps a degree to its row
    by_degree = np.bincount(degree)
    stride, present = by_degree.size, np.flatnonzero(by_degree)
    table = [r * stride + th.floor_times(d) + 1 for r, d in enumerate(present.tolist()) for th in ladder]
    need = np.array(table, dtype=np.int64)
    by_degree[present] = np.arange(present.size)
    # a clique's members are contiguous, so sorting by (clique, degree) keeps
    # each clique on its slots.  A member's count is the running minimum, in
    # that order, of the thresholds each position meets (shifting each clique
    # below the ones before restarts it), capped by its parent's count.
    order = np.argsort(co * stride + degree, kind="stable")
    row, shift = by_degree[degree[order]], co * (t + 1)
    position = np.arange(1, co.size + 1) - (np.cumsum(members) - members)[co]
    met = np.searchsorted(need, row * stride + position, side="right") - row * t - shift
    counts[roots:][order] = np.minimum.accumulate(met) + shift
    bounds = np.searchsorted(graph.depth, np.arange(2, graph.truncation_depth + 2)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):  # depth 1 hangs off the roots
        np.minimum(counts[lo:hi], counts[graph.parent[lo:hi]], out=counts[lo:hi])
    return counts


def run_contagion(graph: LocalGraph, threshold: Threshold) -> LocalGraph:
    """Fill graph.active in place with the set the roots activate; _settle's one-threshold case.

    A vertex activates when active neighbours strictly exceed threshold *
    degree, in exact integers.  Degree counts clique co-members plus the
    vertex's own children; frontier vertices use their sampled child count.
    Trees share no edges, so each ends with the active set it reaches alone.
    """
    graph.active[:] = _settle(graph, (threshold,)) > 0
    return graph


def _walk_levels(params: ModelParams, clique_size: int) -> tuple:
    """The floor-level walk of one community size as a census step plan.

    Level m is (states, runs).  Each alive state i (members placed so far)
    is (i, probs, keys, effects, live), keys naming what its moves feed:
    "on" (members placed on level m), "above" (the n - j a stop at j leaves
    inactive), then each state j a move keeps alive.  effects is an int64
    matrix with a row per move and a column per run key, the members each
    move adds to it; live is the slice of moves, consecutive since j ascends,
    that reach the remaining keys in order.  probs is the moves' law, or
    None for one move, which draws nothing.  runs gives (key, types, probs):
    the support's run on level m or above it (_levels' bounds), whose types
    are iid given f(X) = m or f(X) > m.
    """
    xp, bounds, _, _ = _levels(params, clique_size)
    n = clique_size - 1

    def run(types):
        return types, xp.probs[types] / xp.probs[types].sum()

    levels = []
    for m, moves in _walk(params, clique_size):
        states = []
        for i, steps in moves.items():
            fills = {"on": [j - i for j, _, _ in steps], "above": [0 if on else n - j for j, _, on in steps]}
            fills = {key: column for key, column in fills.items() if any(column)}
            effects = np.array([*fills.values()], dtype=np.int64).reshape(len(fills), len(steps)).T
            onward = [col for col, step in enumerate(steps) if step[2]]
            keys = (*fills, *(steps[col][0] for col in onward))
            live = slice(onward[0], onward[-1] + 1) if onward else slice(0)
            probs = np.array([p for _, p, _ in steps])
            states.append((i, probs / probs.sum() if len(steps) > 1 else None, keys, effects, live))
        runs = ("on", *run(slice(bounds[m], bounds[m + 1]))), ("above", *run(slice(bounds[m + 1], None)))
        levels.append((tuple(states), runs))
    return tuple(levels)


def _spread(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row r splits counts[r] over the categories of probs; one category draws nothing.

    With numpy 2.4.6 neither does a zero row or block (tested), so no draw needs a zero gate.
    """
    if probs.shape[0] == 1:
        return counts[:, None]
    return rng.multinomial(counts, probs)


def _count_vectors(total: int, weights: tuple[int, ...], room: int) -> list[tuple[int, ...]]:
    """Vectors n summing to total with n . weights <= room: first count descending, then the next.

    Depth first on an explicit stack, so any number of weights lists: each
    count is pushed ascending and popped descending, and a head with nothing
    left to place ends in zeros.
    """
    vectors, stack = [], [((), total, room)]
    while stack:
        head, left, spare = stack.pop()
        w = weights[len(head)]
        if left * w > spare:  # weights ascend, so left * w is the least any vector here costs
            continue
        if not left or len(head) + 1 == len(weights):
            vectors.append((*head, left) + (0,) * (len(weights) - len(head) - 1))
        else:
            stack.extend(((*head, n), left - n, spare - n * w) for n in range(left + 1))
    return vectors


class ActivationProcess:
    """The activation process as a multi-type branching process: the census engine.

    Types are indexed by their position in the child-count support.  A step
    acts on a block of replicates, one row each, and returns the (active,
    inactive) children-by-type arrays of the next level.  Kept on its
    model by _census_tables, which compiles its step plan: params is the
    model, whose memberships the root step draws from, spread the size-biased
    size law, one mass per community size (0.0 where it underflowed),
    type_values the child-count support, cliques the walk plan of each size,
    fixed the (type, size) counts of each type with one configuration, which
    draws nothing, and configs (type, probs, size counts) for the other types
    with communities in increasing order: their configuration law given the
    extra members, one row per size-count vector, in _count_vectors order.
    Only types a walk activates have rows: those before the reach, the largest
    bounds[m], m the levels a size's walk visits.  Raises EnumerationTooLarge at
    the walk's gate _walk_moves, before composing the child-count law, for a
    size past the walk's float range or walks past ENUMERATION_BUDGET moves;
    then past ENUMERATION_BUDGET configuration tuples, a bound on the rows
    listed: d memberships list C(k_d + d - 2, d - 1) at most, over the k_d
    sizes w with (w - 1) + (d - 2)(min size - 1) <= room, the largest type in reach.
    """

    def __init__(self, params: ModelParams):
        params.require_contagion_assumptions()
        p, q = params.memberships, params.community_sizes
        _walk_moves(params)  # the walk's gate, before the composition and the configuration table
        levels = [_levels(params, w) for w in q.support]
        reach = max(bounds[len([*_alive(mass, tail)])] for _, bounds, mass, tail in levels)
        xp = child_count_pmf(params)
        room = int(xp.values[reach - 1]) if reach else -1  # the largest type a walk activates
        members = tuple(w - 1 for w in q.support)
        fits = [sum(m + (d - 2) * members[0] <= room for m in members) for d in p.support]  # k_d per membership d
        count = sum(comb(k + d - 2, d - 1) if k else 0 for d, k in zip(p.support, fits))
        require_enumerable(count, "configuration tuples")
        self.cliques = tuple(_walk_levels(params, w) for w in q.support)
        type_index = {x: i for i, x in enumerate(xp.support)}
        # log P(K = d - 1) + log((d - 1)! / prod n_w!) + sum n_w log e_w; a zero mass weighs -inf
        log_k = {k: log(mass) for k, mass in params.extra_communities.items}
        log_e = [log(e) if e else -inf for e in map(params.extra_members, members)]
        by_type = defaultdict(lambda: ([], []))
        for d in p.support:
            base = log_k.get(d - 1, -inf) + lgamma(d)
            for counts in _count_vectors(d - 1, members, room):
                logs, rows = by_type[sum(map(mul, counts, members))]
                logs.append(base + sum(n * le - lgamma(n + 1) if n else 0.0 for le, n in zip(log_e, counts)))
                rows.append(counts)
        configs, self.fixed = [], np.zeros((xp.values.size, len(q.support)), dtype=np.int64)
        for x, (logs, rows) in sorted(by_type.items()):
            if x > 0 and x in type_index:  # a type whose mass underflowed never occurs
                sizes = np.array(rows, dtype=np.int64)
                if len(rows) == 1:
                    self.fixed[type_index[x]] = sizes[0]
                else:
                    top = max(logs)  # so that no weight can overflow
                    probs = np.array([exp(lw - top) for lw in logs])
                    configs.append((type_index[x], probs / probs.sum(), sizes))
        self.params = params
        self.spread = np.array([params.extra_members(w - 1) for w in q.support])
        self.type_values = xp.values
        self.configs = tuple(configs)

    def _resolve_cliques(self, cliques_by_size: np.ndarray, rng: np.random.Generator):
        """Active and inactive children-by-type of cliques whose parent is active.

        Runs each size's walk plan.  Its one count gate is a cost gate: deep
        in a long walk a state's counts are often all zero, and a ~1 us check
        saves a ~20 us multinomial that would draw nothing (see _spread).
        """
        shape = (2, cliques_by_size.shape[0], self.type_values.size)
        active, inactive = np.zeros(shape, dtype=np.int64)
        into = {"on": active, "above": inactive}
        for wi, levels in enumerate(self.cliques):
            alive = {0: cliques_by_size[:, wi]}
            for states, runs in levels:
                sums = {}  # per key: members of a run, or cliques in a next state
                for i, probs, keys, effects, live in states:
                    counts = alive.get(i)  # None when every way in was skipped
                    if counts is None or probs is not None and not counts.any():
                        continue
                    if probs is None:
                        parts = [counts if k == 1 else k * counts for k in effects[0].tolist()]
                        parts += [counts] * (len(keys) - len(parts))
                    else:
                        drawn = rng.multinomial(counts, probs)
                        parts = [*(drawn @ effects).T, *drawn.T[live]]
                    for key, part in zip(keys, parts):  # part is never written to
                        sums[key] = sums[key] + part if key in sums else part
                for key, types, probs in runs:
                    if key in sums:
                        into[key][:, types] += _spread(rng, sums[key], probs)
                if not sums:
                    break
                alive = sums
        return active, inactive

    def root_step(self, rows: int, rng: np.random.Generator):
        """Active and inactive depth-1 children-by-type below each of rows roots."""
        communities = self.params.memberships.draw(rng, rows)
        return self._resolve_cliques(_spread(rng, communities, self.spread), rng)

    def step(self, active: np.ndarray, rng: np.random.Generator):
        """Active and inactive children-by-type of each row's active vertices."""
        cliques_by_size = active @ self.fixed
        for x, probs, sizes in self.configs:
            cliques_by_size += rng.multinomial(active[:, x], probs) @ sizes
        return self._resolve_cliques(cliques_by_size, rng)


@_per_model
def _census_tables(params: ModelParams) -> ActivationProcess:
    return ActivationProcess(params)


def _check_next_level(census: np.ndarray, types: np.ndarray, level: int) -> None:
    """Raise if some replicate's next level would exceed the int64 range.

    types holds the child count of each column, and a type-x vertex has
    exactly x children, so row r's next level holds census[r] @ types
    vertices, summed here in exact integers.
    """
    worst = int((census.astype(object) @ types.astype(object)).max())
    if worst > _INT64_MAX:
        raise CensusOverflow(
            f"level {level + 1} would hold {worst} vertices in one replicate, "
            "beyond the int64 range of the census engine"
        )


def _total(state: np.ndarray, fits: bool) -> int:
    """Exact sum of a block's state; in int64 when the block total fits it."""
    if fits:
        return int(state.sum())
    return int(state.sum(axis=1).sum(dtype=object))


def _census_block(process: ActivationProcess, depth: int, rows: int, rng: np.random.Generator):
    """Advance a block of replicates level by level; returns exact tallies.

    Each row of the (rows, types) states is one replicate's census of the
    current level by child-count type, active and inactive.  Returns
    per-depth vertex and active totals over the block as Python ints, and
    the number of replicates with an active vertex, and with any vertex, at
    the truncation depth.
    """
    vertices = [rows] + [0] * depth
    active_tally = [rows] + [0] * depth
    active, inactive = process.root_step(rows, rng)
    fits = False  # the root level is summed exactly
    types, child_probs = process.type_values, child_count_pmf(process.params).probs
    for level in range(1, depth + 1):
        active_tally[level] = _total(active, fits)
        vertices[level] = active_tally[level] + _total(inactive, fits)
        if level == depth or not vertices[level]:
            break
        # the next level's rows, and their block total, are at most this
        fits = vertices[level] * int(types[-1]) <= _INT64_MAX
        if not fits:
            _check_next_level(active + inactive, types, level)
        next_active, next_inactive = process.step(active, rng)
        if vertices[level] > active_tally[level]:
            next_inactive += _spread(rng, inactive @ types, child_probs)
        active, inactive = next_active, next_inactive
    # an early break leaves all-zero rows, so both counts are then 0
    return (
        vertices,
        active_tally,
        int(np.count_nonzero(active.any(axis=1))),
        int(np.count_nonzero((active + inactive).any(axis=1))),
    )


def _blocks(replicates: int, seed: int):
    """(rows, rng) per block of _BLOCK replicates; block b's stream has spawn_key (b,)."""
    if replicates < 1:
        raise ConfigInvalid("replicates must be at least 1")
    for block, lo in enumerate(range(0, replicates, _BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        yield min(_BLOCK, replicates - lo), rng


def estimate(params: ModelParams, config: SimConfig) -> SimReport:
    """Replicated simulation summary, stepping the census engine ActivationProcess.

    Replicates run in blocks of _BLOCK (256), all rows of a block advancing
    one level per step; block b draws from SeedSequence(seed,
    spawn_key=(b,)).  Tallies are exact integers, so counts never wrap, and
    floats appear only in the final division: the report is a function of
    (params, depth, replicates, seed) alone.  Raises CensusOverflow when a
    replicate's level would outgrow int64, and EnumerationTooLarge before
    listing more than ENUMERATION_BUDGET configuration tuples.
    """
    process = _census_tables(params)
    depth = config.depth
    vertices = [0] * (depth + 1)
    active = [0] * (depth + 1)
    survived = 0
    alive = 0
    for rows, rng in _blocks(config.replicates, config.seed):
        vc, ac, s, a = _census_block(process, depth, rows, rng)
        vertices = [t + v for t, v in zip(vertices, vc)]
        active = [t + v for t, v in zip(active, ac)]
        survived += s
        alive += a
    n = config.replicates
    return SimReport(
        survival_frequency=survived / n,
        graph_alive_frequency=alive / n,
        mean_active_by_depth=tuple(v / n for v in active),
        mean_vertices_by_depth=tuple(v / n for v in vertices),
    )


def survival_by_threshold(
    params: ModelParams, thresholds, config: SimConfig
) -> tuple[float, ...]:
    """Survival frequency per threshold, coupled on shared graphs.

    Replicates run in blocks of _BLOCK (256) with estimate's stream contract:
    block b samples one forest of that many trees from SeedSequence(seed,
    spawn_key=(b,)) and settles it once for the ladder sorted by exact
    value.  Each replicate is one tree, coupled across the thresholds, so
    with a fixed seed a harsher threshold never has a higher frequency.  The
    per-vertex route prices a replicate by its vertex count and holds a
    block's forest in memory: a forest that would pass ENUMERATION_BUDGET
    vertices raises EnumerationTooLarge before its level is allocated.
    """
    params.require_contagion_assumptions()
    thresholds = list(thresholds)
    ladder = sorted(set(thresholds), key=lambda t: Fraction(t.numerator, t.denominator))
    tally = np.zeros(len(ladder) + 1, dtype=np.int64)
    for rows, rng in _blocks(config.replicates, config.seed):
        graph = sample_local_graph(params, config.depth, rng, roots=rows)
        last = graph.depth == config.depth
        best = np.zeros(rows, dtype=np.int64)  # tree r survives ladder[k] iff k < best[r]
        np.maximum.at(best, graph.tree[last], _settle(graph, ladder)[last])
        tally += np.bincount(best, minlength=len(ladder) + 1)
    survived = dict(zip(ladder, np.cumsum(tally[::-1])[-2::-1].tolist()))  # ladder[k]: trees with best > k
    return tuple(survived[t] / config.replicates for t in thresholds)
