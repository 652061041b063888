"""Monte Carlo engine: sample truncated local graphs, run the contagion.

The local weak limit of the projected graph is a tree of cliques grown level
by level: the root draws its community count from the raw membership law,
every other vertex draws extra communities from the size-biased shift, and
community sizes always come from the size-biased size law.  Vertices at the
truncation depth are not expanded but still draw their would-be child count,
because their degree feeds the activation rule.

Two sampling routes produce the same law.  sample_local_graph plus
run_contagion materialise the graphs and iterate synchronous rounds; this is
the reference route and the one survival_by_threshold uses to couple several
thresholds on a shared graph.  estimate instead evolves per-level census
counts of vertex types: a clique's outcome is a stop path of the floor-level
walk that clique_dynamics counts and lists, and given the path the types on
each level are iid, so a level costs one multinomial per size with several
paths and one per draw slot with members, rather than work proportional to
the population or to the sorted child-count tuples.  This module only maps
the paths to draw slots.  Tests cross-check the two routes, and keep the
sorted-tuple engine and a scalar activation-process sampler as references.

Both routes run replicates in blocks of a fixed size.  estimate advances
every row of a block one level per step with one array draw per table; the
per-vertex route samples a block as one forest of independent trees and runs
the contagion on the whole forest at once.  Block b uses the stream seeded by
SeedSequence(seed, spawn_key=(b,)); the block size is a constant, so a result
depends only on the model, the depth, the replicate count and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

import numpy as np

from .clique_dynamics import _count_paths, _levels, _orderings, _stop_paths, require_enumerable
from .dist_core import ModelParams, Pmf, Threshold, child_count_pmf
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
    def n_cliques(self) -> int:
        return self.clique_size.shape[0]

    @property
    def n_roots(self) -> int:
        return int(np.searchsorted(self.depth, 1))

    def vertices_by_depth(self) -> np.ndarray:
        return np.bincount(self.depth, minlength=self.truncation_depth + 1)

    def active_by_depth(self) -> np.ndarray:
        return np.bincount(self.depth[self.active], minlength=self.truncation_depth + 1)

    def active_per_tree(self) -> np.ndarray:
        """Active vertices at the truncation depth, per tree."""
        last = self.active & (self.depth == self.truncation_depth)
        return np.bincount(self.tree[last], minlength=self.n_roots)


class _DrawTable:
    """Inverse-cdf sampling table for a bounded integer law."""

    def __init__(self, pmf: Pmf):
        self.pmf = pmf
        self.values = np.array(pmf.support, dtype=np.int64)
        self.probs = np.array([p for _, p in pmf.items])
        self.cum = np.cumsum(self.probs)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = np.searchsorted(self.cum, rng.random(size), side="right")
        return self.values[np.minimum(idx, len(self.values) - 1)]


class _Laws(NamedTuple):
    """The model's threshold-free laws as draw tables, read by both routes."""

    root: _DrawTable  # communities of the root
    extra: _DrawTable  # further communities of a non-root vertex
    members: _DrawTable  # further members of a community
    child: _DrawTable  # children of a non-root vertex


def _laws(params: ModelParams) -> _Laws:
    return _laws_of(params.memberships, params.community_sizes, child_count_pmf(params))


@lru_cache(maxsize=None)
def _laws_of(memberships: Pmf, community_sizes: Pmf, child_counts: Pmf) -> _Laws:
    return _Laws(
        _DrawTable(memberships),
        _DrawTable(memberships.size_biased_shifted()),
        _DrawTable(community_sizes.size_biased_shifted()),
        _DrawTable(child_counts),
    )


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
    root_table, extra_table, member_table, child_table = _laws(params)
    level_ids = np.arange(roots, dtype=np.int64)
    vdepth = [np.zeros(roots, dtype=np.int64)]
    vtree = [level_ids]
    vparent = [np.full(roots, -1, dtype=np.int64)]
    vclique = [np.full(roots, -1, dtype=np.int64)]
    vchild: list[np.ndarray] = []
    csize: list[np.ndarray] = []
    next_vertex = roots
    next_clique = 0
    level_trees = level_ids
    for level in range(depth):
        n_here = level_ids.size
        table = root_table if level == 0 else extra_table
        counts = table.draw(rng, n_here)
        n_new_cliques = int(counts.sum())
        members = member_table.draw(rng, n_new_cliques)
        n_new = int(members.sum())
        require_enumerable(next_vertex + n_new, "forest vertices")
        owner = np.repeat(np.arange(n_here), counts)
        vchild.append(
            np.bincount(owner, weights=members, minlength=n_here).astype(np.int64)
        )
        csize.append(members + 1)
        vdepth.append(np.full(n_new, level + 1, dtype=np.int64))
        vparent.append(np.repeat(level_ids[owner], members))
        level_trees = np.repeat(level_trees[owner], members)
        vtree.append(level_trees)
        clique_ids = np.arange(next_clique, next_clique + n_new_cliques, dtype=np.int64)
        vclique.append(np.repeat(clique_ids, members))
        level_ids = np.arange(next_vertex, next_vertex + n_new, dtype=np.int64)
        next_vertex += n_new
        next_clique += n_new_cliques
    vchild.append(child_table.draw(rng, level_ids.size))
    return LocalGraph(
        truncation_depth=depth,
        depth=_joined(vdepth),
        tree=_joined(vtree),
        parent=_joined(vparent),
        clique_of=_joined(vclique),
        child_count=_joined(vchild),
        active=np.zeros(next_vertex, dtype=bool),
        clique_size=_joined(csize),
    )


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate and drop the parts, so a forest is never held twice."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def run_contagion(graph: LocalGraph, threshold: Threshold) -> LocalGraph:
    """Activate from the roots by synchronous rounds until nothing changes.

    A vertex activates when active neighbours strictly exceed threshold *
    degree; the comparison is exact (integer cross-multiplication).  Degree
    counts clique co-members plus the vertex's own children; frontier vertices
    use their sampled child count.  Every root is seeded; trees share no
    edges, so each tree ends with the active set it would reach alone.
    Fills graph.active in place.
    """
    n = graph.n_vertices
    roots = graph.n_roots
    act = np.zeros(n)
    act[:roots] = 1.0
    if n > roots:
        num, den = threshold.numerator, threshold.denominator
        co = graph.clique_of[roots:]
        par = graph.parent[roots:]
        rhs = (num * ((graph.clique_size[co] - 1) + graph.child_count[roots:])).astype(np.float64)
        nc = graph.n_cliques
        rest = act[roots:]
        while True:
            # in place, so a large forest holds few vertex-sized temporaries
            neighbours = np.bincount(co, weights=rest, minlength=nc)[co]
            neighbours -= rest
            neighbours += act[par]
            neighbours += np.bincount(par, weights=rest, minlength=n)[roots:]
            neighbours *= den
            newly = neighbours > rhs
            newly &= rest == 0.0
            if not newly.any():
                break
            rest[newly] = 1.0
    graph.active[:] = act > 0.0
    return graph


class _CliqueTable(NamedTuple):
    """Stop paths of the floor-level walk in one community size.

    Row i of members gives path i's member counts per draw slot: one slot per
    level j the cascade reaches, whose types are iid from the child-count law
    given f(X) = j, and one per stop level m, whose members stay inactive
    with types given f(X) > m.  Exact by exchangeability.  f is monotone, so
    a slot's types are a run of the child-count support.
    """

    probs: np.ndarray  # (paths,)
    members: np.ndarray  # (paths, slots)
    slots: tuple  # (active, slice of the support, probs) per slot


class _CensusTables(NamedTuple):
    """Per-model census tables, with types indexed by their position in the
    child-count support: the laws, one clique table per community size, and
    per parent type the community-size counts given its extra members."""

    type_values: np.ndarray  # the child-count support
    laws: _Laws
    cliques: tuple[_CliqueTable, ...]
    fixed_sizes: np.ndarray  # (types, sizes), rows of types with one configuration
    varied_sizes: tuple  # (type, probs, size counts) per type with several


def _clique_table(params: ModelParams, clique_size: int) -> _CliqueTable:
    """Map the stop paths of one community size to draw slots."""
    xp, floors, mass, _ = _levels(params, clique_size)
    probs, rows = _stop_paths(params, clique_size)
    n = len(mass)
    members = np.array(rows, dtype=np.int64)
    used = np.flatnonzero(members.any(axis=0)).tolist()
    slots, level = [], [floors[x] for x in xp.support]
    for col in used:
        types = [i for i, f in enumerate(level) if (f == col if col < n else f > col - n)]
        weights = np.array([xp.items[i][1] for i in types])
        slots.append((col < n, slice(types[0], types[-1] + 1), weights / weights.sum()))
    return _CliqueTable(np.array(probs) / sum(probs), members[:, used], tuple(slots))


@lru_cache(maxsize=None)
def _census_tables(params: ModelParams) -> _CensusTables:
    params.require_contagion_assumptions()
    p, q = params.memberships, params.community_sizes
    laws = _laws(params)
    xp = laws.child.pmf
    count = sum(_count_paths(params, w) for w in q.support)
    count += sum(comb(len(q.support) + d - 2, d - 1) for d in p.support)
    require_enumerable(count, "stop paths and configuration tuples")
    type_index = {x: i for i, x in enumerate(xp.support)}
    size_index = {w: i for i, w in enumerate(q.support)}

    by_type: dict[int, list[tuple[float, np.ndarray]]] = {}
    for d in p.support:
        weight_d = laws.extra.pmf(d - 1)
        for combo in combinations_with_replacement(q.support, d - 1):
            x = sum(w - 1 for w in combo)
            weight = float(_orderings(combo))
            counts = np.zeros(len(q.support), dtype=np.int64)
            for w in combo:
                weight *= laws.members.pmf(w - 1)
                counts[size_index[w]] += 1
            by_type.setdefault(x, []).append((weight_d * weight, counts))
    fixed_sizes = np.zeros((len(xp.support), len(q.support)), dtype=np.int64)
    varied_sizes = []
    for x, weighted in sorted(by_type.items()):
        probs = np.array([wt for wt, _ in weighted])
        sizes = np.array([c for _, c in weighted], dtype=np.int64)
        if len(weighted) == 1:
            fixed_sizes[type_index[x]] = sizes[0]
        else:
            varied_sizes.append((type_index[x], probs / probs.sum(), sizes))
    return _CensusTables(
        type_values=laws.child.values,
        laws=laws,
        cliques=tuple(_clique_table(params, w) for w in q.support),
        fixed_sizes=fixed_sizes,
        varied_sizes=tuple(varied_sizes),
    )


def _spread(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row r splits counts[r] over the categories of probs."""
    if probs.shape[0] == 1:
        return counts[:, None]
    return rng.multinomial(counts, probs)


def _resolve_cliques(tables: _CensusTables, cliques_by_size: np.ndarray, rng):
    """Active and inactive children-by-type of cliques whose parent is active.

    Draws nothing for a size with no cliques, the path of a size with one
    path, or a slot with no members.
    """
    shape = (cliques_by_size.shape[0], tables.type_values.size)
    active, inactive = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    for wi, clique in enumerate(tables.cliques):
        counts = cliques_by_size[:, wi]
        if not counts.any():
            continue
        if clique.probs.shape[0] == 1:  # every slot of the one path has members
            members = counts[:, None] * clique.members[0]
            live = range(members.shape[1])
        else:
            members = rng.multinomial(counts, clique.probs) @ clique.members
            live = np.flatnonzero(members.sum(axis=0)).tolist()
        for slot in live:
            is_active, types, probs = clique.slots[slot]
            target = active if is_active else inactive
            target[:, types] += _spread(rng, members[:, slot], probs)
    return active, inactive


def _root_level(tables: _CensusTables, rows: int, rng: np.random.Generator):
    """Active and inactive depth-1 children-by-type below each of rows roots."""
    laws = tables.laws
    cliques_by_size = _spread(rng, laws.root.draw(rng, rows), laws.members.probs)
    return _resolve_cliques(tables, cliques_by_size, rng)


def _next_level(tables: _CensusTables, active: np.ndarray, rng: np.random.Generator):
    """Active and inactive children-by-type of each row's active vertices."""
    cliques_by_size = active @ tables.fixed_sizes
    for x, probs, sizes in tables.varied_sizes:
        if active[:, x].any():
            cliques_by_size += rng.multinomial(active[:, x], probs) @ sizes
    return _resolve_cliques(tables, cliques_by_size, rng)


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


def _census_block(tables: _CensusTables, depth: int, rows: int, rng: np.random.Generator):
    """Advance a block of replicates level by level; returns exact tallies.

    Each row of the (rows, types) states is one replicate's census of the
    current level by child-count type, active and inactive.  Returns
    per-depth vertex and active totals over the block as Python ints, and
    the number of replicates with an active vertex, and with any vertex, at
    the truncation depth.
    """
    vertices = [rows] + [0] * depth
    active_tally = [rows] + [0] * depth
    active, inactive = _root_level(tables, rows, rng)
    fits = False  # the root level is summed exactly
    types = tables.type_values
    for level in range(1, depth + 1):
        active_tally[level] = _total(active, fits)
        vertices[level] = active_tally[level] + _total(inactive, fits)
        if level == depth or not vertices[level]:
            break
        # the next level's rows, and their block total, are at most this
        fits = vertices[level] * int(types[-1]) <= _INT64_MAX
        if not fits:
            _check_next_level(active + inactive, types, level)
        next_active, next_inactive = _next_level(tables, active, rng)
        if vertices[level] > active_tally[level]:
            next_inactive += _spread(rng, inactive @ types, tables.laws.child.probs)
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
    """Replicated simulation summary via the census engine.

    Replicates run in blocks of _BLOCK (256), all rows of a block advancing
    one level per step; block b draws from SeedSequence(seed,
    spawn_key=(b,)).  Tallies are exact integers, so counts never wrap, and
    floats appear only in the final division: the report is a function of
    (params, depth, replicates, seed) alone.  Raises CensusOverflow when a
    replicate's level would outgrow int64, and EnumerationTooLarge before
    listing more than ENUMERATION_BUDGET stop paths and configurations.
    """
    tables = _census_tables(params)
    depth = config.depth
    vertices = [0] * (depth + 1)
    active = [0] * (depth + 1)
    survived = 0
    alive = 0
    for rows, rng in _blocks(config.replicates, config.seed):
        vc, ac, s, a = _census_block(tables, depth, rows, rng)
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
    spawn_key=(b,)) and reruns the contagion for every threshold on it.  Each
    replicate is one tree, coupled across the thresholds, so with a fixed
    seed the frequencies are non-increasing whenever the thresholds are
    increasing: a harsher rule activates a subset of the same vertices.  Uses
    the per-vertex route, which prices each replicate by its vertex count and
    holds a whole block's forest in memory: a forest that would pass
    ENUMERATION_BUDGET vertices raises EnumerationTooLarge before its level
    is allocated.
    """
    params.require_contagion_assumptions()
    thresholds = list(thresholds)
    survived = [0] * len(thresholds)
    for rows, rng in _blocks(config.replicates, config.seed):
        graph = sample_local_graph(params, config.depth, rng, roots=rows)
        for i, threshold in enumerate(thresholds):
            run_contagion(graph, threshold)
            survived[i] += int(np.count_nonzero(graph.active_per_tree()))
    return tuple(s / config.replicates for s in survived)


class ActivationProcess:
    """One replicate of the activation process at a time, drawn by the census engine.

    A census maps a child-count type to its number of active vertices.  The
    class only gives the census tables' root level and next-level step this
    per-replicate form, which bench/tracing.py wraps by name.
    """

    def __init__(self, params: ModelParams):
        self._tables = _census_tables(params)

    def _census(self, active: np.ndarray) -> dict[int, int]:
        values = self._tables.type_values
        return {int(values[i]): int(active[0, i]) for i in np.flatnonzero(active[0])}

    def root_step(self, rng: np.random.Generator) -> dict[int, int]:
        """Types of the active depth-1 vertices below a fresh root."""
        return self._census(_root_level(self._tables, 1, rng)[0])

    def step(self, census: dict[int, int], rng: np.random.Generator) -> dict[int, int]:
        """One generation: active vertices by type to active children by type."""
        values = self._tables.type_values.tolist()
        if any(c < 0 or (c and x not in values) for x, c in census.items()):
            raise ValueError(f"census {census} has a negative count or an impossible type")
        active = np.array([[census.get(x, 0) for x in values]], dtype=np.int64)
        return self._census(_next_level(self._tables, active, rng)[0])
