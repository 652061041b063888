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
counts of vertex types with multinomial draws from the exact clique-outcome
tables, which costs per level a constant set of small draws rather than work
proportional to the population, so deep supercritical runs stay cheap.
Tests cross-check the two routes against each other.

Both routes run replicates in blocks of a fixed size.  estimate advances
every row of a block one level per step with one array draw per table; the
per-vertex route samples a block as one forest of independent trees and runs
the contagion on the whole forest at once.  Block b uses the stream seeded by
SeedSequence(seed, spawn_key=(b,)); the block size is a constant, so a result
depends only on the model, the depth, the replicate count and the seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb

import numpy as np

from .clique_dynamics import clique_cascade_size, clique_outcome_law, order_stat_pmf, require_enumerable
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
    occupy a contiguous id range starting at member_start.
    """

    truncation_depth: int
    depth: np.ndarray
    tree: np.ndarray
    parent: np.ndarray
    clique_of: np.ndarray
    child_count: np.ndarray
    active: np.ndarray
    clique_parent: np.ndarray
    clique_size: np.ndarray
    member_start: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.depth.shape[0]

    @property
    def n_cliques(self) -> int:
        return self.clique_parent.shape[0]

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
        self.values = np.array(pmf.support, dtype=np.int64)
        self.cum = np.cumsum([p for _, p in pmf.items])

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = np.searchsorted(self.cum, rng.random(size), side="right")
        return self.values[np.minimum(idx, len(self.values) - 1)]


@lru_cache(maxsize=None)
def _tables(memberships: Pmf, community_sizes: Pmf):
    from .dist_core import _child_count_pmf

    sizes = Pmf.from_pairs(
        [(v + 1, p) for v, p in community_sizes.size_biased_shifted().items],
        tol=1e-9,
    )
    return (
        _DrawTable(memberships),
        _DrawTable(memberships.size_biased_shifted()),
        _DrawTable(sizes),
        _DrawTable(_child_count_pmf(memberships, community_sizes)),
    )


def sample_local_graph(
    params: ModelParams, depth: int, rng: np.random.Generator, roots: int = 1
) -> LocalGraph:
    """Sample a forest of independent truncated local graphs.

    Roots take ids 0..roots-1.  Each level draws for all trees at once:
    community counts for the level's vertices, then the sizes of all the new
    communities; the frontier level draws child counts only.  Empty levels
    consume no randomness.  roots=1 gives a single graph.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if roots < 1:
        raise ValueError("roots must be at least 1")
    root_table, extra_table, size_table, child_table = _tables(
        params.memberships, params.community_sizes
    )
    level_ids = np.arange(roots, dtype=np.int64)
    vdepth = [np.zeros(roots, dtype=np.int64)]
    vtree = [level_ids]
    vparent = [np.full(roots, -1, dtype=np.int64)]
    vclique = [np.full(roots, -1, dtype=np.int64)]
    vchild: list[np.ndarray] = []
    cparent: list[np.ndarray] = []
    csize: list[np.ndarray] = []
    cstart: list[np.ndarray] = []
    next_vertex = roots
    next_clique = 0
    level_trees = level_ids
    for level in range(depth):
        n_here = level_ids.size
        table = root_table if level == 0 else extra_table
        counts = table.draw(rng, n_here)
        n_new_cliques = int(counts.sum())
        sizes = size_table.draw(rng, n_new_cliques)
        members = sizes - 1
        owner = np.repeat(np.arange(n_here), counts)
        vchild.append(
            np.bincount(owner, weights=members, minlength=n_here).astype(np.int64)
        )
        cparent.append(level_ids[owner])
        csize.append(sizes)
        offsets = np.cumsum(members) - members
        cstart.append(next_vertex + offsets)
        n_new = int(members.sum())
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
        clique_parent=_joined(cparent),
        clique_size=_joined(csize),
        member_start=_joined(cstart),
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


@dataclass(frozen=True)
class _CensusTables:
    """Per-model draw tables for the census engine, all indices ascending.

    Clique tables list every sorted child-count tuple a community can hold;
    active_members keeps the prefix that activates when the parent is active,
    all_members the full membership, both as counts per child-count type.
    Configuration tables give, per parent type x, the law of community-size
    counts conditioned on the sizes summing to x extra members.
    """

    n_types: int
    sizes: np.ndarray
    root_table: _DrawTable
    size_probs: np.ndarray
    type_probs: np.ndarray
    type_values: np.ndarray
    clique_probs: tuple[np.ndarray, ...]
    active_members: tuple[np.ndarray, ...]
    all_members: tuple[np.ndarray, ...]
    config_probs: dict[int, np.ndarray]
    config_sizes: dict[int, np.ndarray]


@lru_cache(maxsize=None)
def _census_tables(params: ModelParams) -> _CensusTables:
    params.require_contagion_assumptions()
    p, q = params.memberships, params.community_sizes
    lam, mu = params.mean_memberships, params.mean_community_size
    xp = child_count_pmf(params)
    tuples = sum(comb(len(xp.support) + w - 2, w - 1) for w in q.support)
    tuples += sum(comb(len(q.support) + d - 2, d - 1) for d in p.support)
    require_enumerable(tuples, "sorted clique and configuration tuples")
    n_types = params.max_child_count + 1
    sizes = np.array(q.support, dtype=np.int64)
    size_index = {int(w): i for i, w in enumerate(sizes)}

    def normalized(raw):
        arr = np.array(raw, dtype=np.float64)
        return arr / arr.sum()

    clique_probs = []
    active_members = []
    all_members = []
    for w in q.support:
        probs = []
        act = []
        full = []
        for members in combinations_with_replacement(xp.support, w - 1):
            probs.append(order_stat_pmf(xp, w - 1, members))
            ell = clique_cascade_size(params.threshold, w, members)
            arr = np.array(members, dtype=np.int64)
            act.append(np.bincount(arr[:ell], minlength=n_types))
            full.append(np.bincount(arr, minlength=n_types))
        clique_probs.append(normalized(probs))
        active_members.append(np.array(act, dtype=np.int64))
        all_members.append(np.array(full, dtype=np.int64))

    sized = Pmf.from_pairs([(w, w * q(w) / mu) for w in q.support], tol=1e-9)
    by_type: dict[int, list[tuple[float, np.ndarray]]] = {}
    for d in p.support:
        weight_d = d * p(d) / lam
        for combo in combinations_with_replacement(q.support, d - 1):
            x = sum(w - 1 for w in combo)
            weight = weight_d * order_stat_pmf(sized, d - 1, combo)
            counts = np.zeros(len(sizes), dtype=np.int64)
            for w in combo:
                counts[size_index[w]] += 1
            by_type.setdefault(x, []).append((weight, counts))
    config_probs = {}
    config_sizes = {}
    for x, weighted in sorted(by_type.items()):
        config_probs[x] = normalized([wt for wt, _ in weighted])
        config_sizes[x] = np.array([c for _, c in weighted], dtype=np.int64)

    return _CensusTables(
        n_types=n_types,
        sizes=sizes,
        root_table=_DrawTable(p),
        size_probs=normalized([w * q(w) / mu for w in q.support]),
        type_probs=normalized([xp(t) for t in range(n_types)]),
        type_values=np.arange(n_types, dtype=np.int64),
        clique_probs=tuple(clique_probs),
        active_members=tuple(active_members),
        all_members=tuple(all_members),
        config_probs=config_probs,
        config_sizes=config_sizes,
    )


def _spread(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row r splits counts[r] over the categories of probs."""
    if probs.shape[0] == 1:
        return counts[:, None]
    return rng.multinomial(counts, probs)


def _resolve_cliques(tables: _CensusTables, cliques_by_size: np.ndarray, rng):
    """Active and total children-by-type of cliques whose parent is active."""
    rows = cliques_by_size.shape[0]
    active = np.zeros((rows, tables.n_types), dtype=np.int64)
    total = np.zeros((rows, tables.n_types), dtype=np.int64)
    for wi in range(tables.sizes.shape[0]):
        counts = cliques_by_size[:, wi]
        if not counts.any():
            continue
        drawn = _spread(rng, counts, tables.clique_probs[wi])
        active += drawn @ tables.active_members[wi]
        total += drawn @ tables.all_members[wi]
    return active, total


def _root_level(tables: _CensusTables, rows: int, rng: np.random.Generator):
    """Active and total depth-1 children-by-type below each of rows roots."""
    cliques_by_size = _spread(rng, tables.root_table.draw(rng, rows), tables.size_probs)
    return _resolve_cliques(tables, cliques_by_size, rng)


def _check_next_level(census: np.ndarray, types: np.ndarray, level: int) -> None:
    """Raise if some replicate's next level could exceed the int64 range.

    types is (0, 1, 2, ...) and a type-x vertex has exactly x children, so
    row r's next level holds census[r] @ types vertices.  Float rounding
    moves that sum by far less than a factor of two, so below 2**62 it
    surely fits and only near the limit is the exact integer sum needed.
    """
    if (census @ types.astype(np.float64)).max() < 2.0**62:
        return
    worst = int((census.astype(object) @ types.astype(object)).max())
    if worst > _INT64_MAX:
        raise CensusOverflow(
            f"level {level + 1} would hold {worst} vertices in one replicate, "
            "beyond the int64 range of the census engine"
        )


def _total(counts: np.ndarray) -> int:
    """Exact sum of at most _BLOCK non-negative int64 counts."""
    if counts.max() < _INT64_MAX // _BLOCK:
        return int(counts.sum())
    return int(counts.sum(dtype=object))


def _census_block(tables: _CensusTables, depth: int, rows: int, rng: np.random.Generator):
    """Advance a block of replicates level by level; returns exact tallies.

    Each row of the (rows, n_types) state is one replicate's census of the
    current level by child-count type.  Returns per-depth vertex and active
    totals over the block as Python ints, and the number of replicates with
    an active vertex, and with any vertex, at the truncation depth.
    """
    vertices = [rows] + [0] * depth
    active_tally = [rows] + [0] * depth
    active, from_active = _root_level(tables, rows, rng)
    inactive = from_active - active
    for level in range(1, depth + 1):
        level_active = active.sum(axis=1)
        level_vertices = level_active + inactive.sum(axis=1)
        vertices[level] = _total(level_vertices)
        active_tally[level] = _total(level_active)
        if level == depth or not vertices[level]:
            break
        _check_next_level(active + inactive, tables.type_values, level)
        cliques_by_size = np.zeros((rows, tables.sizes.shape[0]), dtype=np.int64)
        for x, probs in tables.config_probs.items():
            counts = active[:, x]
            if x and counts.any():
                cliques_by_size += _spread(rng, counts, probs) @ tables.config_sizes[x]
        next_active, from_active = _resolve_cliques(tables, cliques_by_size, rng)
        idle = rng.multinomial(inactive @ tables.type_values, tables.type_probs)
        active, inactive = next_active, (from_active - next_active) + idle
    # an early break leaves all-zero rows, so both counts are then 0
    return (
        vertices,
        active_tally,
        int(np.count_nonzero(level_active)),
        int(np.count_nonzero(level_vertices)),
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
    replicate's level would outgrow int64.
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
    holds a whole block's forest in memory; keep depth moderate for
    supercritical models.
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


def _cumulative(weighted: list[tuple[float, object]]):
    outcomes = [o for _, o in weighted]
    cum = []
    acc = 0.0
    for p, _ in weighted:
        acc += p
        cum.append(acc)
    return cum, outcomes


class ActivationProcess:
    """Generation sampler for the type-annotated activation branching process.

    Matches the graph contagion in law, level by level: the root spawns
    communities from the raw membership law, each community draws a cascade
    outcome from the exact clique law for its size, and every later active
    vertex of type x draws its community sizes from the configuration law
    conditioned on total extra members x.  Tables are enumerated once and
    sampled by inverse cdf.  It draws one replicate per call and serves as
    the scalar reference for the block draws of the census tables.
    """

    def __init__(self, params: ModelParams):
        params.require_contagion_assumptions()
        self.params = params
        q = params.community_sizes
        mu = params.mean_community_size
        lam = params.mean_memberships
        configurations = sum(len(q.support) ** (d - 1) for d in params.memberships.support)
        require_enumerable(configurations, "configurations")

        # largest size first: an oversized clique law fails before any work
        self._outcomes = {}
        for w in reversed(q.support):
            law = clique_outcome_law(params, w)
            ordered = sorted(law.items())
            self._outcomes[w] = _cumulative([(p, o) for o, p in ordered])

        self._root_cliques = _cumulative(
            [(params.memberships(d), d) for d in params.memberships.support]
        )
        self._clique_size = _cumulative([(w * q(w) / mu, w) for w in q.support])

        # configuration law of community sizes given total extra members
        by_type: dict[int, list[tuple[float, tuple[int, ...]]]] = {}
        for d in params.memberships.support:
            if d < 1:
                continue
            weight_d = d * params.memberships(d) / lam
            for sizes in product(q.support, repeat=d - 1):
                x = sum(w - 1 for w in sizes)
                weight = weight_d
                for w in sizes:
                    weight *= w * q(w) / mu
                by_type.setdefault(x, []).append((weight, sizes))
        self._configurations = {}
        for x, weighted in sorted(by_type.items()):
            total = sum(p for p, _ in weighted)
            self._configurations[x] = _cumulative(
                [(p / total, sizes) for p, sizes in weighted]
            )

    @staticmethod
    def _draw(table, rng: np.random.Generator):
        cum, outcomes = table
        idx = bisect_right(cum, rng.random())
        return outcomes[min(idx, len(outcomes) - 1)]

    def _clique_types(self, w: int, rng: np.random.Generator) -> tuple[int, ...]:
        return self._draw(self._outcomes[w], rng).types

    def root_step(self, rng: np.random.Generator) -> dict[int, int]:
        """Types of the active depth-1 vertices below a fresh root."""
        census: dict[int, int] = {}
        d = self._draw(self._root_cliques, rng)
        for _ in range(d):
            w = self._draw(self._clique_size, rng)
            for t in self._clique_types(w, rng):
                census[t] = census.get(t, 0) + 1
        return census

    def step(self, census: dict[int, int], rng: np.random.Generator) -> dict[int, int]:
        """One generation: active vertices by type to active children by type."""
        out: dict[int, int] = {}
        for x in sorted(census):
            copies = census[x]
            if copies < 0:
                raise ValueError("census counts must be non-negative")
            if copies and x not in self._configurations:
                raise ValueError(f"type {x} has zero probability under this model")
            for _ in range(copies):
                for w in self._draw(self._configurations[x], rng):
                    for t in self._clique_types(w, rng):
                        out[t] = out.get(t, 0) + 1
        return out
