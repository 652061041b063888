"""Graph sampler structure, contagion fixpoint, replication, process sampler.

The clique settle is checked against the synchronous-round contagion it
replaced, and the census engine against the per-level loop and the
sorted-tuple engine it replaced and the scalar activation-process sampler;
all four are kept at the end of this file as references.
"""

import gc
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod
from operator import mul
from time import perf_counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cliquecascade import (
    CensusOverflow,
    ConfigInvalid,
    EnumerationTooLarge,
    LocalGraph,
    Pmf,
    SimConfig,
    SimReport,
    Threshold,
    brute_force_clique_law,
    child_count_pmf,
    clique_cascade_size,
    estimate,
    mean_active_of_type,
    mean_matrix,
    run_contagion,
    sample_local_graph,
    survival_by_threshold,
)
from cliquecascade import dist_core, mc_sim
from cliquecascade.clique_dynamics import _walk, mean_active_column
from cliquecascade.dist_core import require_enumerable
from cliquecascade.mc_sim import (
    _BLOCK,
    ActivationProcess,
    _blocks,
    _census_tables,
    _check_next_level,
    _count_vectors,
    _settle,
    _spread,
)
from cliquecascade.verification import (
    branching_root_counts,
    depth1_active_counts,
    histogram_match,
)

from conftest import (
    THETA_GRID,
    UNDERFLOW_MODELS,
    model,
    models,
    order_stat_pmf,
    plan_moves,
    plan_reach,
    standard_model_suite,
)

MIXTURE = model({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "3/10")


class TestSimConfig:
    def test_accepts_valid(self):
        SimConfig(depth=1, replicates=1, seed=0)
        SimConfig(depth=30, replicates=10**5, seed=2**64 - 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(depth=0, replicates=10, seed=1),
            dict(depth=3, replicates=0, seed=1),
            dict(depth=3, replicates=10, seed=-1),
            dict(depth=3, replicates=10, seed=2**64),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigInvalid):
            SimConfig(**kwargs)

    def test_depth_levels_within_the_enumeration_budget(self):
        # estimate keeps one tally entry per level, depth + 1 of them
        SimConfig(depth=dist_core.ENUMERATION_BUDGET - 1, replicates=1, seed=0)
        with pytest.raises(EnumerationTooLarge, match="10000001 depth levels"):
            SimConfig(depth=dist_core.ENUMERATION_BUDGET, replicates=1, seed=0)


class TestSampler:
    def test_triangle_depth_one(self, triangle_model):
        graph = sample_local_graph(triangle_model, 1, np.random.default_rng(0))
        assert graph.n_vertices == 7
        assert graph.clique_size.size == 3
        assert list(np.bincount(graph.depth)) == [1, 6]
        # frontier children all carry the deterministic child count
        assert set(graph.child_count[1:]) == {4}

    def test_path_depth_three(self, path_model):
        # the root joins two pair-communities, so the graph is a two-ended
        # path: two vertices at every positive depth
        graph = sample_local_graph(path_model, 3, np.random.default_rng(0))
        assert list(np.bincount(graph.depth)) == [1, 2, 2, 2]
        assert list(graph.clique_size) == [2] * graph.clique_size.size

    def test_single_membership_single_child(self):
        params = model({1: 1.0}, {2: 1.0}, "1/10")
        graph = sample_local_graph(params, 1, np.random.default_rng(0))
        assert graph.n_vertices == 2

    def test_structure_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            _assert_structure(sample_local_graph(MIXTURE, 3, rng))

    def test_child_counts_in_support(self):
        from cliquecascade import child_count_pmf

        support = set(child_count_pmf(MIXTURE).support)
        rng = np.random.default_rng(11)
        for _ in range(20):
            graph = sample_local_graph(MIXTURE, 2, rng)
            frontier = graph.depth == 2
            assert set(graph.child_count[frontier]) <= support

    def test_rejects_zero_depth(self, triangle_model):
        with pytest.raises(ValueError):
            sample_local_graph(triangle_model, 0, np.random.default_rng(0))

    def test_rejects_zero_roots(self, triangle_model):
        with pytest.raises(ValueError):
            sample_local_graph(triangle_model, 1, np.random.default_rng(0), roots=0)


def _clique_layout(graph):
    """Each clique's first member and parent, derived from clique_of and parent.

    Every clique of the tested models has members, and breadth-first
    numbering gives clique c the id range after clique c - 1's, so a clique
    starts where the members of the cliques before it end and its parent is
    its first member's parent.
    """
    members = graph.clique_size - 1
    assert np.all(members > 0)
    start = graph.n_roots + np.cumsum(members) - members
    return start, graph.parent[start]


def _assert_structure(graph):
    """Breadth-first tree-of-cliques invariants, checked for every vertex and clique."""
    roots = graph.n_roots
    assert np.all(graph.depth[:roots] == 0)
    assert np.all(graph.parent[:roots] == -1)
    assert np.all(graph.tree[:roots] == np.arange(roots))
    assert np.all(np.diff(graph.depth) >= 0)
    members = graph.clique_size - 1
    member_start, clique_parent = _clique_layout(graph)
    owner = np.repeat(np.arange(graph.clique_size.size), members)
    first = np.repeat(member_start, members)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(members) - members, members)
    ids = first + offset
    # every non-root vertex is a member of exactly one clique
    assert np.array_equal(np.sort(ids), np.arange(roots, graph.n_vertices))
    assert np.all(graph.clique_of[ids] == owner)
    assert np.all(graph.parent[ids] == clique_parent[owner])
    assert np.all(graph.depth[ids] == graph.depth[clique_parent[owner]] + 1)
    assert np.all(graph.tree[ids] == graph.tree[clique_parent[owner]])
    # expanded vertices: child count equals members of owned cliques
    owned = np.bincount(clique_parent, weights=members, minlength=graph.n_vertices)
    expanded = graph.depth < graph.truncation_depth
    assert np.all(graph.child_count[expanded] == owned[expanded])


def _tree(forest, t: int) -> LocalGraph:
    """Tree t of a forest as a graph of its own, ids relabelled in order."""
    ids = np.flatnonzero(forest.tree == t)
    cliques = np.unique(forest.clique_of[ids[1:]])
    parent = forest.parent[ids].copy()
    parent[1:] = np.searchsorted(ids, parent[1:])
    clique_of = forest.clique_of[ids].copy()
    clique_of[1:] = np.searchsorted(cliques, clique_of[1:])
    return LocalGraph(
        truncation_depth=forest.truncation_depth,
        depth=forest.depth[ids],
        tree=np.zeros(ids.size, dtype=np.int64),
        parent=parent,
        clique_of=clique_of,
        child_count=forest.child_count[ids],
        active=np.zeros(ids.size, dtype=bool),
        clique_size=forest.clique_size[cliques],
    )


def _single_root_sampler(params, depth, rng):
    """Reference sampler for a single graph: the draws roots=1 must reproduce."""
    child = child_count_pmf(params)
    vdepth, vparent, vclique = [np.zeros(1, int)], [np.full(1, -1)], [np.full(1, -1)]
    vchild, cparent, csize, cstart = [], [], [], []
    next_vertex, next_clique = 1, 0
    level_ids = np.zeros(1, dtype=np.int64)
    for level in range(depth):
        n_here = level_ids.size
        law = params.memberships if level == 0 else params.extra_communities
        counts = law.draw(rng, n_here)
        members = params.extra_members.draw(rng, int(counts.sum()))
        sizes = members + 1
        owner = np.repeat(np.arange(n_here), counts)
        vchild.append(np.bincount(owner, weights=members, minlength=n_here))
        cparent.append(level_ids[owner])
        csize.append(sizes)
        cstart.append(next_vertex + np.concatenate(([0], np.cumsum(members)[:-1]))[: sizes.size])
        n_new = int(members.sum())
        vdepth.append(np.full(n_new, level + 1))
        vparent.append(np.repeat(level_ids[owner], members))
        vclique.append(np.repeat(np.arange(next_clique, next_clique + sizes.size), members))
        level_ids = np.arange(next_vertex, next_vertex + n_new)
        next_vertex += n_new
        next_clique += sizes.size
    vchild.append(child.draw(rng, level_ids.size))
    return {
        "depth": np.concatenate(vdepth),
        "parent": np.concatenate(vparent),
        "clique_of": np.concatenate(vclique),
        "child_count": np.concatenate(vchild),
        "clique_parent": np.concatenate(cparent),
        "clique_size": np.concatenate(csize),
        "member_start": np.concatenate(cstart),
    }


FOREST_MODELS = {
    "mixture": MIXTURE,
    "triangle": model({3: 1.0}, {3: 1.0}, "1/10"),
    "path": model({2: 1.0}, {2: 1.0}, "2/5"),
}


class TestForest:
    @given(
        name=st.sampled_from(sorted(FOREST_MODELS)),
        roots=st.integers(1, 3 * _BLOCK + 1),
        depth=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(name="mixture", roots=3 * _BLOCK + 1, depth=3, seed=0)
    def test_every_tree_is_a_graph_of_its_own(self, name, roots, depth, seed):
        params = FOREST_MODELS[name]
        forest = sample_local_graph(params, depth, np.random.default_rng(seed), roots=roots)
        assert forest.n_roots == roots
        _assert_structure(forest)
        run_contagion(forest, params.threshold)
        per_tree = np.zeros(roots, dtype=np.int64)
        for t in range(roots):
            alone = _tree(forest, t)
            _assert_structure(alone)
            run_contagion(alone, params.threshold)
            assert np.array_equal(alone.active, forest.active[forest.tree == t])
            per_tree[t] = np.bincount(alone.depth[alone.active], minlength=depth + 1)[depth]
        assert np.array_equal(forest.active_per_tree(), per_tree)

    def test_depth1_histogram_counts_every_replicate(self):
        for replicates in (1, _BLOCK, 3 * _BLOCK + 1):
            hist = depth1_active_counts(MIXTURE, replicates, seed=replicates)
            assert sum(hist.values()) == replicates
            assert min(hist) >= 0

    @given(
        name=st.sampled_from(sorted(FOREST_MODELS)),
        depth=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_root_reproduces_single_graph_sampler(self, name, depth, seed):
        params = FOREST_MODELS[name]
        rng = np.random.default_rng(seed)
        graph = sample_local_graph(params, depth, rng, roots=1)
        reference_rng = np.random.default_rng(seed)
        reference = _single_root_sampler(params, depth, reference_rng)
        member_start, clique_parent = _clique_layout(graph)
        derived = {"member_start": member_start, "clique_parent": clique_parent}
        for field, values in reference.items():
            actual = derived[field] if field in derived else getattr(graph, field)
            assert np.array_equal(actual, values), field
        assert np.all(graph.tree == 0)
        # both consumed the same draws
        assert rng.random() == reference_rng.random()


class TestHistograms:
    @pytest.mark.parametrize("sampler", [depth1_active_counts, branching_root_counts])
    @pytest.mark.parametrize("replicates", [0, -1])
    def test_samplers_reject_no_replicates(self, sampler, replicates):
        with pytest.raises(ConfigInvalid):
            sampler(MIXTURE, replicates, seed=1)

    @pytest.mark.parametrize(
        "left, right",
        [({}, {}), ({}, {1: 5}), ({1: 5}, {}), ({0: 0}, {1: 5})],
    )
    def test_match_needs_replicates_on_both_sides(self, left, right):
        with pytest.raises(ValueError):
            histogram_match(left, right)


class TestContagion:
    def test_triangle_all_active(self, triangle_model):
        graph = sample_local_graph(triangle_model, 2, np.random.default_rng(1))
        run_contagion(graph, Threshold(1, 10))
        assert graph.active.all()

    def test_triangle_blocked(self, triangle_model):
        graph = sample_local_graph(triangle_model, 2, np.random.default_rng(1))
        run_contagion(graph, Threshold(3, 10))
        assert graph.active.sum() == 1
        assert graph.active[0]

    def test_path_propagates(self, path_model):
        graph = sample_local_graph(path_model, 4, np.random.default_rng(2))
        run_contagion(graph, Threshold(2, 5))
        assert graph.active.all()

    def test_path_blocked_at_half(self, path_model):
        graph = sample_local_graph(path_model, 4, np.random.default_rng(2))
        run_contagion(graph, Threshold(1, 2))
        assert graph.active.sum() == 1

    def test_active_set_grows_with_lower_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            graph = sample_local_graph(MIXTURE, 3, rng)
            run_contagion(graph, Threshold(2, 5))
            high = graph.active.copy()
            run_contagion(graph, Threshold(1, 5))
            low = graph.active.copy()
            assert np.all(high <= low)


# thresholds for the settle properties: the grid (with 1/2 and 3/5), the grid
# nudged by 10^-e (huge numerators whose floors int64 or float64 get wrong),
# and arbitrary fractions with denominators up to 10^25
LADDER_THRESHOLDS = st.one_of(
    st.sampled_from(THETA_GRID).map(Threshold.from_string),
    st.builds(
        lambda theta, e, sign: Threshold.from_string(str(Fraction(theta) + sign * Fraction(1, 10**e))),
        st.sampled_from(THETA_GRID),
        st.integers(3, 30),
        st.sampled_from((-1, 1)),
    ),
    st.integers(2, 10**25).flatmap(
        lambda den: st.integers(1, den - 1).map(lambda num: Threshold(num, den))
    ),
)


@st.composite
def contagion_forests(draw, memberships=(0, 1, 2, 3), sizes=(1, 2, 3, 4), max_depth=3):
    """(params, depth, seed): zero memberships and size-1 communities allowed."""

    def pmf(values):
        support = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))
        weights = [draw(st.integers(1, 9)) for _ in support]
        return {v: w / sum(weights) for v, w in zip(support, weights)}

    p = pmf(memberships)
    assume(max(p) > 0)
    return model(p, pmf(sizes), "1/2"), draw(st.integers(1, max_depth)), draw(st.integers(0, 2**32 - 1))


class TestSettle:
    @given(
        forest=contagion_forests(),
        roots=st.integers(1, 40),
        ladder=st.lists(LADDER_THRESHOLDS, min_size=1, max_size=5),
    )
    def test_settle_matches_reference_rounds(self, forest, roots, ladder):
        params, depth, seed = forest
        graph = sample_local_graph(params, depth, np.random.default_rng(seed), roots=roots)
        ascending = sorted(ladder, key=lambda t: Fraction(t.numerator, t.denominator))
        counts = _settle(graph, ascending)
        non_root = np.arange(graph.n_roots, graph.n_vertices)
        for k, threshold in enumerate(ascending):
            reference = _reference_rounds(graph, threshold)
            assert np.array_equal(counts > k, reference)
            assert np.array_equal(run_contagion(graph, threshold).active, reference)
            # the fact the settle rests on: activation only flows downward
            assert np.all(reference[graph.parent[non_root[reference[non_root]]]])

    @given(
        forest=contagion_forests(memberships=(1, 2, 3), sizes=(2, 3), max_depth=2),
        replicates=st.integers(1, _BLOCK + 8),
        ladder=st.lists(LADDER_THRESHOLDS, max_size=5),
    )
    def test_survival_matches_reference_rounds(self, forest, replicates, ladder):
        # unsorted and repeated ladders come back in the caller's order
        params, depth, seed = forest
        survived = [0] * len(ladder)
        for rows, rng in _blocks(replicates, seed):
            graph = sample_local_graph(params, depth, rng, roots=rows)
            for i, threshold in enumerate(ladder):
                last = _reference_rounds(graph, threshold) & (graph.depth == depth)
                survived[i] += np.unique(graph.tree[last]).size
        config = SimConfig(depth=depth, replicates=replicates, seed=seed)
        expected = tuple(s / replicates for s in survived)
        assert survival_by_threshold(params, ladder, config) == expected

    def test_root_only_forest(self):
        # no root joins a community, so every tree is its root alone
        params = model({0: 0.5, 1: 0.5}, {1: 1.0}, "1/3")
        graph = sample_local_graph(params, 2, np.random.default_rng(0), roots=5)
        assert graph.n_vertices == 5
        assert list(_settle(graph, [Threshold(1, 3), Threshold(1, 2)])) == [2] * 5
        assert list(_settle(graph, [])) == [0] * 5

    @pytest.mark.parametrize(
        "theta, active",
        # float64 rounding of num * degree, then int64 wrap-around, made the
        # synchronous rounds activate 49 and 1611 vertices here
        [("0.3333333333333333", 150), ("0.4999999999999999999", 49)],
    )
    def test_inexact_thresholds_settle_exactly(self, theta, active):
        params = model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, theta)
        graph = sample_local_graph(params, 3, np.random.default_rng(1), roots=40)
        run_contagion(graph, params.threshold)
        assert np.array_equal(graph.active, _reference_rounds(graph, params.threshold))
        assert int(graph.active.sum()) == active

    @pytest.mark.parametrize("theta", ["0.3333333333333333", "0.4999999999999999999"])
    def test_inexact_thresholds_keep_the_two_routes_together(self, theta):
        # acceptance test 7's two-sample check; the rounds failed it at z = 34
        # and z = 54
        params = model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, theta)
        graph_hist = depth1_active_counts(params, 2000, seed=1)
        ok, worst = histogram_match(graph_hist, branching_root_counts(params, 2000, seed=2), sigmas=4)
        assert ok, worst


# Graph-route outputs recorded before the clique settle replaced the
# synchronous rounds; both give these values, draw for draw.
GRAPH_ROUTE_NUMPY = "2.4.6"
P23_Q23 = ({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5})
PINNED_SURVIVAL = {
    # the benchmark's survival ladder, theta = k/20 for k = 1..10
    "ladder": (
        P23_Q23,
        [f"{k}/20" for k in range(1, 11)],
        SimConfig(depth=3, replicates=1000, seed=7),
        (1.0, 1.0, 1.0, 0.941, 0.323, 0.323, 0.007, 0.007, 0.007, 0.0),
    ),
    # scripts/phase_sweep.py's defaults
    "phase-sweep": (
        ({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}),
        [f"{0.05 * k:.6f}" for k in range(1, 11)],
        SimConfig(depth=3, replicates=2000, seed=7),
        (1.0, 1.0, 0.9825, 0.6575, 0.167, 0.118, 0.002, 0.002, 0.002, 0.0),
    ),
    "unsorted-repeated": (
        P23_Q23,
        ["6/20", "2/20", "6/20", "1/20"],
        SimConfig(depth=3, replicates=300, seed=3),
        (1 / 3, 1.0, 1 / 3, 1.0),
    ),
    "empty": (P23_Q23, [], SimConfig(depth=3, replicates=300, seed=3), ()),
}
# depth1_active_counts(params, 2000, seed=1000 + i) on acceptance test 7's models
PINNED_DEPTH1 = [
    (({3: 1.0}, {3: 1.0}, "1/10"), {6: 2000}),
    (({2: 1.0}, {2: 1.0}, "2/5"), {2: 2000}),
    (({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10"), {1: 1024, 3: 976}),
    (
        ({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "3/10"),
        {0: 769, 1: 594, 2: 385, 3: 172, 4: 62, 5: 17, 6: 1},
    ),
    (({3: 1.0}, {2: 0.3, 4: 0.7}, "1/4"), {0: 1967, 1: 33}),
]
# branching_root_counts(params, 2000, seed=1000 + i) on the same models,
# recorded before the census step plan replaced the per-level loop
PINNED_ROOT_COUNTS = [
    {6: 2000},
    {2: 2000},
    {1: 1024, 3: 976},
    {0: 775, 1: 583, 2: 418, 3: 149, 4: 58, 5: 11, 6: 5, 7: 1},
    {0: 1958, 1: 42},
]


@pytest.mark.skipif(
    np.__version__ != GRAPH_ROUTE_NUMPY,
    reason=f"outputs recorded with numpy {GRAPH_ROUTE_NUMPY}; "
    "the determinism contract covers the same numpy only",
)
class TestPinnedGraphRoute:
    @pytest.mark.parametrize("name", sorted(PINNED_SURVIVAL))
    def test_survival_by_threshold(self, name):
        (p, q), thetas, config, expected = PINNED_SURVIVAL[name]
        params = model(p, q, "1/20")
        ladder = [Threshold.from_string(theta) for theta in thetas]
        assert survival_by_threshold(params, ladder, config) == expected

    @pytest.mark.parametrize("i", range(len(PINNED_DEPTH1)))
    def test_depth1_active_counts(self, i):
        (p, q, theta), expected = PINNED_DEPTH1[i]
        assert depth1_active_counts(model(p, q, theta), 2000, seed=1000 + i) == expected

    @pytest.mark.parametrize("i", range(len(PINNED_ROOT_COUNTS)))
    def test_branching_root_counts(self, i):
        (p, q, theta), _ = PINNED_DEPTH1[i]
        expected = PINNED_ROOT_COUNTS[i]
        assert branching_root_counts(model(p, q, theta), 2000, seed=1000 + i) == expected


class TestEstimate:
    def test_repeat_calls_identical(self):
        config = SimConfig(depth=3, replicates=300, seed=17)
        assert estimate(MIXTURE, config) == estimate(MIXTURE, config)

    def test_seed_matters(self):
        a = estimate(MIXTURE, SimConfig(depth=2, replicates=200, seed=1))
        b = estimate(MIXTURE, SimConfig(depth=2, replicates=200, seed=2))
        assert a != b

    def test_report_shapes(self):
        report = estimate(MIXTURE, SimConfig(depth=4, replicates=50, seed=5))
        assert len(report.mean_active_by_depth) == 5
        assert len(report.mean_vertices_by_depth) == 5
        assert report.mean_vertices_by_depth[0] == 1.0
        assert report.mean_active_by_depth[0] == 1.0
        assert 0.0 <= report.survival_frequency <= 1.0
        assert report.survival_frequency <= report.graph_alive_frequency

    def test_survival_monotone_in_threshold_shared_seed(self):
        # identical graphs per replicate, so monotonicity holds exactly
        config = SimConfig(depth=3, replicates=400, seed=23)
        freqs = survival_by_threshold(
            MIXTURE, [Threshold(j, 20) for j in (2, 4, 6, 8, 9)], config
        )
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))

    def test_survival_blocks_are_forests(self):
        # block b is one forest sampled from spawn_key (b,); a replicate
        # survives when its tree has an active vertex at the last depth
        thresholds = [Threshold(1, 5), Threshold(2, 5)]
        config = SimConfig(depth=2, replicates=_BLOCK + 5, seed=41)
        survived = np.zeros(2, dtype=np.int64)
        for block, rows in enumerate((_BLOCK, 5)):
            rng = np.random.default_rng(np.random.SeedSequence(41, spawn_key=(block,)))
            forest = sample_local_graph(MIXTURE, 2, rng, roots=rows)
            for i, threshold in enumerate(thresholds):
                run_contagion(forest, threshold)
                survived[i] += np.count_nonzero(forest.active_per_tree())
        expected = tuple(survived / config.replicates)
        assert survival_by_threshold(MIXTURE, thresholds, config) == expected

    def test_census_engine_matches_per_vertex_survival(self):
        # the two sampling routes share one law; compare their survival
        # estimates as independent samples
        n = 4000
        census = estimate(MIXTURE, SimConfig(depth=2, replicates=n, seed=5))
        vertexwise = survival_by_threshold(
            MIXTURE, [MIXTURE.threshold], SimConfig(depth=2, replicates=n, seed=6)
        )[0]
        pooled = (census.survival_frequency + vertexwise) / 2
        se = (pooled * (1 - pooled) * 2 / n) ** 0.5
        assert abs(census.survival_frequency - vertexwise) <= 3 * se + 1e-12

    def test_mean_vertices_track_growth_moments(self):
        report = estimate(MIXTURE, SimConfig(depth=3, replicates=6000, seed=29))
        first = MIXTURE.mean_memberships * MIXTURE.extra_members.mean()
        growth = MIXTURE.extra_communities.mean() * MIXTURE.extra_members.mean()
        assert report.mean_vertices_by_depth[0] == 1.0
        for k in (1, 2, 3):
            expected = first * growth ** (k - 1)
            assert report.mean_vertices_by_depth[k] == pytest.approx(expected, rel=0.1)

    def test_depth_one_active_mean_matches_law(self):
        # expected active depth-1 count: communities of the root each convert
        # children according to the clique law, enumerated by brute force
        params = MIXTURE
        mu = params.mean_community_size
        per_community = sum(
            (w * params.community_sizes(w) / mu)
            * sum(o.ell * p for o, p in brute_force_clique_law(params, w).items())
            for w in params.community_sizes.support
        )
        expected = params.mean_memberships * per_community
        report = estimate(params, SimConfig(depth=1, replicates=20000, seed=31))
        assert report.mean_active_by_depth[1] == pytest.approx(expected, abs=0.1)


def _triangle_levels(depth):
    return [1] + [6 * 4 ** (k - 1) for k in range(1, depth + 1)]


def _root_only(depth):
    return [1] + [0] * depth


def _path_levels(depth):
    return [1] + [2] * depth


# Deterministic models: (p, q, threshold), then the per-depth active and
# vertex counts of every replicate, and whether the last depth stays active.
DETERMINISTIC = {
    "triangle-all-active": (
        ({3: 1.0}, {3: 1.0}, "1/10"), _triangle_levels, _triangle_levels, True
    ),
    "triangle-root-only": (
        ({3: 1.0}, {3: 1.0}, "3/10"), _root_only, _triangle_levels, False
    ),
    "path": (({2: 1.0}, {2: 1.0}, "2/5"), _path_levels, _path_levels, True),
}


class TestBlocks:
    @given(
        case=st.sampled_from(sorted(DETERMINISTIC)),
        replicates=st.integers(1, 3 * _BLOCK + 1),
        seed=st.integers(0, 2**64 - 1),
        depth=st.integers(1, 6),
    )
    @example(case="triangle-all-active", replicates=_BLOCK, seed=0, depth=3)
    @example(case="triangle-root-only", replicates=_BLOCK + 1, seed=1, depth=4)
    @example(case="path", replicates=3 * _BLOCK + 1, seed=2, depth=5)
    def test_deterministic_models_exact_for_any_block_split(
        self, case, replicates, seed, depth
    ):
        (p, q, theta), active, vertices, survives = DETERMINISTIC[case]
        report = estimate(
            model(p, q, theta), SimConfig(depth=depth, replicates=replicates, seed=seed)
        )
        assert report.mean_active_by_depth == tuple(map(float, active(depth)))
        assert report.mean_vertices_by_depth == tuple(map(float, vertices(depth)))
        assert report.survival_frequency == (1.0 if survives else 0.0)
        assert report.graph_alive_frequency == 1.0

    def test_triangle_depth_31_exact(self, triangle_model):
        # the last level holds 6 * 4**30 > 2**62 vertices per replicate and
        # the three-replicate total exceeds int64: tallies must not wrap
        report = estimate(triangle_model, SimConfig(depth=31, replicates=3, seed=0))
        assert report.mean_active_by_depth[31] == float(6 * 4**30)
        assert report.mean_vertices_by_depth[31] == float(6 * 4**30)
        assert report.survival_frequency == 1.0

    def test_triangle_depth_32_overflows(self, triangle_model):
        with pytest.raises(CensusOverflow):
            estimate(triangle_model, SimConfig(depth=32, replicates=3, seed=0))


def _expected_active_by_depth(params, depth: int) -> np.ndarray:
    """Root mean vector times M^(d-1), summed over types, for d = 1..depth."""
    matrix = mean_matrix(params).entries
    lam = params.mean_memberships
    mu = params.mean_community_size
    q = params.community_sizes
    vec = np.zeros(matrix.shape[0])
    for x in child_count_pmf(params).support:
        for w in q.support:
            vec[x] += lam * (w * q(w) / mu) * mean_active_of_type(params, x, w)
    expected = []
    for _ in range(depth):
        expected.append(vec.sum())
        vec = vec @ matrix
    return np.array(expected)


class TestCensusMeanMatrixIdentity:
    # K estimates per model, each spanning a full and a partial block; the
    # statistic is Student t with K - 1 = 39 degrees of freedom, and 5.97 is
    # its quantile at the two-sided tail of a 5-sigma normal deviation
    # (5.7e-7).  Fixed before any run; never widen it to pass.
    K = 40
    T_BOUND = 5.97

    @pytest.mark.parametrize(
        "params",
        [
            model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10"),
            # the type-2 configuration table has two rows: one size-3
            # community, or two size-2 communities
            model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/5"),
            MIXTURE,
            model({3: 1.0}, {2: 0.3, 4: 0.7}, "1/6"),
        ],
    )
    def test_pooled_active_census_matches_mean_matrix(self, params):
        depth = 4
        means = np.array([
            estimate(
                params, SimConfig(depth=depth, replicates=3 * _BLOCK // 2, seed=900 + k)
            ).mean_active_by_depth[1:]
            for k in range(self.K)
        ])
        expected = _expected_active_by_depth(params, depth)
        se = means.std(axis=0, ddof=1) / np.sqrt(self.K)
        assert np.all(se > 0.0)
        t = (means.mean(axis=0) - expected) / se
        assert np.all(np.abs(t) <= self.T_BOUND), t

    @pytest.mark.parametrize(
        "params",
        standard_model_suite()
        + [
            model({d: 1 / 3 for d in (2, 3, 4)}, {w: 1 / 6 for w in range(2, 8)}, "1/3"),
            model({d: 1 / 3 for d in (2, 3, 4)}, {w: 1 / 19 for w in range(2, 21)}, "1/5"),
        ],
    )
    def test_configuration_tables_give_mean_matrix_rows(self, params):
        # the exact form of the identity above: each parent type's expected
        # community-size counts, mixed with the per-size mean columns, give
        # its mean-matrix row; types without a configuration table have none.
        # A type with one configuration keeps its sizes as a fixed row.  Only
        # the types within the plan's reach have rows, and no clique
        # activates a type past it
        tables = _census_tables(params)
        reach = plan_reach(tables)
        block = mean_matrix(params).block
        expected = np.zeros_like(block)
        mean_sizes = tables.fixed.astype(float)
        for x, probs, sizes in tables.configs:
            assert probs.size > 1 and not tables.fixed[x].any()
            mean_sizes[x] = probs @ sizes
        for x, row in enumerate(mean_sizes):
            for w, count in zip(params.community_sizes.support, row):
                expected[x] += count * mean_active_column(params, w)
        assert not mean_sizes[reach:].any()
        assert not any(mean_active_column(params, w)[reach:].any() for w in params.community_sizes.support)
        assert np.abs(expected[:reach] - block[:reach]).max(initial=0.0) <= 1e-12


def census_rows(proc, census: dict, rows: int) -> np.ndarray:
    """rows copies of a census given as {type value: active count}."""
    values = proc.type_values.tolist()
    active = np.zeros((rows, len(values)), dtype=np.int64)
    for x, count in census.items():
        active[:, values.index(x)] = count
    return active


def censuses(proc, counts: np.ndarray) -> list[dict]:
    """Each row of a children-by-type array as {type value: count}."""
    return [
        {int(proc.type_values[i]): int(row[i]) for i in np.flatnonzero(row)} for row in counts
    ]


class TestActivationProcess:
    def test_triangle_census_step(self, triangle_model):
        proc = ActivationProcess(triangle_model)
        active, inactive = proc.step(census_rows(proc, {4: 1}, 25), np.random.default_rng(0))
        assert censuses(proc, active) == [{4: 4}] * 25
        assert not inactive.any()

    def test_empty_census_absorbing(self, triangle_model):
        proc = ActivationProcess(triangle_model)
        active, inactive = proc.step(census_rows(proc, {}, 3), np.random.default_rng(0))
        assert not active.any() and not inactive.any()

    def test_path_census_fixed(self, path_model):
        proc = ActivationProcess(path_model)
        active, _ = proc.step(census_rows(proc, {1: 1}, 25), np.random.default_rng(0))
        assert censuses(proc, active) == [{1: 1}] * 25

    @pytest.mark.parametrize("params", UNDERFLOW_MODELS)
    def test_runs_when_top_types_underflow(self, params):
        # the engine lists no configuration of a type child_count_pmf dropped
        assert child_count_pmf(params).support_max < params.max_child_count
        report = estimate(params, SimConfig(depth=3, replicates=300, seed=1))
        # the one random event is the first model's rare size-3 community
        expected = _expected_active_by_depth(params, 3)
        assert np.allclose(report.mean_active_by_depth[1:], expected, rtol=1e-4, atol=0.0)
        roots = branching_root_counts(params, 300, 2)
        assert histogram_match(depth1_active_counts(params, 300, 1), roots)[0]

    def test_engine_is_freed_with_its_model(self):
        # the census engine is kept on its model alone
        params = model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/5")
        estimate(params, SimConfig(depth=2, replicates=10, seed=1))
        engine = weakref.ref(_census_tables(params))
        del params
        gc.collect()
        assert engine() is None

    def test_triangle_root_step(self, triangle_model):
        proc = ActivationProcess(triangle_model)
        active, inactive = proc.root_step(25, np.random.default_rng(0))
        assert censuses(proc, active) == [{4: 6}] * 25
        assert not inactive.any()

    def test_blocked_root_step(self, triangle_model):
        proc = ActivationProcess(triangle_model.with_threshold("3/10"))
        active, inactive = proc.root_step(25, np.random.default_rng(0))
        assert not active.any()
        assert censuses(proc, inactive) == [{4: 6}] * 25

    def test_root_step_skips_an_underflowed_middle_size(self):
        # size 3's size-biased mass, 3 * 5e-324 / 21, rounds to zero: the
        # root spreads over all three census columns with 0.0 in the middle,
        # and draws what the model without size 3 draws
        gapped = ActivationProcess(model({3: 1.0}, {2: 0.5, 3: 5e-324, 40: 0.5}, "1/50"))
        plain = ActivationProcess(model({3: 1.0}, {2: 0.5, 40: 0.5}, "1/50"))
        assert gapped.spread[1] == 0.0
        assert gapped.spread[[0, 2]].tolist() == plain.spread.tolist()
        rngs = [np.random.default_rng(7) for _ in range(2)]
        outs = [proc.root_step(50, rng) for proc, rng in zip((gapped, plain), rngs)]
        assert outs[0][0].any() and outs[0][1].any()
        assert all(np.array_equal(a, b) for a, b in zip(*outs))
        outs = [proc.step(outs[0][0], rng) for proc, rng in zip((gapped, plain), rngs)]
        assert all(np.array_equal(a, b) for a, b in zip(*outs))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_root_step_matches_batched_root_level(self):
        # the scalar process and the census engine's block draw of the root
        # level share one law; 5 sigma per bin over about 25 bins, fixed
        # before any run
        n = 10_000
        models = [
            model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10"),
            MIXTURE,
            model({3: 1.0}, {2: 0.3, 4: 0.7}, "1/4"),
            model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/5"),
        ]
        for i, params in enumerate(models):
            proc = ReferenceActivationProcess(params)
            rng = np.random.default_rng(3000 + i)
            scalar: dict[int, int] = {}
            for _ in range(n):
                k = sum(proc.root_step(rng).values())
                scalar[k] = scalar.get(k, 0) + 1
            batched = branching_root_counts(params, n, seed=4000 + i)
            assert sum(batched.values()) == n
            ok, worst = histogram_match(scalar, batched, sigmas=5.0)
            assert ok, (i, worst)

    def test_step_matches_reference(self):
        # the census engine's next-level step and the scalar reference share
        # one law for every parent type; a bin is one whole census, 5 sigma
        # per bin, fixed before any run
        params = model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/5")
        # a type-2 parent has one size-3 community or two size-2 ones
        assert any(probs.size > 1 for _, probs, _ in _census_tables(params).configs)
        n = 10_000
        engine, reference = ActivationProcess(params), ReferenceActivationProcess(params)
        for x in child_count_pmf(params).support:
            active, _ = engine.step(census_rows(engine, {x: 1}, n), np.random.default_rng(5000 + x))
            rng = np.random.default_rng(6000 + x)
            histograms = [{}, {}]
            for census in censuses(engine, active):
                key = tuple(sorted(census.items()))
                histograms[0][key] = histograms[0].get(key, 0) + 1
            for _ in range(n):
                key = tuple(sorted(reference.step({x: 1}, rng).items()))
                histograms[1][key] = histograms[1].get(key, 0) + 1
            ok, worst = histogram_match(*histograms, sigmas=5.0)
            assert ok, (x, worst)

    def test_enumeration_budget(self):
        # configurations alone: 20^12 ordered size tuples at 13 memberships
        wide = model({13: 1.0}, {w: 1 / 20 for w in range(2, 22)}, "1/10")
        with pytest.raises(EnumerationTooLarge):
            ReferenceActivationProcess(wide)
        # 6859 configurations, but 58^19 child-count tuples in the size-20
        # cube, refused before any smaller size is enumerated
        large = model({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {w: 1 / 19 for w in range(2, 21)}, "1/5")
        with pytest.raises(EnumerationTooLarge):
            ReferenceActivationProcess(large)


def reference_configurations(params) -> dict:
    """Per parent type, (its configuration law weighted by order_stat_pmf, size counts).

    One row of community-size counts per configuration, in sorted-tuple order.
    """
    def size_pmf(w):
        return params.extra_members(w - 1)

    q = params.community_sizes.support
    by_type: dict[int, list] = {}
    for d in params.memberships.support:
        for combo in combinations_with_replacement(q, d - 1):
            weight = params.extra_communities(d - 1) * order_stat_pmf(size_pmf, d - 1, combo)
            counts = [combo.count(w) for w in q]
            by_type.setdefault(sum(w - 1 for w in combo), []).append((weight, counts))
    return {
        x: (np.array([wt for wt, _ in v]) / sum(wt for wt, _ in v), np.array([c for _, c in v]))
        for x, v in by_type.items()
    }


# compare_cli's models whose census draws from configuration tables with several rows
MULTI_ROW = {
    "p23-q23": model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/5"),
    "p247-q234": model({2: 0.3, 4: 0.4, 7: 0.3}, {2: 0.3, 3: 0.3, 4: 0.4}, "1/12"),
}


# p247-q234 at 1/4: only the types 1..5 of 1..18 are ever activated
PRUNED = model({2: 0.3, 4: 0.4, 7: 0.3}, {2: 0.3, 3: 0.3, 4: 0.4}, "1/4")


class TestConfigurationWeights:
    @given(params=models(range(1, 6), range(2, 6), max_points=3))
    @example(params=model({5: 1.0}, {2: 0.5, 3: 0.5}, "1/5"))
    def test_orderings_weights_equal_order_stat_pmf(self, params):
        # the same types and rows in the same order; the weights are formed
        # in log space, so they agree with the product form to rounding (the
        # draws they feed are guarded by the sha256 pins and compare_cli)
        # a type with one configuration draws nothing: its sizes are a fixed
        # row; the tables list the types within the plan's reach alone
        tables = _census_tables(params)
        expected = reference_configurations(params)
        configs = {int(tables.type_values[x]): (probs, sizes) for x, probs, sizes in tables.configs}
        for x in np.flatnonzero(tables.fixed.any(axis=1)):
            configs[int(tables.type_values[x])] = (np.ones(1), tables.fixed[x][None, :])
        within = set(tables.type_values[: plan_reach(tables)].tolist())
        assert set(configs) == (set(expected) - {0}) & within  # type 0 has no communities
        for x, (probs, sizes) in configs.items():
            assert probs == pytest.approx(expected[x][0], rel=1e-12, abs=0.0)
            assert sizes.tolist() == expected[x][1].tolist()

    @given(params=models(range(1, 6), range(2, 7), max_points=3))
    @example(params=PRUNED)
    def test_pruned_table_keeps_the_rows_of_every_type_in_reach(self, params):
        # at 1/(max child count + max size) every type sits on level 0, so
        # nothing is pruned; at theta the types within the plan's reach keep
        # the same rows and bit-identical weights, and no clique activates
        # a type past it
        level_0 = f"1/{params.max_child_count + params.community_sizes.support_max}"
        full = _census_tables(params.with_threshold(Threshold.from_string(level_0)))
        tables = _census_tables(params)
        reach = plan_reach(tables)
        assert plan_reach(full) == full.type_values.size
        assert np.array_equal(tables.fixed[:reach], full.fixed[:reach]) and not tables.fixed[reach:].any()
        kept = [(x, probs.tobytes(), sizes.tolist()) for x, probs, sizes in full.configs if x < reach]
        assert [(x, probs.tobytes(), sizes.tolist()) for x, probs, sizes in tables.configs] == kept
        assert not any(mean_active_column(params, w)[reach:].any() for w in params.community_sizes.support)

    def test_pruned_example_drops_rows(self):
        # guards the property's example: types with several rows are kept,
        # and rows of types past the reach are dropped
        tables = _census_tables(PRUNED)
        assert tables.configs and plan_reach(tables) < tables.type_values.size

    @given(
        total=st.integers(0, 7),
        weights=st.lists(st.integers(0, 5), min_size=1, max_size=4).map(sorted).map(tuple),
        room=st.integers(-1, 40),
    )
    def test_count_vectors_follow_sorted_tuples(self, total, weights, room):
        # one vector per sorted tuple, in the order the tuples are listed;
        # a smaller room keeps exactly the vectors that fit, in that order
        parts = len(weights)
        tuples = combinations_with_replacement(range(parts), total)
        expected = [tuple(t.count(i) for i in range(parts)) for t in tuples]
        assert _count_vectors(total, weights, total * weights[-1]) == expected
        fits = [v for v in expected if sum(map(mul, v, weights)) <= room]
        assert _count_vectors(total, weights, room) == fits

    def test_count_vectors_list_past_the_recursion_limit(self):
        # one vector per weight, in order, however many weights there are
        vectors = _count_vectors(1, tuple(range(1, 1501)), 10**6)
        assert len(vectors) == 1500
        assert vectors[0] == (1,) + (0,) * 1499 and vectors[-1] == (0,) * 1499 + (1,)

    @staticmethod
    def _assert_means_match_marginal(params):
        # E[n_w | X = x] from the table against the configuration marginal
        # the mean matrix mixes, communities[i, w], for the types within the
        # plan's reach; no clique activates the others
        tables = _census_tables(params)
        reach = plan_reach(tables)
        xp = child_count_pmf(params)
        communities = mean_matrix(params).communities
        means = tables.fixed.astype(float)
        for x, probs, sizes in tables.configs:
            means[x] = probs @ sizes
        assert not means[reach:].any()
        assert not any(mean_active_column(params, w)[reach:].any() for w in params.community_sizes.support)
        for i, x in enumerate(xp.support[:reach]):
            for j, w in enumerate(params.community_sizes.support):
                assert means[i, j] == pytest.approx(communities[i, j], rel=1e-9, abs=0.0), (x, w)

    @given(params=models(range(1, 6), range(2, 6), max_points=3))
    @example(params=MIXTURE)
    @example(params=model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10"))  # the census_deep benchmark model
    def test_table_means_match_configuration_marginal(self, params):
        self._assert_means_match_marginal(params)

    @pytest.mark.parametrize("name", sorted(MULTI_ROW))
    def test_multi_row_means_match_configuration_marginal(self, name):
        assert _census_tables(MULTI_ROW[name]).configs  # the means mix several rows
        self._assert_means_match_marginal(MULTI_ROW[name])

    def test_wide_membership_table(self):
        # 60,787 configurations of 351 further communities: each must cost
        # O(|q|) steps, not O(d) (17 s); the bound is fixed before any run.
        # At 1/1500 every type, up to 1,404, sits on level 0, so every row is listed
        params = model({352: 1.0}, {2: 0.066, 3: 0.584, 5: 0.35}, "1/1500")
        start = perf_counter()
        tables = ActivationProcess(params)
        assert perf_counter() - start < 3.0
        assert len(tables.configs) == 959
        assert sum(sizes.shape[0] for _, _, sizes in tables.configs) == 60_787
        members = np.array([w - 1 for w in params.community_sizes.support])
        for x, probs, sizes in tables.configs:
            assert (sizes.sum(axis=1) == 351).all()
            assert (sizes @ members == tables.type_values[x]).all()
            assert probs.sum() == pytest.approx(1.0, rel=1e-12)


def _cumulative(weighted: list[tuple[float, object]]):
    outcomes = [o for _, o in weighted]
    cum = []
    acc = 0.0
    for p, _ in weighted:
        acc += p
        cum.append(acc)
    return cum, outcomes


def _reference_rounds(graph, threshold) -> np.ndarray:
    """Activate from the roots by synchronous rounds until nothing changes.

    The literal contagion rule, kept as the reference for mc_sim._settle:
    every round, every inactive vertex compares its active neighbours (clique
    co-members, parent and children) with threshold * degree, cross-
    multiplied in Python ints so that no numerator can round or wrap.
    """
    n, roots = graph.n_vertices, graph.n_roots
    active = np.zeros(n, dtype=bool)
    active[:roots] = True
    co, par = graph.clique_of[roots:], graph.parent[roots:]
    degree = (graph.clique_size[co] - 1) + graph.child_count[roots:]
    rhs = degree.astype(object) * threshold.numerator
    rest = active[roots:]
    while True:
        neighbours = (
            np.bincount(co[rest], minlength=graph.clique_size.size)[co]
            - rest
            + active[par]
            + np.bincount(par[rest], minlength=n)[roots:]
        )
        newly = (neighbours.astype(object) * threshold.denominator > rhs).astype(bool) & ~rest
        if not newly.any():
            return active
        rest[newly] = True


class ReferenceActivationProcess:
    """Scalar generation sampler for the type-annotated activation process.

    The scalar reference for the census engine mc_sim.ActivationProcess:
    the root spawns communities from the raw membership law, each community
    draws a cascade outcome from the brute-force clique law for its size, and every
    later active vertex of type x draws its community sizes from the
    configuration law conditioned on total extra members x, enumerated over
    ordered size tuples.  Tables are enumerated once and sampled by inverse
    cdf, one replicate per call.
    """

    def __init__(self, params):
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
            law = brute_force_clique_law(params, w)
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
    def _draw(table, rng):
        cum, outcomes = table
        idx = bisect_right(cum, rng.random())
        return outcomes[min(idx, len(outcomes) - 1)]

    def _clique_types(self, w, rng):
        return self._draw(self._outcomes[w], rng).types

    def root_step(self, rng):
        """Types of the active depth-1 vertices below a fresh root."""
        census: dict[int, int] = {}
        d = self._draw(self._root_cliques, rng)
        for _ in range(d):
            w = self._draw(self._clique_size, rng)
            for t in self._clique_types(w, rng):
                census[t] = census.get(t, 0) + 1
        return census

    def step(self, census, rng):
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


# Reference census engine: sorted-tuple clique tables and their level loop.
# One category per sorted child-count tuple, all members of every clique
# resolved through an int64 product.


@dataclass(frozen=True)
class _TupleTables:
    n_types: int
    root_table: Pmf
    size_probs: np.ndarray
    type_probs: np.ndarray
    type_values: np.ndarray
    clique_probs: tuple
    active_members: tuple
    all_members: tuple
    config_probs: dict
    config_sizes: dict


@lru_cache(maxsize=None)
def reference_tuple_tables(params) -> _TupleTables:
    params.require_contagion_assumptions()
    p, q = params.memberships, params.community_sizes
    lam, mu = params.mean_memberships, params.mean_community_size
    xp = child_count_pmf(params)
    tuples = sum(comb(len(xp.support) + w - 2, w - 1) for w in q.support)
    tuples += sum(comb(len(q.support) + d - 2, d - 1) for d in p.support)
    require_enumerable(tuples, "sorted clique and configuration tuples")
    n_types = params.max_child_count + 1
    size_index = {w: i for i, w in enumerate(q.support)}

    def normalized(raw):
        arr = np.array(raw, dtype=np.float64)
        return arr / arr.sum()

    clique_probs, active_members, all_members = [], [], []
    for w in q.support:
        probs, act, full = [], [], []
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
    by_type = {}
    for d in p.support:
        for combo in combinations_with_replacement(q.support, d - 1):
            weight = d * p(d) / lam * order_stat_pmf(sized, d - 1, combo)
            counts = np.zeros(len(q.support), dtype=np.int64)
            for w in combo:
                counts[size_index[w]] += 1
            by_type.setdefault(sum(w - 1 for w in combo), []).append((weight, counts))
    return _TupleTables(
        n_types=n_types,
        root_table=p,
        size_probs=normalized([w * q(w) / mu for w in q.support]),
        type_probs=normalized([xp(t) for t in range(n_types)]),
        type_values=np.arange(n_types, dtype=np.int64),
        clique_probs=tuple(clique_probs),
        active_members=tuple(active_members),
        all_members=tuple(all_members),
        config_probs={x: normalized([wt for wt, _ in v]) for x, v in sorted(by_type.items())},
        config_sizes={x: np.array([c for _, c in v]) for x, v in sorted(by_type.items())},
    )


def _reference_resolve(tables, cliques_by_size, rng):
    rows = cliques_by_size.shape[0]
    active = np.zeros((rows, tables.n_types), dtype=np.int64)
    total = np.zeros((rows, tables.n_types), dtype=np.int64)
    for wi in range(cliques_by_size.shape[1]):
        counts = cliques_by_size[:, wi]
        if not counts.any():
            continue
        drawn = _spread(rng, counts, tables.clique_probs[wi])
        active += drawn @ tables.active_members[wi]
        total += drawn @ tables.all_members[wi]
    return active, total


def _reference_block(tables, depth, rows, rng):
    vertices = [rows] + [0] * depth
    active_tally = [rows] + [0] * depth
    cliques_by_size = _spread(rng, tables.root_table.draw(rng, rows), tables.size_probs)
    active, from_active = _reference_resolve(tables, cliques_by_size, rng)
    inactive = from_active - active
    for level in range(1, depth + 1):
        level_active = active.sum(axis=1)
        level_vertices = level_active + inactive.sum(axis=1)
        vertices[level] = int(level_vertices.sum(dtype=object))
        active_tally[level] = int(level_active.sum(dtype=object))
        if level == depth or not vertices[level]:
            break
        _check_next_level(active + inactive, tables.type_values, level)
        cliques_by_size = np.zeros_like(cliques_by_size)
        for x, probs in tables.config_probs.items():
            counts = active[:, x]
            if x and counts.any():
                cliques_by_size += _spread(rng, counts, probs) @ tables.config_sizes[x]
        next_active, from_active = _reference_resolve(tables, cliques_by_size, rng)
        idle = rng.multinomial(inactive @ tables.type_values, tables.type_probs)
        active, inactive = next_active, (from_active - next_active) + idle
    return (
        vertices,
        active_tally,
        int(np.count_nonzero(level_active)),
        int(np.count_nonzero(level_vertices)),
    )


def reference_estimate(params, config):
    """estimate's report, computed by the reference engine."""
    tables = reference_tuple_tables(params)
    vertices = [0] * (config.depth + 1)
    active = [0] * (config.depth + 1)
    survived = alive = 0
    for rows, rng in _blocks(config.replicates, config.seed):
        vc, ac, s, a = _reference_block(tables, config.depth, rows, rng)
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


# Reference census step: the per-level dict loop the compiled step plan
# replaced.  Its tables list every walk state's moves and every type's
# configuration law, and the loop draws through _spread, skipping a state
# or a run whose counts are all zero.


def reference_walk_levels(params, clique_size):
    """Level m as (moves, on, above): (i, probs, (placed, left) rows, onward pairs) per state."""
    xp, n = child_count_pmf(params), clique_size - 1
    level = np.array([params.threshold.floor_times(x + n) for x in xp.support])

    def run(types):
        return types, xp.probs[types] / xp.probs[types].sum()

    levels = []
    for m, moves in _walk(params, clique_size):
        lo, hi = np.searchsorted(level, [m, m + 1])
        states = []
        for i, steps in moves.items():
            probs = np.array([p for _, p, _ in steps])
            members = np.array([(j - i, 0 if live else n - j) for j, _, live in steps], dtype=np.int64)
            onward = tuple((col, j) for col, (j, _, live) in enumerate(steps) if live)
            states.append((i, probs / probs.sum(), members, onward))
        levels.append((tuple(states), run(slice(lo, hi)), run(slice(hi, None))))
    return tuple(levels)


class ReferenceCensusStep:
    """root_step and step of the census engine as one dict loop per level."""

    def __init__(self, params):
        self.params = params
        self.type_values = child_count_pmf(params).values
        self.cliques = [reference_walk_levels(params, w) for w in params.community_sizes.support]
        index = {x: i for i, x in enumerate(self.type_values.tolist())}
        self.configs = [
            (index[x], probs, sizes)
            for x, (probs, sizes) in sorted(reference_configurations(params).items())
            if x > 0 and x in index
        ]

    def resolve(self, cliques_by_size, rng):
        shape = (cliques_by_size.shape[0], self.type_values.size)
        active, inactive = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
        for wi, levels in enumerate(self.cliques):
            alive = {0: cliques_by_size[:, wi]}
            for moves, on, above in levels:
                placed, after = np.zeros((shape[0], 2), dtype=np.int64), {}
                for i, probs, members, onward in moves:
                    counts = alive.get(i)
                    if counts is None or not counts.any():
                        continue
                    drawn = _spread(rng, counts, probs)
                    placed += drawn @ members
                    for col, j in onward:
                        after[j] = after.get(j, 0) + drawn[:, col]
                for run, target, count in zip((on, above), (active, inactive), placed.T):
                    if count.any():
                        types, probs = run
                        target[:, types] += _spread(rng, count, probs)
                if not after:
                    break
                alive = after
        return active, inactive

    def root_step(self, rows, rng):
        communities = self.params.memberships.draw(rng, rows)
        return self.resolve(_spread(rng, communities, self.params.extra_members.probs), rng)

    def step(self, active, rng):
        cliques_by_size = np.zeros((active.shape[0], len(self.cliques)), dtype=np.int64)
        for x, probs, sizes in self.configs:
            cliques_by_size += _spread(rng, active[:, x], probs) @ sizes
        return self.resolve(cliques_by_size, rng)


def _multinomial_law(count, probs):
    """Exact law of multinomial(count, probs) as {counts tuple: probability}."""
    law = {}
    for combo in combinations_with_replacement(range(len(probs)), count):
        counts = np.bincount(combo, minlength=len(probs)).astype(int)
        ways = factorial(count) // prod(factorial(int(k)) for k in counts)
        law[tuple(counts)] = ways * prod(float(p) ** int(k) for p, k in zip(probs, counts))
    return law


def _spread_law(partial, prob, count, run, is_active, type_values):
    """Each outcome of partial, times prob, with count members spread over run."""
    if not count:
        return {key: p0 * prob for key, p0 in partial.items()}
    types, probs = run
    grown = {}
    for (act, tot), p0 in partial.items():
        for drawn, p1 in _multinomial_law(count, probs).items():
            add = np.zeros(len(act), dtype=int)
            add[type_values[types]] = drawn
            key = (tuple(np.add(act, add * is_active)), tuple(np.add(tot, add)))
            grown[key] = grown.get(key, 0.0) + p0 * prob * p1
    return grown


def level_table_law(levels, type_values):
    """Law of (active-by-type, total-by-type) that one size's walk plan induces."""
    zero = (0,) * (int(type_values[-1]) + 1)
    alive, law = {0: {(zero, zero): 1.0}}, {}
    for states, runs in levels:
        on, above = ({key: (types, probs) for key, types, probs in runs}[key] for key in ("on", "above"))
        after = {}
        for i, probs, members, targets in map(plan_moves, states):
            for col, (placed, left) in enumerate(members.tolist()):
                grown = _spread_law(alive[i], probs[col], placed, on, True, type_values)
                grown = _spread_law(grown, 1.0, left, above, False, type_values)
                into = after.setdefault(targets[col], {}) if col in targets else law
                for key, p in grown.items():
                    into[key] = into.get(key, 0.0) + p
        alive = after
    return law


def tuple_table_law(tables, wi):
    law = {}
    for prob, act, full in zip(
        tables.clique_probs[wi], tables.active_members[wi], tables.all_members[wi]
    ):
        key = (tuple(act.tolist()), tuple(full.tolist()))
        law[key] = law.get(key, 0.0) + float(prob)
    return law


def max_moves(params):
    """The most moves out of one alive state in any community size's walk."""
    levels = _census_tables(params).cliques
    return max(plan_moves(state)[1].size for walk in levels for states, _ in walk for state in states)


# Models in which no alive state of any community size has two moves, so the
# two engines consume the same draws: (params, depth, replicates, seed).
SINGLE_PATH = {
    "census-deep": (model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10"), 30, 2 * _BLOCK + 3, 61),
    "triangle": (model({3: 1.0}, {3: 1.0}, "1/10"), 8, _BLOCK + 1, 62),
    "path": (model({2: 1.0}, {2: 1.0}, "2/5"), 12, 3 * _BLOCK, 63),
}
# q = {40: 1}: 307 walk states, but 1.3e9 positive-probability stop paths
WIDE_CLIQUE = model({d: 0.1 for d in range(1, 11)}, {40: 1.0}, "1/40")


# p={1:.5,3:.5}, q={10:1} at 1/10: child counts 0 and 18 sit on levels 0 and 2
# of a size-10 clique, so level 1's states have one move that keeps them
# alive, and level 2's place several members each
GAPPED_LEVELS = model({1: 0.5, 3: 0.5}, {10: 1.0}, "1/10")


class TestZeroCountDraws:
    # the census step plan draws without gating zero counts; every report
    # stays byte-identical only while numpy keeps these facts, so a numpy
    # that breaks one fails here
    def test_zero_counts_leave_the_generator_state(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        rng.multinomial(np.zeros(5, dtype=np.int64), [0.2, 0.3, 0.5])
        rng.multinomial(np.array([0, 4, 9]), [1.0])
        _spread(rng, np.array([0, 4, 9]), np.ones(1))
        rng.random(0)
        assert rng.bit_generator.state == state
        rng.multinomial(np.array([0, 1]), [0.5, 0.5])
        assert rng.bit_generator.state != state

    def test_zero_rows_draw_nothing(self):
        mixed, dense = np.random.default_rng(8), np.random.default_rng(8)
        drawn = mixed.multinomial(np.array([0, 5, 0, 3, 0]), [0.2, 0.3, 0.5])
        assert not drawn[::2].any()
        assert drawn[1::2].tolist() == dense.multinomial(np.array([5, 3]), [0.2, 0.3, 0.5]).tolist()
        assert mixed.bit_generator.state == dense.bit_generator.state


class TestStepPlan:
    @given(
        params=models(range(1, 5), range(2, 7), max_points=3),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(params=MIXTURE, rows=_BLOCK, seed=0)
    @example(params=model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4"), rows=64, seed=1)
    @example(params=GAPPED_LEVELS, rows=64, seed=2)
    @example(params=WIDE_CLIQUE, rows=16, seed=3)
    def test_plan_draws_what_the_reference_loop_draws(self, params, rows, seed):
        # root_step, then step on the root census and on a random census with
        # every other row empty: equal arrays, and the two generators end in
        # the same state.  step is fed only its own active output, which never
        # holds a type past the plan's reach, so the random census has none
        engine, reference = _census_tables(params), ReferenceCensusStep(params)
        reach = plan_reach(engine)
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        outs = [proc.root_step(rows, rng) for proc, rng in zip((engine, reference), rngs)]
        census = np.random.default_rng(seed + 1).integers(0, 3, size=(rows, engine.type_values.size))
        census[::2], census[:, reach:] = 0, 0
        for active in (outs[1][0], census):
            assert all(np.array_equal(a, b) for a, b in zip(*outs))
            assert not outs[0][0][:, reach:].any()
            outs = [proc.step(active, rng) for proc, rng in zip((engine, reference), rngs)]
        assert all(np.array_equal(a, b) for a, b in zip(*outs))
        assert not outs[0][0][:, reach:].any()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_gapped_levels_have_one_move_states_that_go_on(self):
        # guards the property's example: single moves that keep a state alive,
        # and single moves that place several members at once
        walks = _census_tables(GAPPED_LEVELS).cliques
        states = [plan_moves(state) for walk in walks for level, _ in walk for state in level]
        single = [(members, onward) for _, probs, members, onward in states if probs.size == 1]
        assert any(onward for _, onward in single)
        assert any(members[0, 0] > 1 for members, _ in single)


class TestLevelEngine:
    @given(params=models(range(1, 4), range(2, 6), max_points=3))
    @example(params=MIXTURE)
    @example(params=model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4"))
    def test_level_tables_induce_the_tuple_law(self, params):
        tables = _census_tables(params)
        reference = reference_tuple_tables(params)
        for wi, levels in enumerate(tables.cliques):
            law = level_table_law(levels, tables.type_values)
            expected = tuple_table_law(reference, wi)
            for key in set(law) | set(expected):
                assert abs(law.get(key, 0.0) - expected.get(key, 0.0)) <= 1e-12, key

    @pytest.mark.parametrize(
        "params",
        [model({1: 0.5, 3: 0.5}, {6: 1.0}, "1/10"), model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/10")],
    )
    def test_resolved_cliques_follow_the_level_law(self, params):
        # one clique of the largest size per row; its walk keeps up to four
        # moves of one state alive, so every route through the states is
        # drawn.  5.5 sigma per bin, fixed before any run.
        tables, rows = _census_tables(params), 20_000
        law = level_table_law(tables.cliques[-1], tables.type_values)
        cliques = np.zeros((rows, len(tables.cliques)), dtype=np.int64)
        cliques[:, -1] = 1
        active, inactive = tables._resolve_cliques(cliques, np.random.default_rng(11))

        def by_value(row):
            out = np.zeros(int(tables.type_values[-1]) + 1, dtype=np.int64)
            out[tables.type_values] = row
            return tuple(out.tolist())

        seen: dict = {}
        for act, tot in zip(active, active + inactive):
            key = (by_value(act), by_value(tot))
            seen[key] = seen.get(key, 0) + 1
        assert set(seen) <= {key for key, p in law.items() if p > 0.0}
        for key, p in law.items():
            se = (p * (1.0 - p) / rows) ** 0.5
            assert abs(seen.get(key, 0) / rows - p) <= 5.5 * se + 1e-12, key

    @pytest.mark.parametrize("name", sorted(SINGLE_PATH))
    def test_single_path_models_match_reference_engine(self, name):
        params, depth, replicates, seed = SINGLE_PATH[name]
        assert max_moves(params) == 1
        for k in range(3):
            config = SimConfig(depth=depth, replicates=replicates, seed=seed + 100 * k)
            assert estimate(params, config) == reference_estimate(params, config)

    def test_multi_move_model_has_a_state_with_several_moves(self):
        # guards the law property against tables that never branch
        assert max_moves(model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4")) > 1

    def test_wide_clique_builds_its_tables(self):
        tables = _census_tables(WIDE_CLIQUE)
        assert len(tables.cliques) == 1
        assert max_moves(WIDE_CLIQUE) > 1

    def test_configuration_tuples_refused_before_listing(self):
        # p = {12: 1}, q uniform 2..20: C(29, 11) = 34,597,290 configuration tuples,
        # all within the walks' reach at 1/1000, where every type sits on level 0
        params = model({12: 1.0}, {w: 1 / 19 for w in range(2, 21)}, "1/1000")
        assert comb(29, 11) == 34_597_290
        timings = []
        for _ in range(3):
            started = perf_counter()
            with pytest.raises(EnumerationTooLarge, match="34597290 configuration tuples"):
                _census_tables(params)
            timings.append(perf_counter() - started)
        assert min(timings) < 1e-3

    @given(params=models(range(1, 8), range(2, 8), max_points=3))
    @example(params=model({12: 1.0}, {w: 1 / 19 for w in range(2, 21)}, "1/10"))  # no type in reach
    @example(params=model({3: 0.5, 5: 0.5}, {2: 0.5, 6: 0.5}, "1/1000"))  # every type in reach
    def test_configuration_price_bounds_the_rows_listed(self, params):
        # the price is at least the vectors _count_vectors lists over all
        # memberships, and at most the count over every size
        prices, listed = [], []

        def price(count, what):
            if what == "configuration tuples":
                prices.append(count)
            return require_enumerable(count, what)

        def count_vectors(*args):
            listed.append(len(vectors := _count_vectors(*args)))
            return vectors

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc_sim, "require_enumerable", price)
            patch.setattr(mc_sim, "_count_vectors", count_vectors)
            ActivationProcess(params)
        sizes = len(params.community_sizes.support)
        assert len(prices) == 1 and len(listed) == len(params.memberships.support)
        assert sum(listed) <= prices[0] <= sum(comb(sizes + d - 2, d - 1) for d in params.memberships.support)

    def test_large_communities_run(self):
        # p uniform {2,3,4}, q uniform 2..20: about 3e17 sorted clique tuples
        params = model({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {w: 1 / 19 for w in range(2, 21)}, "1/5")
        report = estimate(params, SimConfig(depth=10, replicates=2 * _BLOCK, seed=7))
        assert report.mean_vertices_by_depth[0] == 1.0
        assert report.survival_frequency <= report.graph_alive_frequency


class TestForestBudget:
    def test_oversized_forest_raises(self, monkeypatch):
        # the triangle at 1/10 grows fourfold per level: 256 trees of depth 4
        # hold 256 * 511 vertices
        monkeypatch.setattr(dist_core, "ENUMERATION_BUDGET", 100_000)
        params = model({3: 1.0}, {3: 1.0}, "1/10")
        config = SimConfig(depth=4, replicates=_BLOCK, seed=1)
        with pytest.raises(EnumerationTooLarge, match="forest vertices"):
            survival_by_threshold(params, [params.threshold], config)
        # one level less fits: 256 * 127 vertices
        shallow = SimConfig(depth=3, replicates=_BLOCK, seed=1)
        assert survival_by_threshold(params, [params.threshold], shallow) == (1.0,)
