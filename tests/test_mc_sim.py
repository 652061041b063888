"""Graph sampler structure, contagion fixpoint, replication, process sampler.

The census engine is checked against the sorted-tuple engine it replaced and
against the scalar activation-process sampler, both kept at the end of this
file as references.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import example, given
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
    child_count_pmf,
    clique_outcome_law,
    estimate,
    mean_active_of_type,
    mean_matrix,
    run_contagion,
    sample_local_graph,
    survival_by_threshold,
)
from cliquecascade import clique_dynamics, mc_sim
from cliquecascade.clique_dynamics import clique_cascade_size, require_enumerable
from cliquecascade.mc_sim import (
    _BLOCK,
    ActivationProcess,
    _DrawTable,
    _blocks,
    _census_tables,
    _check_next_level,
    _laws,
    _spread,
)
from cliquecascade.verification import (
    branching_root_counts,
    depth1_active_counts,
    histogram_match,
)

from conftest import model, models, order_stat_pmf

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


class TestSampler:
    def test_triangle_depth_one(self, triangle_model):
        graph = sample_local_graph(triangle_model, 1, np.random.default_rng(0))
        assert graph.n_vertices == 7
        assert graph.n_cliques == 3
        assert list(graph.vertices_by_depth()) == [1, 6]
        # frontier children all carry the deterministic child count
        assert set(graph.child_count[1:]) == {4}

    def test_path_depth_three(self, path_model):
        # the root joins two pair-communities, so the graph is a two-ended
        # path: two vertices at every positive depth
        graph = sample_local_graph(path_model, 3, np.random.default_rng(0))
        assert list(graph.vertices_by_depth()) == [1, 2, 2, 2]
        assert list(graph.clique_size) == [2] * graph.n_cliques

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
    owner = np.repeat(np.arange(graph.n_cliques), members)
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
    root_table, extra_table, member_table, child_table = _laws(params)
    vdepth, vparent, vclique = [np.zeros(1, int)], [np.full(1, -1)], [np.full(1, -1)]
    vchild, cparent, csize, cstart = [], [], [], []
    next_vertex, next_clique = 1, 0
    level_ids = np.zeros(1, dtype=np.int64)
    for level in range(depth):
        n_here = level_ids.size
        table = root_table if level == 0 else extra_table
        counts = table.draw(rng, n_here)
        members = member_table.draw(rng, int(counts.sum()))
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
    vchild.append(child_table.draw(rng, level_ids.size))
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
            per_tree[t] = alone.active_by_depth()[depth]
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
        # children according to the exact clique law
        params = MIXTURE
        mu = params.mean_community_size
        per_community = sum(
            (w * params.community_sizes(w) / mu)
            * sum(o.ell * p for o, p in clique_outcome_law(params, w).items())
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


class TestActivationProcess:
    def test_triangle_census_step(self, triangle_model):
        proc = ActivationProcess(triangle_model)
        rng = np.random.default_rng(0)
        for _ in range(25):
            assert proc.step({4: 1}, rng) == {4: 4}

    def test_empty_census_absorbing(self, triangle_model):
        proc = ActivationProcess(triangle_model)
        assert proc.step({}, np.random.default_rng(0)) == {}

    def test_path_census_fixed(self, path_model):
        proc = ActivationProcess(path_model)
        rng = np.random.default_rng(0)
        for _ in range(25):
            assert proc.step({1: 1}, rng) == {1: 1}

    def test_triangle_root_step(self, triangle_model):
        proc = ActivationProcess(triangle_model)
        rng = np.random.default_rng(0)
        assert proc.root_step(rng) == {4: 6}

    def test_blocked_root_step(self, triangle_model):
        proc = ActivationProcess(triangle_model.with_threshold("3/10"))
        assert proc.root_step(np.random.default_rng(0)) == {}

    def test_rejects_negative_census(self, triangle_model):
        proc = ActivationProcess(triangle_model)
        with pytest.raises(ValueError):
            proc.step({4: -1}, np.random.default_rng(0))

    def test_rejects_impossible_type(self, triangle_model):
        proc = ActivationProcess(triangle_model)
        with pytest.raises(ValueError):
            proc.step({3: 1}, np.random.default_rng(0))

    def test_root_step_matches_batched_root_level(self):
        # the scalar process and the census tables' block draw of the root
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
        assert _census_tables(params).varied_sizes
        n = 10_000
        view, reference = ActivationProcess(params), ReferenceActivationProcess(params)
        for x in child_count_pmf(params).support:
            histograms = []
            for proc, seed in ((view, 5000 + x), (reference, 6000 + x)):
                rng = np.random.default_rng(seed)
                hist: dict = {}
                for _ in range(n):
                    key = tuple(sorted(proc.step({x: 1}, rng).items()))
                    hist[key] = hist.get(key, 0) + 1
                histograms.append(hist)
            ok, worst = histogram_match(*histograms, sigmas=5.0)
            assert ok, (x, worst)

    def test_enumeration_budget(self):
        # configurations alone: 20^12 ordered size tuples at 13 memberships
        wide = model({13: 1.0}, {w: 1 / 20 for w in range(2, 22)}, "1/10")
        with pytest.raises(EnumerationTooLarge):
            ReferenceActivationProcess(wide)
        # 6859 configurations, but about 3e17 sorted clique tuples at size 20,
        # refused before any smaller size is enumerated
        large = model({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {w: 1 / 19 for w in range(2, 21)}, "1/5")
        with pytest.raises(EnumerationTooLarge):
            ReferenceActivationProcess(large)


def reference_configurations(params) -> dict:
    """Per parent type, its configuration law weighted by order_stat_pmf."""
    laws = _laws(params)

    def size_pmf(w):
        return laws.members.pmf(w - 1)

    by_type: dict[int, list[float]] = {}
    for d in params.memberships.support:
        for combo in combinations_with_replacement(params.community_sizes.support, d - 1):
            weight = laws.extra.pmf(d - 1) * order_stat_pmf(size_pmf, d - 1, combo)
            by_type.setdefault(sum(w - 1 for w in combo), []).append(weight)
    return {x: np.array(v) / np.array(v).sum() for x, v in by_type.items()}


class TestConfigurationWeights:
    @given(params=models(range(1, 6), range(2, 6), max_points=3))
    @example(params=model({5: 1.0}, {2: 0.5, 3: 0.5}, "1/5"))
    def test_orderings_weights_equal_order_stat_pmf(self, params):
        # exact equality: the census draws from these floats, so any change
        # in them would change every multi-configuration report
        tables = _census_tables(params)
        expected = reference_configurations(params)
        varied = {int(tables.type_values[x]): probs for x, probs, _ in tables.varied_sizes}
        assert set(varied) == {x for x, probs in expected.items() if probs.size > 1}
        for x, probs in varied.items():
            assert probs.tolist() == expected[x].tolist()


def _cumulative(weighted: list[tuple[float, object]]):
    outcomes = [o for _, o in weighted]
    cum = []
    acc = 0.0
    for p, _ in weighted:
        acc += p
        cum.append(acc)
    return cum, outcomes


class ReferenceActivationProcess:
    """Scalar generation sampler for the type-annotated activation process.

    The scalar reference for the census tables and mc_sim.ActivationProcess:
    the root spawns communities from the raw membership law, each community
    draws a cascade outcome from the exact clique law for its size, and every
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


# Reference census engine: the sorted-tuple clique tables and level loop that
# the stop-path engine replaced.  One category per sorted child-count tuple,
# all members of every clique resolved through an int64 product.


@dataclass(frozen=True)
class _TupleTables:
    n_types: int
    root_table: _DrawTable
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
        root_table=_DrawTable(p),
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


def _multinomial_law(count, probs):
    """Exact law of multinomial(count, probs) as {counts tuple: probability}."""
    law = {}
    for combo in combinations_with_replacement(range(len(probs)), count):
        counts = np.bincount(combo, minlength=len(probs)).astype(int)
        ways = factorial(count) // prod(factorial(int(k)) for k in counts)
        law[tuple(counts)] = ways * prod(float(p) ** int(k) for p, k in zip(probs, counts))
    return law


def path_table_law(clique, type_values):
    """Law of (active-by-type, total-by-type) that one clique's stop paths induce."""
    n_types = int(type_values[-1]) + 1
    law = {}
    for prob, members in zip(clique.probs, clique.members):
        partial = {((0,) * n_types, (0,) * n_types): float(prob)}
        for count, (is_active, types, probs) in zip(members.tolist(), clique.slots):
            if not count:
                continue
            grown = {}
            for (act, tot), p0 in partial.items():
                for drawn, p1 in _multinomial_law(count, probs).items():
                    add = np.zeros(n_types, dtype=int)
                    add[type_values[types]] = drawn
                    key = (
                        tuple(np.add(act, add * is_active)),
                        tuple(np.add(tot, add)),
                    )
                    grown[key] = grown.get(key, 0.0) + p0 * p1
            partial = grown
        for key, p in partial.items():
            law[key] = law.get(key, 0.0) + p
    return law


def tuple_table_law(tables, wi):
    law = {}
    for prob, act, full in zip(
        tables.clique_probs[wi], tables.active_members[wi], tables.all_members[wi]
    ):
        key = (tuple(act.tolist()), tuple(full.tolist()))
        law[key] = law.get(key, 0.0) + float(prob)
    return law


# Models whose every community size has a single stop path, so the two
# engines consume the same draws: (params, depth, replicates, seed).
SINGLE_PATH = {
    "census-deep": (model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10"), 30, 2 * _BLOCK + 3, 61),
    "triangle": (model({3: 1.0}, {3: 1.0}, "1/10"), 8, _BLOCK + 1, 62),
    "path": (model({2: 1.0}, {2: 1.0}, "2/5"), 12, 3 * _BLOCK, 63),
}


class TestStopPathEngine:
    @given(params=models(range(1, 4), range(2, 6), max_points=3))
    @example(params=MIXTURE)
    @example(params=model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4"))
    def test_path_tables_induce_the_tuple_law(self, params):
        tables = _census_tables(params)
        reference = reference_tuple_tables(params)
        for wi, clique in enumerate(tables.cliques):
            law = path_table_law(clique, tables.type_values)
            expected = tuple_table_law(reference, wi)
            for key in set(law) | set(expected):
                assert abs(law.get(key, 0.0) - expected.get(key, 0.0)) <= 1e-12, key

    @pytest.mark.parametrize("name", sorted(SINGLE_PATH))
    def test_single_path_models_match_reference_engine(self, name):
        params, depth, replicates, seed = SINGLE_PATH[name]
        assert all(c.probs.size == 1 for c in _census_tables(params).cliques)
        for k in range(3):
            config = SimConfig(depth=depth, replicates=replicates, seed=seed + 100 * k)
            assert estimate(params, config) == reference_estimate(params, config)

    def test_multi_path_model_has_several_paths(self):
        # guards the law property against a table that never branches
        params = model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4")
        assert max(c.probs.size for c in _census_tables(params).cliques) > 1

    def test_budget_refuses_before_listing_paths(self, monkeypatch):
        # 1.3e9 positive-probability stop paths at size 40: counted, never listed
        params = model({d: 0.1 for d in range(1, 11)}, {40: 1.0}, "1/40")

        def listed(*args):
            raise AssertionError("a path was listed")

        monkeypatch.setattr(mc_sim, "_stop_paths", listed)
        with pytest.raises(EnumerationTooLarge, match="stop paths"):
            _census_tables(params)

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
        monkeypatch.setattr(clique_dynamics, "ENUMERATION_BUDGET", 100_000)
        params = model({3: 1.0}, {3: 1.0}, "1/10")
        config = SimConfig(depth=4, replicates=_BLOCK, seed=1)
        with pytest.raises(EnumerationTooLarge, match="forest vertices"):
            survival_by_threshold(params, [params.threshold], config)
        # one level less fits: 256 * 127 vertices
        shallow = SimConfig(depth=3, replicates=_BLOCK, seed=1)
        assert survival_by_threshold(params, [params.threshold], shallow) == (1.0,)
