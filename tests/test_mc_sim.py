"""Graph sampler structure, contagion fixpoint, replication, process sampler."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquecascade import (
    ActivationProcess,
    CensusOverflow,
    ConfigInvalid,
    EnumerationTooLarge,
    LocalGraph,
    SimConfig,
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
from cliquecascade.mc_sim import _BLOCK, _tables
from cliquecascade.verification import (
    branching_root_counts,
    depth1_active_counts,
    histogram_match,
)

from conftest import model

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


def _assert_structure(graph):
    """Breadth-first tree-of-cliques invariants, checked for every vertex and clique."""
    roots = graph.n_roots
    assert np.all(graph.depth[:roots] == 0)
    assert np.all(graph.parent[:roots] == -1)
    assert np.all(graph.tree[:roots] == np.arange(roots))
    assert np.all(np.diff(graph.depth) >= 0)
    members = graph.clique_size - 1
    owner = np.repeat(np.arange(graph.n_cliques), members)
    first = np.repeat(graph.member_start, members)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(members) - members, members)
    ids = first + offset
    # every non-root vertex is a member of exactly one clique
    assert np.array_equal(np.sort(ids), np.arange(roots, graph.n_vertices))
    assert np.all(graph.clique_of[ids] == owner)
    assert np.all(graph.parent[ids] == graph.clique_parent[owner])
    assert np.all(graph.depth[ids] == graph.depth[graph.clique_parent[owner]] + 1)
    assert np.all(graph.tree[ids] == graph.tree[graph.clique_parent[owner]])
    # expanded vertices: child count equals members of owned cliques
    owned = np.bincount(graph.clique_parent, weights=members, minlength=graph.n_vertices)
    expanded = graph.depth < graph.truncation_depth
    assert np.all(graph.child_count[expanded] == owned[expanded])


def _tree(forest, t: int) -> LocalGraph:
    """Tree t of a forest as a graph of its own, ids relabelled in order."""
    ids = np.flatnonzero(forest.tree == t)
    cliques = np.flatnonzero(forest.tree[forest.clique_parent] == t)
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
        clique_parent=np.searchsorted(ids, forest.clique_parent[cliques]),
        clique_size=forest.clique_size[cliques],
        member_start=np.searchsorted(ids, forest.member_start[cliques]),
    )


def _single_root_sampler(params, depth, rng):
    """Reference sampler for a single graph: the draws roots=1 must reproduce."""
    root_table, extra_table, size_table, child_table = _tables(
        params.memberships, params.community_sizes
    )
    vdepth, vparent, vclique = [np.zeros(1, int)], [np.full(1, -1)], [np.full(1, -1)]
    vchild, cparent, csize, cstart = [], [], [], []
    next_vertex, next_clique = 1, 0
    level_ids = np.zeros(1, dtype=np.int64)
    for level in range(depth):
        n_here = level_ids.size
        table = root_table if level == 0 else extra_table
        counts = table.draw(rng, n_here)
        sizes = size_table.draw(rng, int(counts.sum()))
        members = sizes - 1
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
        for field, values in reference.items():
            assert np.array_equal(getattr(graph, field), values), field
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
            proc = ActivationProcess(params)
            rng = np.random.default_rng(3000 + i)
            scalar: dict[int, int] = {}
            for _ in range(n):
                k = sum(proc.root_step(rng).values())
                scalar[k] = scalar.get(k, 0) + 1
            batched = branching_root_counts(params, n, seed=4000 + i)
            assert sum(batched.values()) == n
            ok, worst = histogram_match(scalar, batched, sigmas=5.0)
            assert ok, (i, worst)

    def test_enumeration_budget(self):
        # configurations alone: 20^12 ordered size tuples at 13 memberships
        wide = model({13: 1.0}, {w: 1 / 20 for w in range(2, 22)}, "1/10")
        with pytest.raises(EnumerationTooLarge):
            ActivationProcess(wide)
        # 6859 configurations, but about 3e17 sorted clique tuples at size 20,
        # refused before any smaller size is enumerated
        large = model({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {w: 1 / 19 for w in range(2, 21)}, "1/5")
        with pytest.raises(EnumerationTooLarge):
            ActivationProcess(large)
