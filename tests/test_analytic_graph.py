"""Survival criterion, extinction probability, root degree, clustering."""

import numpy as np
import pytest

from cliquecascade import (
    ModelParams,
    NoConvergence,
    SimConfig,
    Threshold,
    clustering_coefficient,
    estimate,
    extinction_probability,
    root_degree_pmf,
    smallest_fixed_point,
    survival_criterion,
)
from cliquecascade import analytic_graph

from conftest import model, standard_model_suite


def _composite_pgf(params, x: float) -> float:
    # pgf of the child count: extra-communities pgf evaluated at the
    # extra-members pgf
    return params.extra_communities.pgf(params.extra_members.pgf(x))


class TestSurvivalCriterion:
    def test_triangle_supercritical(self, triangle_model):
        crit = survival_criterion(triangle_model)
        assert crit.lhs == pytest.approx(36.0)
        assert crit.rhs == pytest.approx(9.0)
        assert crit.supercritical

    def test_path_is_critical(self, path_model):
        crit = survival_criterion(path_model)
        assert crit.lhs == crit.rhs == pytest.approx(4.0)
        assert not crit.supercritical

    def test_single_membership_subcritical(self):
        crit = survival_criterion(model({1: 1.0}, {4: 1.0}, "1/10"))
        assert not crit.supercritical


class TestFixedPoint:
    def test_mixture_fixed_point(self, mixed_model):
        assert smallest_fixed_point(mixed_model) == pytest.approx(1 / 3, abs=1e-12)

    def test_residual_is_tiny(self, mixed_model):
        x = smallest_fixed_point(mixed_model)
        assert abs(_composite_pgf(mixed_model, x) - x) < 1e-12

    @pytest.mark.parametrize("eps", [1e-4, 1e-9, 0.0])
    def test_near_and_at_criticality(self, eps):
        # eps = 0 is critical: f'(1) = 1, a double root, linear convergence
        params = model({1: 0.75 - eps, 3: 0.25 + eps}, {2: 1.0}, "1/10")
        x = smallest_fixed_point(params)
        assert 0.999 < x <= 1.0
        assert abs(_composite_pgf(params, x) - x) < 1e-12

    def test_identity_map_returns_zero(self, path_model):
        # extra-communities and extra-members pgfs are both z here
        assert smallest_fixed_point(path_model) == 0.0

    def test_subcritical_fixed_point_is_one(self):
        params = model({1: 0.9, 2: 0.1}, {2: 1.0}, "1/10")
        report = extinction_probability(params)
        assert report.fixed_point == 1.0
        assert report.extinction == 1.0

    @pytest.mark.parametrize("params", standard_model_suite())
    def test_fixed_point_residual_suite(self, params):
        report = extinction_probability(params)
        if not report.degenerate:
            residual = abs(_composite_pgf(params, report.fixed_point) - report.fixed_point)
            assert residual < 1e-12


class TestExtinction:
    def test_mixture_extinction(self, mixed_model):
        report = extinction_probability(mixed_model)
        assert report.fixed_point == pytest.approx(1 / 3, abs=1e-12)
        assert report.extinction == pytest.approx(5 / 27, abs=1e-12)
        assert not report.degenerate

    def test_path_survives_despite_critical(self, path_model):
        report = extinction_probability(path_model)
        assert report.degenerate
        assert report.extinction == 0.0

    def test_triangle_extinct_never(self, triangle_model):
        # composite pgf is z^4: smallest fixed point 0, no extinction
        report = extinction_probability(triangle_model)
        assert report.fixed_point == 0.0
        assert report.extinction == 0.0

    def test_agrees_with_graph_frequency(self, mixed_model):
        report = estimate(mixed_model, SimConfig(depth=30, replicates=4000, seed=99))
        assert report.graph_alive_frequency == pytest.approx(22 / 27, abs=0.025)


class TestRootDegree:
    def test_two_triangles(self):
        law = root_degree_pmf(model({2: 1.0}, {3: 1.0}, "1/10"))
        assert law.items == ((4, 1.0),)

    def test_one_triangle(self):
        law = root_degree_pmf(model({1: 1.0}, {3: 1.0}, "1/10"))
        assert law.items == ((2, 1.0),)

    def test_path_degree(self, path_model):
        assert root_degree_pmf(path_model).items == ((2, 1.0),)

    @pytest.mark.parametrize("params", standard_model_suite())
    def test_mass_and_mean(self, params):
        law = root_degree_pmf(params)
        assert sum(p for _, p in law.items) == pytest.approx(1.0, abs=1e-9)
        expected = params.mean_memberships * params.extra_members.mean()
        assert law.mean() == pytest.approx(expected, rel=1e-9)

    def test_matches_sampled_degrees(self):
        rng = np.random.default_rng(7)
        params = model({1: 0.4, 2: 0.6}, {2: 0.5, 3: 0.5}, "1/10")
        law = root_degree_pmf(params)
        replicates = 20000
        from cliquecascade import sample_local_graph

        # one forest of depth-1 trees; a root's degree is its tree's depth-1 size
        forest = sample_local_graph(params, 1, rng, roots=replicates)
        degrees = np.bincount(forest.tree[forest.depth == 1], minlength=replicates)
        values, freqs = np.unique(degrees, return_counts=True)
        counts = dict(zip(values.tolist(), freqs.tolist()))
        for value in set(law.support) | set(counts):
            freq = counts.get(value, 0) / replicates
            p = law(value)
            se = max((p * (1 - p) / replicates) ** 0.5, 1e-4)
            assert abs(freq - p) < 4 * se


class TestClustering:
    def test_triangle_value(self, triangle_model):
        result = clustering_coefficient(triangle_model)
        assert result.value == pytest.approx(0.2, abs=1e-12)
        assert not result.degenerate_triples

    def test_pairs_only_no_triangles(self, mixed_model):
        assert clustering_coefficient(mixed_model).value == 0.0

    def test_single_community_fully_clustered(self):
        result = clustering_coefficient(model({1: 1.0}, {3: 1.0}, "1/10"))
        assert result.value == pytest.approx(1.0)

    def test_no_triples_flagged(self):
        result = clustering_coefficient(model({1: 1.0}, {2: 1.0}, "1/10"))
        assert result.degenerate_triples
        assert result.value == 0.0

    @pytest.mark.parametrize("params", standard_model_suite())
    def test_bounded(self, params):
        value = clustering_coefficient(params).value
        assert 0.0 <= value <= 1.0


def test_no_convergence_carries_last_iterate(monkeypatch):
    # the near-critical structure needs about 16 Newton steps; allow 3
    monkeypatch.setattr(analytic_graph, "FIXED_POINT_MAX_ITER", 3)
    eps = 1e-4
    params = ModelParams.create(
        {1: 0.75 - eps, 3: 0.25 + eps}, {2: 1.0}, Threshold(1, 10)
    )
    assert survival_criterion(params).supercritical
    with pytest.raises(NoConvergence) as exc_info:
        smallest_fixed_point(params)
    last = exc_info.value.last
    assert last is not None
    assert 0.0 < last <= 1.0
