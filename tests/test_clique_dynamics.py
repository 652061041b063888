"""Within-community cascade law against hand-derived values and the oracle."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquecascade import (
    CliqueOutcome,
    EnumerationTooLarge,
    Pmf,
    Threshold,
    activation_requirement,
    brute_force_clique_law,
    child_count_pmf,
    clique_cascade_size,
    clique_pgf,
)
from cliquecascade import cascade_matrix, clique_dynamics, dist_core, mean_matrix, oracle_equivalence_checks
from cliquecascade.clique_dynamics import _alive, _levels, _walk, _walk_moves, mean_active_column
from cliquecascade.errors import InvalidOutcome, UnsortedInput
from cliquecascade.mc_sim import ActivationProcess, _census_tables
from cliquecascade.verification import _pgf_points, iter_enumerated_outcomes

from conftest import law_pgf, model, models, order_stat_pmf, plan_moves

# two-point child law: X = 1 or 2 with equal mass (memberships 2, sizes 2 or 3)
TWO_POINT = model({2: 1.0}, {2: 0.5, 3: 0.5}, "1/4")


class TestActivationRequirement:
    def test_small_degrees(self):
        theta = Threshold(1, 4)
        # degree x + w - 1; strictly-more-than-a-quarter rule
        assert activation_requirement(theta, 1, 3) == 1
        assert activation_requirement(theta, 2, 3) == 2
        assert activation_requirement(theta, 0, 2) == 1

    def test_exact_boundary_uses_floor(self):
        # theta * degree integer: floor(theta*(x+w-1)) + 1 steps up
        assert activation_requirement(Threshold(1, 2), 1, 3) == 2
        assert activation_requirement(Threshold(1, 3), 1, 3) == 2

    def test_rejects_degenerate_clique(self):
        with pytest.raises(ValueError):
            activation_requirement(Threshold(1, 4), 0, 1)


class TestCascadeSize:
    def test_full_activation(self):
        assert clique_cascade_size(Threshold(1, 10), 3, (4, 4)) == 2

    def test_blocked_at_once(self):
        assert clique_cascade_size(Threshold(3, 10), 3, (4, 4)) == 0

    def test_partial_stop(self):
        # A(0)=1 passes at position 1, A(9)=3 fails at position 2
        assert clique_cascade_size(Threshold(1, 4), 3, (0, 9)) == 1

    def test_requires_sorted(self):
        with pytest.raises(UnsortedInput):
            clique_cascade_size(Threshold(1, 4), 3, (2, 1))

    def test_requires_full_length(self):
        with pytest.raises(InvalidOutcome):
            clique_cascade_size(Threshold(1, 4), 3, (1,))

    @given(
        st.lists(st.integers(0, 8), min_size=2, max_size=5),
        st.integers(1, 19),
    )
    def test_monotone_in_threshold(self, xs, num):
        # raising the threshold can only shrink the cascade
        xs = sorted(xs)
        w = len(xs) + 1
        lo = clique_cascade_size(Threshold(num, 20), w, xs)
        hi = clique_cascade_size(Threshold(min(num + 1, 19), 20), w, xs)
        assert hi <= lo


class TestOrderStatPmf:
    # the reference for the configuration weights (conftest.order_stat_pmf)
    @given(st.integers(1, 4))
    def test_sums_to_one(self, n):
        from itertools import combinations_with_replacement

        base = Pmf.from_pairs({0: 0.2, 1: 0.3, 4: 0.5})
        total = sum(
            order_stat_pmf(base, n, xs)
            for xs in combinations_with_replacement(base.support, n)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_multiplicity_weight(self):
        base = Pmf.from_pairs({1: 0.5, 2: 0.5})
        # (1,2) arises from two orderings, (1,1) from one
        assert order_stat_pmf(base, 2, (1, 2)) == pytest.approx(0.5)
        assert order_stat_pmf(base, 2, (1, 1)) == pytest.approx(0.25)


class TestFloatRangeGuard:
    def test_first_size_past_the_float_range(self):
        # the walk's largest binomial coefficient is C(w - 1, (w - 1) // 2)
        assert math.comb(1029, 514) < sys.float_info.max < math.comb(1030, 515)
        _levels(model({1: 0.5, 2: 0.5}, {1030: 1.0}, "1/3000"), 1030)
        with pytest.raises(EnumerationTooLarge, match="float range"):
            _levels(model({1: 0.5, 2: 0.5}, {1031: 1.0}, "1/3000"), 1031)

    @pytest.mark.parametrize(
        "reader", [mean_matrix, ActivationProcess, oracle_equivalence_checks], ids=lambda f: f.__name__
    )
    def test_every_reader_refuses_before_composing(self, monkeypatch, reader):
        # the walk's gate checks every size's float range before the
        # child-count law of the size-2 walk is composed, whichever reader
        # asks, and a point made by with_threshold composes nothing either
        def refuse(*args):
            raise AssertionError("composed before the gate")

        monkeypatch.setattr(dist_core, "pgf_compose", refuse)
        monkeypatch.setattr(cascade_matrix, "pgf_compose", refuse)
        message = "^community size 100000 needs binomial coefficients beyond the float range$"
        base = model({4: 1.0}, {2: 0.5, 100000: 0.5}, "1/10")
        for params in (base.with_threshold("1/5"), base):
            with pytest.raises(EnumerationTooLarge, match=message):
                reader(params)


class TestLevelMap:
    @given(models(range(1, 5), range(2, 9), max_points=3))
    @example(model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4"))
    @example(model({1: 0.5, 4: 0.5}, {3: 1.0}, "1/2"))
    # the inverse ceil(m / theta) - (w - 1) at its extremes: 29-digit terms,
    # a theta just under 1/2, a 4300-digit denominator, and 1,030 levels
    @example(model({2: 0.5, 4: 0.5}, {3: 0.5, 9: 0.5}, "12345678901234567890123456789/98765432109876543210987654321"))
    @example(model({2: 0.5, 4: 0.5}, {3: 0.5, 9: 0.5}, "0.4999999999999999999"))
    @example(model({2: 0.5, 4: 0.5}, {3: 0.5, 9: 0.5}, "1e-4299"))
    @example(model({1: 0.5, 2: 0.5}, {1030: 1.0}, "1/3000"))
    def test_bounds_cut_the_support_into_level_runs(self, params):
        # f(x) = floor(theta (x + w - 1)) never decreases along the support, so
        # level m's types are the run bounds[m]:bounds[m + 1], and the types
        # from bounds[w - 1] on are out of every cascade's reach
        for w in params.community_sizes.support:
            xp, bounds, mass, tail = _levels(params, w)
            n = w - 1
            level = [params.threshold.floor_times(x + n) for x in xp.support]
            assert len(bounds) == w and bounds[0] == 0
            for m in range(n):
                assert all(level[i] == m for i in range(bounds[m], bounds[m + 1]))
            assert all(f >= n for f in level[bounds[n]:])
            placed = [(p, f) for (_, p), f in zip(xp.items, level)]
            assert mass == tuple(sum(p for p, f in placed if f == m) for m in range(n))
            # tail sums downward in one pass, the forward sum is the reference:
            # each sums the same k <= |S| masses with error at most (k - 1) u
            # of the total (u = eps / 2), so they differ by under |S| eps of it
            forward = [sum(p for p, f in placed if f > m) for m in range(n)]
            tol = len(xp.items) * sys.float_info.epsilon
            assert len(tail) == n
            assert all(math.isclose(a, b, rel_tol=tol, abs_tol=0.0) for a, b in zip(tail, forward))


class TestWalkPrice:
    @given(models(range(1, 6), range(2, 10), max_points=3))
    @example(model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4"))
    @example(model({1: 1.0}, {4: 1.0}, "1/10"))
    def test_price_counts_the_moves_walked(self, params):
        # the count from mass and tail alone is exact: every (state, next
        # state) pair the walk yields, over all the community sizes
        walked = sum(
            len(steps) for w in params.community_sizes.support for _, moves in _walk(params, w)
            for steps in moves.values()
        )
        assert _walk_moves(params) == walked

    @given(models(range(1, 6), range(2, 10), max_points=3))
    @example(model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4"))
    @example(model({1: 0.5, 3: 0.5}, {10: 1.0}, "1/10"))  # levels with mass but no tail, and tail but no mass
    def test_alive_intervals_are_the_live_targets(self, params):
        # the set rule _alive's interval arithmetic replaced: the walk starts
        # at state 0, the states alive entering a level are the sorted live
        # targets of the previous level's moves, and it stops when none is left
        for w in params.community_sizes.support:
            _, _, mass, tail = _levels(params, w)
            alive, levels = [0], zip(_alive(mass, tail), _walk(params, w), strict=True)
            for step, ((m, lo, hi), (level, moves)) in enumerate(levels):
                assert m == level == step and list(range(lo, hi + 1)) == alive == list(moves)
                alive = sorted({j for steps in moves.values() for j, _, live in steps if live})
            assert alive == []

    def test_price_without_walking(self, monkeypatch):
        # p uniform on 1..D, one size w: 1,321,041 moves at D = w = 200,
        # and 20,833,251 at D = 1000, w = 500, past the budget
        def refuse(*args):
            raise AssertionError("the price walked")

        monkeypatch.setattr(clique_dynamics, "_walk", refuse)
        monkeypatch.setattr(clique_dynamics, "_fold", refuse)
        params = model({d: 1 / 200 for d in range(1, 201)}, {200: 1.0}, "1/250")
        assert _walk_moves(params) == 1321041
        params = model({d: 1 / 1000 for d in range(1, 1001)}, {500: 1.0}, "1/600")
        with pytest.raises(EnumerationTooLarge, match="^20833251 walk moves exceed the 10000000 budget$"):
            _walk_moves(params)


class TestWalkReaders:
    @given(models(range(1, 5), range(2, 9), max_points=3))
    @example(model({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "3/10"))
    @example(model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4"))
    def test_census_levels_and_column_agree(self, params):
        # the two readers of one walk: the census engine's expected placements
        # on each level, spread over the level's types, give the mean column
        tables = _census_tables(params)
        for w, levels in zip(params.community_sizes.support, tables.cliques):
            column = np.zeros(tables.type_values.size)
            alive = {0: 1.0}
            for states, runs in levels:
                after, placed = {}, 0.0
                for i, probs, members, onward in map(plan_moves, states):
                    placed += alive[i] * (probs @ members[:, 0])
                    for col, j in onward.items():
                        after[j] = after.get(j, 0.0) + alive[i] * probs[col]
                for key, types, probs in runs:
                    if key == "on":  # the run on level m takes the placed members
                        column[types] += placed * probs
                alive = after
            assert np.abs(column - mean_active_column(params, w)).max() <= 1e-12

    @given(models(range(1, 5), range(2, 9), max_points=3))
    @example(TWO_POINT)
    def test_column_is_the_pgf_gradient_at_one(self, params):
        # the fold's two readers: E[A_x] = dG_w/ds_x at s = 1, by a central
        # difference.  At most 7 children make |d^3 G / ds_x^3| <= 7 * 6 * 5,
        # so the truncation error h^2 / 6 * 210 stays below 4e-9
        h, tol = 1e-5, 1e-8
        size = len(child_count_pmf(params).support)
        for w in params.community_sizes.support:
            column = mean_active_column(params, w)
            for i in range(size):
                up, down = np.ones(size), np.ones(size)
                up[i], down[i] = 1.0 + h, 1.0 - h
                slope = (clique_pgf(params, w, up) - clique_pgf(params, w, down)) / (2 * h)
                assert abs(slope - column[i]) <= tol


class TestOutcomeLaw:
    def test_triangle_full_cascade(self, triangle_model):
        law = brute_force_clique_law(triangle_model, 3)
        assert law == {CliqueOutcome(2, (4, 4)): pytest.approx(1.0)}

    def test_triangle_blocked(self, triangle_model):
        law = brute_force_clique_law(triangle_model.with_threshold("3/10"), 3)
        assert law == {CliqueOutcome(0, ()): pytest.approx(1.0)}

    def test_two_point_law_by_hand(self):
        # child counts are size-biased: P(X=1)=0.4, P(X=2)=0.6; with
        # A(1)=1, A(2)=2 at threshold 1/4 in a 3-community, (1,1) and
        # (1,2) cascade fully while (2,2) never starts
        law = brute_force_clique_law(TWO_POINT, 3)
        assert law[CliqueOutcome(0, ())] == pytest.approx(0.36)
        assert law[CliqueOutcome(2, (1, 1))] == pytest.approx(0.16)
        assert law[CliqueOutcome(2, (1, 2))] == pytest.approx(0.48)
        assert len(law) == 3

    def test_two_point_pair_community(self):
        # lone member always activates: A(1)=A(2)=1 at w=2
        law = brute_force_clique_law(TWO_POINT, 2)
        assert law[CliqueOutcome(1, (1,))] == pytest.approx(0.4)
        assert law[CliqueOutcome(1, (2,))] == pytest.approx(0.6)

    @pytest.mark.parametrize("s", [(1.0, 1.0), (0.0, 0.0), (0.3, 0.7), (0.9, 0.2)])
    def test_two_point_pgf_by_hand(self, s):
        # the law above as a pgf: 0.36 + 0.16 s_1^2 + 0.48 s_1 s_2
        s1, s2 = s
        assert clique_pgf(TWO_POINT, 3, s) == pytest.approx(
            0.36 + 0.16 * s1**2 + 0.48 * s1 * s2, abs=1e-15
        )

    @pytest.mark.parametrize("s", [(1.0, 1.0), (0.0, 0.0), (0.3, 0.7), (0.9, 0.2)])
    def test_census_deep_pair_pgf(self, s):
        # p={1:.5,3:.5}, q={2:1}: X is 0 or 2 with masses 1/4, 3/4, and the
        # lone child of a pair always activates, so G_2(s) = s_0/4 + 3 s_2/4
        params = model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10")
        assert child_count_pmf(params).support == (0, 2)
        assert clique_pgf(params, 2, s) == pytest.approx(0.25 * s[0] + 0.75 * s[1], abs=1e-15)

    def test_law_mass_one_each_size(self, mixed_model):
        for w in mixed_model.community_sizes.support:
            law = brute_force_clique_law(mixed_model, w)
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)

    @given(models(range(1, 5), range(2, 9), max_points=3))
    def test_pgf_at_one_is_one(self, params):
        ones = np.ones(len(child_count_pmf(params).support))
        for w in params.community_sizes.support:
            assert abs(clique_pgf(params, w, ones) - 1.0) <= 1e-12

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_pgf_rejects_wrong_length(self, size):
        # two types; a shorter or longer s is never zip-truncated into a number
        with pytest.raises(ValueError, match="child-count support has 2"):
            clique_pgf(TWO_POINT, 3, [0.5] * size)


class TestOracle:
    # at most two points per support keeps the brute-force cube below 8^5
    @given(models(range(1, 5), range(2, 7), max_points=2))
    @example(model({1: 0.3, 3: 0.7}, {2: 0.4, 4: 0.6}, "3/10"))
    def test_pgf_matches_brute_force(self, params):
        # the walk's pgf against the pgf of the enumerated law, at verify's points
        points = _pgf_points(len(child_count_pmf(params).support))
        for w in params.community_sizes.support:
            brute = brute_force_clique_law(params, w)
            for s in points:
                assert abs(clique_pgf(params, w, s) - law_pgf(params, brute, s)) <= 1e-12

    def test_cascade_size_agrees_with_rounds(self):
        params = model({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "2/5")
        for w in params.community_sizes.support:
            for xs, _, outcome in iter_enumerated_outcomes(params, w):
                assert clique_cascade_size(
                    params.threshold, w, tuple(sorted(xs))
                ) == outcome.ell

    def test_enumeration_budget(self):
        wide = model({v: 1 / 13 for v in range(1, 14)}, {8: 1.0}, "1/10")
        with pytest.raises(EnumerationTooLarge):
            brute_force_clique_law(wide, 8)
