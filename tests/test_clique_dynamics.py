"""Within-community cascade law against hand-derived values and the oracle."""

import math
import sys

import pytest
from hypothesis import given
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
    clique_outcome_law,
    clique_outcome_prob,
)
from cliquecascade.clique_dynamics import (
    ENUMERATION_BUDGET,
    _levels,
    _orderings,
    iter_enumerated_outcomes,
)
from cliquecascade.errors import InvalidOutcome, UnsortedInput

from conftest import model, order_stat_pmf

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


class TestOrderings:
    def test_documented_example(self):
        assert _orderings((1, 2, 2, 2, 5, 5)) == 60

    def test_distinct_values(self):
        assert _orderings((1, 2, 3)) == 6

    def test_single_run(self):
        assert _orderings((7, 7, 7)) == 1

    def test_empty(self):
        assert _orderings(()) == 1

    @given(st.integers(1, 4))
    def test_sorted_tuple_law_sums_to_one(self, n):
        from itertools import combinations_with_replacement

        base = Pmf.from_pairs({0: 0.2, 1: 0.3, 4: 0.5})
        total = sum(
            _orderings(xs) * math.prod(base(x) for x in xs)
            for xs in combinations_with_replacement(base.support, n)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestOrderStatPmf:
    # the reference for the orderings weights (conftest.order_stat_pmf)
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

    def test_outcome_weight_past_the_float_range(self):
        # size 1025 passes the walk's guard, but 683 active children, 341 of
        # type 0 and 342 of type 1024, have more orderings than a float holds
        params = model({1: 0.5, 2: 0.5}, {1025: 1.0}, "1/3000")
        assert math.comb(1024, 683) * math.comb(683, 341) > sys.float_info.max
        outcome = CliqueOutcome(683, (0,) * 341 + (1024,) * 342)
        with pytest.raises(EnumerationTooLarge, match="float range"):
            clique_outcome_prob(params, 1025, outcome)


class TestOutcomeLaw:
    def test_triangle_full_cascade(self, triangle_model):
        law = clique_outcome_law(triangle_model, 3)
        assert law == {CliqueOutcome(2, (4, 4)): pytest.approx(1.0)}

    def test_triangle_blocked(self, triangle_model):
        law = clique_outcome_law(triangle_model.with_threshold("3/10"), 3)
        assert law == {CliqueOutcome(0, ()): pytest.approx(1.0)}

    def test_two_point_law_by_hand(self):
        # child counts are size-biased: P(X=1)=0.4, P(X=2)=0.6; with
        # A(1)=1, A(2)=2 at threshold 1/4 in a 3-community, (1,1) and
        # (1,2) cascade fully while (2,2) never starts
        law = clique_outcome_law(TWO_POINT, 3)
        assert law[CliqueOutcome(0, ())] == pytest.approx(0.36)
        assert law[CliqueOutcome(2, (1, 1))] == pytest.approx(0.16)
        assert law[CliqueOutcome(2, (1, 2))] == pytest.approx(0.48)
        assert len(law) == 3

    def test_two_point_pair_community(self):
        # lone member always activates: A(1)=A(2)=1 at w=2
        law = clique_outcome_law(TWO_POINT, 2)
        assert law[CliqueOutcome(1, (1,))] == pytest.approx(0.4)
        assert law[CliqueOutcome(1, (2,))] == pytest.approx(0.6)

    def test_law_mass_one_each_size(self, mixed_model):
        for w in mixed_model.community_sizes.support:
            law = clique_outcome_law(mixed_model, w)
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)

    def test_prob_of_impossible_outcome_is_zero(self):
        # a child of type 2 cannot sit at position 1: A(2)=2 > 1
        assert clique_outcome_prob(TWO_POINT, 3, CliqueOutcome(2, (2, 2))) == 0.0

    def test_validates_outcome_shape(self):
        with pytest.raises(InvalidOutcome):
            clique_outcome_prob(TWO_POINT, 3, CliqueOutcome(1, (1, 1)))
        with pytest.raises(InvalidOutcome):
            clique_outcome_prob(TWO_POINT, 3, CliqueOutcome(3, (1, 1, 1)))
        with pytest.raises(InvalidOutcome):
            clique_outcome_prob(TWO_POINT, 3, CliqueOutcome(2, (2, 1)))


class TestOracle:
    def test_matches_closed_form(self):
        params = model({1: 0.3, 3: 0.7}, {2: 0.4, 4: 0.6}, "3/10")
        for w in params.community_sizes.support:
            law = clique_outcome_law(params, w)
            brute = brute_force_clique_law(params, w)
            for key in set(law) | set(brute):
                assert law.get(key, 0.0) == pytest.approx(
                    brute.get(key, 0.0), abs=1e-9
                )

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

    def test_outcome_law_budget(self):
        # 57 child counts (1..57): C(75, 19), about 3e17 sorted tuples at size 20
        wide = model({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {w: 1 / 19 for w in range(2, 21)}, "1/5")
        assert math.comb(len(child_count_pmf(wide).support) + 18, 19) > ENUMERATION_BUDGET
        with pytest.raises(EnumerationTooLarge):
            clique_outcome_law(wide, 20)
