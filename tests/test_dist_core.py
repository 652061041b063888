"""Pmf plumbing, exact threshold arithmetic, and the child-count law."""

import dataclasses
import math
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquecascade import (
    EmptySupport,
    EnumerationTooLarge,
    MassNotOne,
    ModelParams,
    NegativeProbability,
    Pmf,
    Threshold,
    ZeroMean,
    child_count_pmf,
    dist_core,
    mean_matrix,
    pgf_compose,
)
from cliquecascade.errors import AssumptionViolated

from conftest import dense_horner, model, standard_model_suite


TINY = np.finfo(float).tiny  # the smallest normal float


def pmf_strategy(min_value=0, max_value=6):
    def build(weights):
        total = sum(weights.values())
        return Pmf.from_pairs({v: w / total for v, w in weights.items()})

    return st.dictionaries(
        st.integers(min_value, max_value),
        st.integers(1, 100),
        min_size=1,
        max_size=5,
    ).map(build)


def sparse_pmf_strategy(max_value=40):
    """Gapped supports whose masses include 1e-17, 1e-300 and 5e-324."""

    def build(weights):
        total = sum(w for w in weights.values() if w >= 0.01)
        return Pmf.from_pairs({v: w / total if w >= 0.01 else w for v, w in weights.items()})

    masses = st.one_of(st.floats(0.01, 1.0), st.sampled_from([1e-17, 1e-300, 5e-324]))
    return st.dictionaries(st.integers(0, max_value), masses, min_size=1, max_size=6).filter(
        lambda weights: max(weights.values()) >= 0.01
    ).map(build)


class TestPmf:
    def test_rejects_negative_mass(self):
        with pytest.raises(NegativeProbability):
            Pmf.from_pairs({1: 1.2, 2: -0.2})
        with pytest.raises(NegativeProbability, match="mass at 3 .* got nan"):
            Pmf.from_pairs([(3, float("nan")), (4, 1.0)])

    def test_rejects_bad_total(self):
        with pytest.raises(MassNotOne):
            Pmf.from_pairs({1: 0.6, 2: 0.5})

    def test_rejects_empty(self):
        with pytest.raises(EmptySupport):
            Pmf.from_pairs({})
        with pytest.raises(EmptySupport):
            Pmf.from_pairs({3: 0.0, 4: 0.0})

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Pmf.from_pairs({-1: 0.5, 1: 0.5})

    def test_drops_zero_mass_points(self):
        pmf = Pmf.from_pairs({1: 0.0, 2: 1.0})
        assert pmf.support == (2,)
        assert pmf(1) == 0.0

    def test_point_mass(self):
        pmf = Pmf.point(3)
        assert pmf.items == ((3, 1.0),)
        assert pmf.mean() == 3.0

    def test_mean_and_factorial_moments(self):
        pmf = Pmf.from_pairs({1: 0.5, 3: 0.5})
        assert pmf.mean() == pytest.approx(2.0)
        assert pmf.factorial_moment(1) == pytest.approx(2.0)
        # E[K(K-1)] = 0.5 * 0 + 0.5 * 6
        assert pmf.factorial_moment(2) == pytest.approx(3.0)
        assert pmf.factorial_moment(3) == pytest.approx(3.0)
        assert pmf.factorial_moment(5) == 0.0

    @given(st.one_of(pmf_strategy(), pmf_strategy(0, 10**4), sparse_pmf_strategy()), st.integers(1, 6))
    def test_factorial_moment_matches_the_product_loop(self, pmf, r):
        # the loop math.perm replaced: an exact integer falling factorial
        # per value, zero terms skipped.  Adding 0.0 moves no partial sum,
        # but sum() compensates its rounding from Python 3.12 on
        total = 0.0
        for v, p in pmf.items:
            term = 1
            for j in range(r):
                term *= v - j
            if term:
                total += term * p
        if sys.version_info < (3, 12):
            assert pmf.factorial_moment(r) == total
        else:
            assert math.isclose(pmf.factorial_moment(r), total, rel_tol=len(pmf.items) * sys.float_info.epsilon)

    @given(pmf_strategy())
    def test_pgf_at_one_is_mass(self, pmf):
        assert pmf.pgf(1.0) == pytest.approx(1.0, abs=1e-9)

    @given(pmf_strategy())
    def test_pgf_derivative_matches_mean(self, pmf):
        h = 1e-7
        slope = (pmf.pgf(1.0) - pmf.pgf(1.0 - h)) / h
        assert slope == pytest.approx(pmf.mean(), rel=1e-5, abs=1e-5)

    def test_size_biased_shift(self):
        pmf = Pmf.from_pairs({1: 0.5, 3: 0.5})
        shifted = pmf.size_biased_shifted()
        # weights 1*0.5 and 3*0.5 over mean 2, shifted down by one
        assert shifted(0) == pytest.approx(0.25)
        assert shifted(2) == pytest.approx(0.75)

    @given(pmf_strategy(min_value=1))
    def test_size_biased_mass(self, pmf):
        shifted = pmf.size_biased_shifted()
        assert sum(p for _, p in shifted.items) == pytest.approx(1.0, abs=1e-9)
        assert shifted.support_max == pmf.support_max - 1

    def test_size_biased_needs_positive_mean(self):
        with pytest.raises(ZeroMean):
            Pmf.point(0).size_biased_shifted()

    def test_pgf_leaves_pmf_frozen_and_hashable(self):
        pmf = Pmf.from_pairs({0: 0.25, 3: 0.75})
        before = hash(pmf)
        assert pmf.pgf(0.5) == pytest.approx(0.25 + 0.75 * 0.125)
        assert hash(pmf) == before
        assert pmf == Pmf.from_pairs({0: 0.25, 3: 0.75})
        with pytest.raises(dataclasses.FrozenInstanceError):
            pmf.items = ()

    @given(pmf_strategy())
    def test_array_views_are_read_only_and_follow_items(self, pmf):
        assert pmf.values.dtype == np.int64
        assert pmf.values.tolist() == [v for v, _ in pmf.items]
        assert pmf.probs.tolist() == [p for _, p in pmf.items]
        for view in (pmf.values, pmf.probs):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
        assert pmf.values is pmf.values and pmf.probs is pmf.probs

    @given(pmf_strategy(), st.integers(0, 2**32 - 1), st.integers(0, 50))
    @example(Pmf.point(3), 7, 50)
    # cumsum ends at 0.9, and some of seed 7's 50 uniforms pass it: the clamp
    @example(Pmf.from_pairs({1: 0.3, 4: 0.6}, tol=0.2), 7, 50)
    def test_draw_is_the_clamped_inverse_cdf(self, pmf, seed, size):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        u = reference.random(size)
        idx = np.searchsorted(np.cumsum(pmf.probs), u, side="right")
        expected = pmf.values[np.minimum(idx, len(pmf.values) - 1)]
        assert pmf.draw(rng, size).tolist() == expected.tolist()
        # one uniform per draw, so the streams stay in step
        assert rng.random() == reference.random()


class TestThreshold:
    def test_from_decimal_string(self):
        theta = Threshold.from_string("0.3")
        assert (theta.numerator, theta.denominator) == (3, 10)

    def test_from_fraction_string(self):
        theta = Threshold.from_string("49/100")
        assert (theta.numerator, theta.denominator) == (49, 100)

    def test_reduces(self):
        theta = Threshold(30, 100)
        assert (theta.numerator, theta.denominator) == (3, 10)

    @pytest.mark.parametrize("bad", ["0", "1", "1.5", "-0.1", "3/2", "abc", "", "1/0", "0/0"])
    def test_rejects_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            Threshold.from_string(bad)

    @given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
           st.integers(0, 200))
    def test_floor_times_matches_fraction_floor(self, frac, n):
        theta = Threshold(frac.numerator, frac.denominator)
        assert theta.floor_times(n) == math.floor(frac * n)

    def test_at_least_half(self):
        assert Threshold(1, 2).at_least_half
        assert Threshold(51, 100).at_least_half
        assert not Threshold(49, 100).at_least_half

    def test_str_is_reduced_fraction(self):
        assert str(Threshold.from_string("0.25")) == "1/4"

    def test_terms_stay_within_the_int_to_str_limit(self):
        # every report echoes str(threshold); 4300 digits is the most it prints
        widest = Threshold.from_string("1e-4299")
        assert str(widest) == "1/1" + "0" * 4299
        with pytest.raises(ValueError, match="at most 4300 digits"):
            Threshold.from_string("1e-4300")
        with pytest.raises(ValueError, match="4300 digits"):  # int() refuses the literal
            Threshold.from_string("3/" + "1" * 4301)
        with pytest.raises(ValueError, match="at most 4300 digits"):
            Threshold(1, 10**4300)
        assert Threshold(2 * 10**4300, 4 * 10**4300) == Threshold(1, 2)  # reduced first

    @pytest.mark.parametrize("text", ["1e-4301", "1E-3000000", "5e+3000000", "1e-3_000_000 "])
    def test_exponent_refused_before_its_power_is_built(self, text):
        # Fraction would build 10**3000000 first, about two seconds
        started = time.monotonic()
        with pytest.raises(ValueError, match="exponent must lie within"):
            Threshold.from_string(text)
        assert time.monotonic() - started < 0.1


class TestModelParams:
    def test_requires_positive_means(self):
        with pytest.raises(ZeroMean):
            ModelParams.create({0: 1.0}, {2: 1.0}, Threshold(1, 10))

    def test_assumption_gate(self):
        bad = ModelParams.create({0: 0.5, 2: 0.5}, {2: 1.0}, Threshold(1, 10))
        with pytest.raises(AssumptionViolated):
            bad.require_contagion_assumptions()
        bad_q = ModelParams.create({2: 1.0}, {1: 0.5, 2: 0.5}, Threshold(1, 10))
        with pytest.raises(AssumptionViolated):
            bad_q.require_contagion_assumptions()
        model({2: 1.0}, {2: 1.0}, "1/10").require_contagion_assumptions()

    def test_with_threshold_replaces_only_theta(self):
        base = model({2: 1.0}, {3: 1.0}, "1/10")
        swapped = base.with_threshold(Threshold(2, 5))
        assert swapped.memberships is base.memberships
        assert str(swapped.threshold) == "2/5"

    def test_laws_are_built_once(self):
        params = model({1: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/10")
        assert params.extra_members is params.extra_members
        assert params.extra_communities is params.extra_communities
        # the child-count law composes those same objects' values, shared by theta variants
        assert child_count_pmf(params) is child_count_pmf(params.with_threshold(Threshold(1, 5)))

    def test_read_laws_keep_equality_and_hash(self):
        read = model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/7")
        read.extra_members, read.extra_communities, child_count_pmf(read)
        fresh = model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/7")
        assert read == fresh and hash(read) == hash(fresh)
        # a model owns its tables: equal models build their own, to the same bits
        assert mean_matrix(read) is mean_matrix(read)
        assert mean_matrix(fresh) is not mean_matrix(read)
        assert mean_matrix(fresh).rho == mean_matrix(read).rho

    def test_max_child_count(self):
        assert model({3: 1.0}, {4: 1.0}, "1/10").max_child_count == 6

    @pytest.mark.parametrize(
        "p, q, expected",
        [
            ({2: 1.0}, {2: 1.0}, True),
            ({2: 1.0}, {3: 1.0}, False),
            ({3: 1.0}, {2: 1.0}, False),
            ({2: 0.5, 3: 0.5}, {2: 1.0}, False),
            ({2: 1.0}, {2: 0.5, 3: 0.5}, False),
            ({1: 0.5, 3: 0.5}, {2: 1.0}, False),
        ],
    )
    def test_infinite_path_truth_table(self, p, q, expected):
        # the predicate reads the two laws only, never the threshold
        for theta in ("1/10", "2/5", "1/2"):
            assert model(p, q, theta).infinite_path is expected


class TestComposition:
    def test_compose_known_square(self):
        # outer pgf z^2 composed with inner pgf (0.5 + 0.5 z)
        outer = Pmf.point(2)
        inner = Pmf.from_pairs({0: 0.5, 1: 0.5})
        law = pgf_compose(outer, inner)
        assert law.items == ((0, 0.25), (1, 0.5), (2, 0.25))

    @given(pmf_strategy(0, 4), pmf_strategy(0, 4))
    def test_compose_evaluates_like_nesting(self, outer, inner):
        law = pgf_compose(outer, inner)
        for x in (0.0, 0.3, 0.9, 1.0):
            assert law.pgf(x) == pytest.approx(outer.pgf(inner.pgf(x)), abs=1e-9)

    @given(sparse_pmf_strategy(), sparse_pmf_strategy())
    @example(Pmf.point(37), Pmf.from_pairs({3: 0.5, 29: 0.5}))
    @example(Pmf.from_pairs({0: 0.5, 9: 0.5 - 1e-17, 40: 1e-17}), Pmf.from_pairs({1: 1 - 1e-300, 17: 1e-300}))
    @example(Pmf.from_pairs({2: 0.5, 3: 0.5}), Pmf.from_pairs({0: 5e-324, 11: 1.0}))
    def test_compose_matches_dense_horner(self, outer, inner):
        # equal supports, but a coefficient that underflows on one side may
        # round to zero on the other; the normal ones agree to rounding
        ours, theirs = dict(pgf_compose(outer, inner).items), dense_horner(outer, inner)
        theirs = {v: float(c) for v, c in enumerate(theirs) if c > 0.0}
        for v in ours.keys() ^ theirs.keys():
            assert ours.get(v, 0.0) < TINY and theirs.get(v, 0.0) < TINY, v
        for v in ours.keys() & theirs.keys():
            if min(ours[v], theirs[v]) >= TINY:
                assert ours[v] == pytest.approx(theirs[v], rel=1e-12, abs=0.0), v

    @given(sparse_pmf_strategy(), sparse_pmf_strategy())
    def test_compose_prices_every_product_first(self, outer, inner):
        priced, formed, times = [], [], dist_core._times

        def counted(a, b):
            assert priced, "a product ran before the price"
            formed.append(a[0].size * b[0].size)
            return times(a, b)

        with mock.patch.object(dist_core, "_times", counted), \
                mock.patch.object(dist_core, "require_enumerable", lambda n, what: priced.append((n, what))):
            pgf_compose(outer, inner)
        [(work, what)] = priced
        assert what == "composition products"
        assert sum(formed) <= work

    def test_compose_refused_past_the_budget(self, monkeypatch):
        # inner = {0, 1}; the gap 3 is inner^1 then inner^2, and squaring
        # prices 2 * 2 pairs.  The series is priced by its degree bound:
        # 2 * 2 pairs against inner, then 3 * 3 against inner^2
        outer, inner = Pmf.from_pairs({0: 0.5, 3: 0.5}), Pmf.from_pairs({0: 0.5, 1: 0.5})
        monkeypatch.setattr(dist_core, "ENUMERATION_BUDGET", 17)
        assert pgf_compose(outer, inner).support == (0, 1, 2, 3)
        monkeypatch.setattr(dist_core, "ENUMERATION_BUDGET", 16)
        with pytest.raises(EnumerationTooLarge, match="17 composition products"):
            pgf_compose(outer, inner)

    def test_compose_refuses_a_degree_past_int64(self):
        assert pgf_compose(Pmf.point(2**62), Pmf.point(1)).items == ((2**62, 1.0),)
        with pytest.raises(EnumerationTooLarge, match="degree at least 2\\^63 exceeds int64"):
            pgf_compose(Pmf.point(2**62), Pmf.point(2))

    def test_child_count_point_masses(self, triangle_model):
        assert child_count_pmf(triangle_model).items == ((4, 1.0),)

    def test_child_count_mixture(self):
        params = model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10")
        law = child_count_pmf(params)
        # extra communities: 0 w.p. 1/4, 2 w.p. 3/4; each contributes one child
        assert law(0) == pytest.approx(0.25)
        assert law(2) == pytest.approx(0.75)

    @given(pmf_strategy(1, 4), pmf_strategy(2, 5))
    def test_child_count_mean_product(self, p, q):
        params = ModelParams(p, q, Threshold(1, 10))
        law = child_count_pmf(params)
        expected = params.extra_communities.mean() * params.extra_members.mean()
        assert law.mean() == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert law.support_max <= params.max_child_count

    def test_series_is_the_composition(self, mixed_model):
        # the one cached law is the composed law as it is
        for params in standard_model_suite() + [mixed_model]:
            composed = pgf_compose(params.extra_communities, params.extra_members)
            assert child_count_pmf(params).items == composed.items
