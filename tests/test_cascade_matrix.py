"""Mean matrix, Perron root, and the cascade verdict."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliquecascade import (
    CliqueOutcome,
    EnumerationTooLarge,
    NoConvergence,
    Threshold,
    VerdictKind,
    VerdictReason,
    brute_force_clique_law,
    cascade_matrix,
    cascade_verdict,
    child_count_pmf,
    mean_active_of_type,
    mean_matrix,
    spectral_radius,
    strongly_connected_components,
    verification,
)
from cliquecascade.verification import mean_active_by_type_oracle
from cliquecascade.clique_dynamics import mean_active_column

from conftest import THETA_GRID, UNDERFLOW_MODELS, model, models, standard_model_suite


def active_count_prob(params, x, clique_size, k, ell, i):
    """Paper formula: a clique activates ell children, k of type x, i below x.

    Sums the brute-force outcome law over sorted vectors whose first i
    entries are strictly below x, next k entries equal x, and remaining
    entries strictly above.  Empty index combinations give 0.
    """
    w = clique_size
    if k < 1 or ell > w - 1 or i < 0 or k + i > ell:
        return 0.0
    xp = child_count_pmf(params)
    if xp(x) == 0.0:
        return 0.0
    law = brute_force_clique_law(params, w)
    below = [v for v in xp.support if v < x]
    above = [v for v in xp.support if v > x]
    total = 0.0
    for low in itertools.combinations_with_replacement(below, i):
        for high in itertools.combinations_with_replacement(above, ell - k - i):
            types = low + (x,) * k + high
            total += law.get(CliqueOutcome(ell, types), 0.0)
    return total


def paper_mean_active_of_type(params, x, clique_size):
    """Paper formula: triple sum over (count at x, total activated, count below x).

    The index ranges start at floor(threshold * (x + w - 1)) because a type-x
    child needs that many activated predecessors before the parent tips it.
    """
    w = clique_size
    floor_x = params.threshold.floor_times(x + w - 1)
    total = 0.0
    for k in range(1, w):
        for ell in range(k + floor_x, w):
            for i in range(floor_x, ell - k + 1):
                total += k * active_count_prob(params, x, w, k, ell, i)
    return total


def product_mean_matrix(params):
    """Mean matrix by enumerating every ordered tuple of further community sizes."""
    dim = params.max_child_count + 1
    q = params.community_sizes
    lam, mu = params.mean_memberships, params.mean_community_size
    per_size = {w: np.zeros(dim) for w in q.support}
    for w in q.support:
        per_size[w][child_count_pmf(params).values] = mean_active_column(params, w)
    raw = np.zeros((dim, dim))
    config_mass = np.zeros(dim)
    for d in params.memberships.support:
        weight_d = d * params.memberships(d) / lam
        for sizes in itertools.product(q.support, repeat=d - 1):
            x0 = sum(w - 1 for w in sizes)
            weight = weight_d
            row = np.zeros(dim)
            for w in sizes:
                weight *= w * q(w) / mu
                row += per_size[w]
            config_mass[x0] += weight
            raw[x0] += weight * row
    entries = np.zeros((dim, dim))
    for x0 in range(1, dim):
        if config_mass[x0] > 0.0:
            entries[x0] = raw[x0] / config_mass[x0]
    return entries


def reference_mean_active_column(params, clique_size):
    """Mean activated children by type from the dense level DP, in O(w^3).

    The slow path the sparse walk replaced: alive[k] = P(N_m = k, N_j > j
    for all j <= m) over every count k at every level, stepped through its
    own (w x w) tables of placed children, staying children and orderings.
    """
    xp, n = child_count_pmf(params), clique_size - 1
    floors = {x: params.threshold.floor_times(x + n) for x in xp.support}
    mass = [sum(p for x, p in xp.items if floors[x] == m) for m in range(n)]
    tail = [sum(p for x, p in xp.items if floors[x] > m) for m in range(n)]
    i, j = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
    placed, stay = np.maximum(j - i, 0), n - np.maximum(i, j)
    ways = np.vectorize(math.comb, otypes=[float])(n - i, placed) * (j >= i)
    alive = np.zeros(n + 1)
    alive[0] = 1.0
    expected = np.zeros(n)
    for m in range(n):
        reach = mass[m] + tail[m]
        if reach == 0.0:
            break
        joint = alive[:, None] * ways * (mass[m] / reach) ** placed * (tail[m] / reach) ** stay
        joint[:, : m + 1] = 0.0
        expected[m] = (joint * placed).sum()
        alive = joint.sum(axis=0)
    column = np.zeros(len(xp.items))
    for i, (x, p) in enumerate(xp.items):
        if floors[x] < n:
            column[i] = expected[floors[x]] * p / mass[floors[x]]
    return column


def wide_model(theta):
    """p uniform on {2,3,4}, q uniform on 2..7: 101k sorted tuples at size 7."""
    return model({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {w: 1 / 6 for w in range(2, 8)}, theta)


class TestMeanActive:
    def test_triangle_both_children(self, triangle_model):
        assert mean_active_of_type(triangle_model, 4, 3) == pytest.approx(2.0)

    def test_triangle_blocked(self, triangle_model):
        blocked = triangle_model.with_threshold("3/10")
        assert mean_active_of_type(blocked, 4, 3) == 0.0

    def test_zero_mass_type(self, triangle_model):
        assert mean_active_of_type(triangle_model, 3, 3) == 0.0

    def test_matches_oracle(self):
        params = model({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "3/10")
        for w in params.community_sizes.support:
            for x in child_count_pmf(params).support:
                assert mean_active_of_type(params, x, w) == pytest.approx(
                    mean_active_by_type_oracle(brute_force_clique_law(params, w)).get(x, 0.0),
                    abs=1e-9,
                )


    # at most two points per support keeps the brute-force cube below 8^5
    @given(models(range(1, 5), range(2, 7), max_points=2))
    def test_column_matches_brute_force(self, params):
        xp = child_count_pmf(params)
        for w in params.community_sizes.support:
            column = mean_active_column(params, w)
            brute = np.zeros(xp.support_max + 1)
            for outcome, prob in brute_force_clique_law(params, w).items():
                for t in outcome.types:
                    brute[t] += prob
            assert column.shape == xp.values.shape
            assert np.abs(column - brute[xp.values]).max() <= 1e-12

    @pytest.mark.parametrize("params", standard_model_suite())
    def test_matches_paper_formula(self, params):
        for w in params.community_sizes.support:
            for x in child_count_pmf(params).support:
                assert abs(
                    mean_active_of_type(params, x, w) - paper_mean_active_of_type(params, x, w)
                ) <= 1e-12

    # community sizes up to 40 are far past the brute-force cube; the examples
    # are the qmax-20 model and the analytic_phase model at its six thresholds
    @given(models(range(1, 5), range(2, 41), max_points=3))
    @example(model({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {w: 1 / 19 for w in range(2, 21)}, "1/5"))
    @example(wide_model("1/4"))
    @example(wide_model("3/10"))
    @example(wide_model("7/20"))
    @example(wide_model("2/5"))
    @example(wide_model("9/20"))
    @example(wide_model("1/3"))
    def test_column_matches_dense_reference(self, params):
        for w in params.community_sizes.support:
            column = mean_active_column(params, w)
            assert np.abs(column - reference_mean_active_column(params, w)).max() <= 1e-12

    def test_column_is_read_only(self, triangle_model):
        with pytest.raises(ValueError):
            mean_active_column(triangle_model, 3)[0] = 0.0


# masses far below a normal pmf's: subnormal, or small enough that their
# products underflow
TINY_MASSES = (5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-17)


@st.composite
def tiny_mass_models(draw):
    """Memberships 1..8 and sizes 2..9, up to 4 values each; any value but the first may carry a tiny mass."""
    def pmf(values):
        support = draw(st.lists(st.sampled_from(values), min_size=1, max_size=4, unique=True))
        tiny = {v: draw(st.sampled_from(TINY_MASSES)) for v in support[1:] if draw(st.booleans())}
        weights = {v: draw(st.integers(1, 9)) for v in support if v not in tiny}
        return {**tiny, **{v: w / sum(weights.values()) for v, w in weights.items()}}

    return model(pmf(range(1, 9)), pmf(range(2, 10)), draw(st.sampled_from(THETA_GRID)))


class TestMeanMatrix:
    @given(models(range(1, 5), range(2, 7), max_points=5))
    def test_rows_match_product_enumeration(self, params):
        assert np.abs(mean_matrix(params).entries - product_mean_matrix(params)).max() <= 1e-12

    def test_no_outcome_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mean matrix enumerated clique outcomes")

        monkeypatch.setattr(verification, "iter_enumerated_outcomes", refuse)
        params = wide_model("13/37")
        assert mean_matrix(params).dim == 19
        assert cascade_verdict(params).kind is VerdictKind.FINITE_ALMOST_SURELY

    def test_large_communities(self):
        # 58 types; the sorted clique tuples at size 20 number about 3e17
        params = model({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {w: 1 / 19 for w in range(2, 21)}, "1/5")
        entries = mean_matrix(params).entries
        assert entries.shape == (58, 58)
        assert np.abs(entries - product_mean_matrix(params)).max() <= 1e-12

    def test_oversized_matrix_refused_before_allocation(self):
        # one type of 29999 builds a 1 x 1 block, but its dense view would
        # hold 9e8 entries, a 7.2 GB array; a dim of 3000 still fits
        assert mean_matrix(model({3000: 1.0}, {2: 1.0}, "1/10")).entries.shape == (3000, 3000)
        matrix = mean_matrix(model({30000: 1.0}, {2: 1.0}, "1/10"))
        assert matrix.block.shape == (1, 1)
        with pytest.raises(EnumerationTooLarge, match="900000000 dense mean matrix entries"):
            matrix.entries
        # 4000 types: the factors are 4000 x 1 and rho reads them alone, but
        # the 1.6e7-entry block is refused before it is built.  Types x <= 8
        # activate, each weighing x (x + 1) / (4000 * 2000.5)
        wide = mean_matrix(model({d: 1 / 4000 for d in range(1, 4001)}, {2: 1.0}, "1/10"))
        assert wide.rho == pytest.approx(240 / 8_002_000, rel=1e-12)
        with pytest.raises(EnumerationTooLarge, match="16000000 mean matrix entries"):
            wide.block
        assert "block" not in vars(wide)

    def test_triangle_single_entry(self, triangle_model):
        matrix = mean_matrix(triangle_model)
        assert matrix.dim == 5
        expected = np.zeros((5, 5))
        expected[4, 4] = 4.0
        assert np.allclose(matrix.entries, expected, atol=1e-12)

    def test_triangle_blocked_zero(self, triangle_model):
        matrix = mean_matrix(triangle_model.with_threshold("3/10"))
        assert np.all(matrix.entries == 0.0)

    def test_path_unit_entry(self, path_model):
        matrix = mean_matrix(path_model)
        assert matrix.entries[1, 1] == pytest.approx(1.0)
        assert matrix.entries.sum() == pytest.approx(1.0)

    def test_rows_are_conditional_means(self):
        # an active vertex with two pair-communities always converts both
        # children at a tiny threshold, so its row must total exactly 2
        params = model({1: 2 / 3, 3: 1 / 3}, {2: 1.0}, "1/10")
        matrix = mean_matrix(params)
        assert matrix.entries[2, 0] == pytest.approx(0.8, abs=1e-9)
        assert matrix.entries[2, 2] == pytest.approx(1.2, abs=1e-9)
        assert matrix.rho == pytest.approx(1.2, abs=1e-9)

    def test_row_zero_empty(self):
        params = model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10")
        assert np.all(mean_matrix(params).entries[0] == 0.0)

    @pytest.mark.parametrize("params", standard_model_suite())
    def test_row_sums_bounded_by_type(self, params):
        matrix = mean_matrix(params)
        for x0 in range(matrix.dim):
            assert matrix.entries[x0].sum() <= x0 + 1e-9

    @settings(max_examples=100)  # models still draws more than the 60 examples it drew alone
    @given(st.one_of(models(range(1, 5), range(2, 7), max_points=5), tiny_mass_models()))
    @example(model({2: 1.0}, {2: 1e-310, 5: 1.0}, "1/10"))  # type 1's mass is subnormal
    def test_rho_by_two_routes(self, params):
        # rho on the size-to-size matrix against the Perron solve of the
        # block, and against LAPACK's eigenvalues of the block.  Their error
        # is absolute, scaled by the block's norm (taken at unit scale, where
        # its squares do not underflow), and a defective zero eigenvalue of
        # order k moves by about eps^(1/k) of it: 1e-5 covers k = 3 (6e-6).
        # A tiny type mass leaves rho finite; a subnormal entry inside a
        # component can leave a Perron bracket open.  A block whose products
        # underflow is no reference: a product past the double range loses
        # its digits, or reads 0.0
        matrix = mean_matrix(params)
        tiny = min(params.memberships.probs.min(), params.community_sizes.probs.min()) < 1e-16
        try:
            rho = matrix.rho
            assert math.isfinite(rho)
            with np.errstate(under="raise"):
                block = matrix.block
            reference = spectral_radius(block)
        except (NoConvergence, FloatingPointError):
            assert tiny
            return
        assert (rho == 0.0) == (reference == 0.0)
        assert abs(rho - reference) <= 1e-9 * reference
        eigenvalue = max(abs(np.linalg.eigvals(block)))
        top = block.max()
        assert abs(rho - eigenvalue) <= 1e-5 * (top * np.linalg.norm(block / top) if top else 0.0)

    def test_verdict_leaves_the_block_unbuilt(self, triangle_model):
        assert cascade_verdict(triangle_model).rho == pytest.approx(4.0, abs=1e-10)
        assert "block" not in vars(mean_matrix(triangle_model))

    def test_tiny_threshold_rank_one(self):
        # every child activates, so rho collapses to the mean child count
        params = model({1: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/1000")
        rho = mean_matrix(params).rho
        assert rho == pytest.approx(child_count_pmf(params).mean(), abs=1e-9)


# the dense dim x dim and the support of ROADMAP item 6's table: 3000 and 1,
# 1030 and 2, 99 and 3, 19 and 5, then compare_cli's triangle, p3-q24 and
# p23-q25 (5 and 1, 7 and 3, 9 and 5); thresholds low enough for rho > 0
TYPE_SPACE_MODELS = standard_model_suite() + [
    model({3000: 1.0}, {2: 1.0}, "1/4000"),
    model({1: 0.5, 2: 0.5}, {1030: 1.0}, "1/4000"),
    model({3: 1.0}, {2: 0.5, 50: 0.5}, "1/100"),
    model({2: 0.5, 3: 0.5}, {2: 0.5, 10: 0.5}, "1/100"),
    model({3: 1.0}, {3: 1.0}, "1/10"),
    model({3: 1.0}, {2: 0.3, 4: 0.7}, "1/4"),
    model({2: 0.5, 3: 0.5}, {2: 0.5, 5: 0.5}, "1/4"),
    UNDERFLOW_MODELS[0],
]


class TestOneTypeSpace:
    @pytest.mark.parametrize("params", TYPE_SPACE_MODELS)
    def test_block_on_the_support_is_the_dense_matrix(self, params):
        matrix = mean_matrix(params)
        types = child_count_pmf(params).values
        assert matrix.types is types
        assert matrix.block.shape == (types.size, types.size)
        assert matrix.entries.shape == (params.max_child_count + 1,) * 2
        on_support = np.zeros(matrix.entries.shape, dtype=bool)
        on_support[np.ix_(types, types)] = True
        assert np.array_equal(matrix.entries[np.ix_(types, types)], matrix.block)
        assert not matrix.entries[~on_support].any()
        # rho comes from the size-to-size matrix, so it matches the block's
        # own Perron solve to the power iteration's tolerance, not bit for bit
        assert spectral_radius(matrix.entries) == spectral_radius(matrix.block)
        assert matrix.rho == pytest.approx(spectral_radius(matrix.block), rel=1e-9)
        # communities is shared with every with_threshold point
        for array in (matrix.entries, matrix.block, matrix.communities, matrix.columns):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_dimension_is_the_max_child_count(self):
        # the support stops at 116, the dense view still spans 0..120
        params = UNDERFLOW_MODELS[0]
        assert child_count_pmf(params).support_max == 116
        assert mean_matrix(params).dim == 121

    @pytest.mark.parametrize("params", TYPE_SPACE_MODELS)
    def test_mean_active_of_type_reads_the_column(self, params):
        types = child_count_pmf(params).values
        for w in params.community_sizes.support:
            column = mean_active_column(params, w)
            assert [mean_active_of_type(params, int(x), w) for x in types] == column.tolist()
            off = [x for x in (-1, types[0] - 1, types[-1] + 1) if x not in types]
            assert all(mean_active_of_type(params, x, w) == 0.0 for x in off)


# An 8-cycle whose first four edges weigh 10 and last four weigh 1, so rho is
# sqrt(10).  From the uniform start the extreme ratios sit inside the two
# halves and hold still until the change at the halves' boundaries reaches
# them: the bracket stalls for three steps.
STALLING_CYCLE = np.roll(np.diag([10.0] * 4 + [1.0] * 4), 1, axis=1)


def wide_range_block(seed):
    """An irreducible n x n block, n in 2..12, with entries from 1e-30 to 1e3.

    About half the cells hold a log-uniform entry, and one cycle through
    every index, also log-uniform, makes the block irreducible.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    block = 10.0 ** rng.uniform(-30, 3, size=(n, n))
    block *= rng.random((n, n)) < 0.5
    order = rng.permutation(n)
    block[order, np.roll(order, 1)] = 10.0 ** rng.uniform(-30, 3, size=n)
    return block


# The Perron roots of wide_range_block(0..15), from mpmath's eig at 60 digits
WIDE_RANGE_ROOTS = {
    0: 4.293652368247779409438458e-1,
    1: 2.33660389478070859995725e-3,
    2: 3.156149631588490045430717,
    3: 8.204867266436080644909592e-2,
    4: 3.526181727554430284336244e+1,
    5: 1.209041597028489774943055e-1,
    6: 5.106564479115998951834469e-5,
    7: 1.459727498335015121639134,
    8: 3.803083231362851697326878e+2,
    9: 3.939532136135123354385967e+2,
    10: 1.010187873406928815732169e+2,
    11: 4.275272070909079680234299,
    12: 1.749230794670592104213814e+1,
    13: 5.769029131540215767971456e+2,
    14: 9.215041985181124775535307e-10,
    15: 6.469762227922273454559779,
}


class TestSpectralRadius:
    def test_budget_exhausted_raises_with_bracket(self, monkeypatch):
        root = max(abs(np.linalg.eigvals(STALLING_CYCLE)))
        for max_iter in (1, 5, 50):
            monkeypatch.setattr(cascade_matrix, "POWER_MAX_ITER", max_iter)
            with pytest.raises(NoConvergence) as info:
                spectral_radius(STALLING_CYCLE)
            lo, hi = info.value.bracket
            assert lo <= root <= hi
            # a block under 1/2 throughout is lifted to STALLING_CYCLE / 16:
            # its bracket is scaled back by the same power of two, exactly
            with pytest.raises(NoConvergence) as lifted:
                spectral_radius(np.ldexp(STALLING_CYCLE, -60))
            assert lifted.value.bracket == (math.ldexp(lo, -60), math.ldexp(hi, -60))

    def test_stalled_bracket_converges_without_generator(self, monkeypatch):
        # the stall ends by itself: the deterministic iteration reaches sqrt(10)
        built = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        assert spectral_radius(STALLING_CYCLE) == pytest.approx(np.sqrt(10.0), abs=1e-9)
        assert built == []

    def test_wide_range_blocks_converge(self):
        # a root far below the row sums must not be lost next to the shift
        for seed in range(300):
            spectral_radius(wide_range_block(seed))

    @pytest.mark.parametrize("seed", sorted(WIDE_RANGE_ROOTS))
    def test_wide_range_blocks_match_pinned_roots(self, seed):
        root = WIDE_RANGE_ROOTS[seed]
        rho = spectral_radius(wide_range_block(seed))
        assert abs(rho - root) <= cascade_matrix.POWER_REL_TOL * root

    def test_exhausted_budget_names_its_bracket(self, monkeypatch):
        monkeypatch.setattr(cascade_matrix, "POWER_MAX_ITER", 5)
        with pytest.raises(NoConvergence) as info:
            spectral_radius(STALLING_CYCLE)
        lo, hi = info.value.bracket
        assert str(info.value) == (
            f"power iteration exhausted its budget with rho in [{lo:.17g}, {hi:.17g}]"
        )

    def test_perron_vector_past_the_double_range_refuses_with_its_bracket(self, monkeypatch):
        # the 3-cycle 1e200, 1e200, 1e-300 has rho = 10^(100/3), but its Perron
        # vector's entries span more than doubles hold, so the bracket cannot
        # close: the solve refuses, naming a finite bracket around rho
        monkeypatch.setattr(cascade_matrix, "POWER_MAX_ITER", 1000)
        with pytest.raises(NoConvergence) as info:
            spectral_radius(np.roll(np.diag([1e200, 1e200, 1e-300]), 1, axis=1))
        lo, hi = info.value.bracket
        assert np.isfinite([lo, hi]).all() and lo <= 10 ** (100 / 3) <= hi

    def test_known_two_cycle(self):
        assert spectral_radius(np.array([[0.0, 1.0], [2.0, 0.0]])) == pytest.approx(
            np.sqrt(2.0), abs=1e-9
        )

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, 2.5, 1.0])) == pytest.approx(2.5)

    def test_nilpotent_is_zero(self):
        assert spectral_radius(np.array([[0.0, 5.0], [0.0, 0.0]])) == 0.0

    def test_empty_and_scalar(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0
        assert spectral_radius(np.array([[0.7]])) == pytest.approx(0.7)

    @pytest.mark.parametrize("seed", range(12))
    def test_against_eigvals(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        matrix = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        expected = max(abs(np.linalg.eigvals(matrix)))
        assert spectral_radius(matrix) == pytest.approx(expected, abs=1e-8)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize(
        "matrix",
        [[[np.nan]], [[0.5, np.nan], [1.0, 0.2]], [[np.inf]], [[1.0, np.inf], [1.0, 0.0]]],
        ids=["nan", "nan-edge", "inf", "inf-edge"],
    )
    def test_rejects_non_finite_entries(self, matrix):
        # a NaN edge would drop out of the condensation and leave a plausible root
        with pytest.raises(ValueError, match="must be finite"):
            spectral_radius(np.array(matrix))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))


@st.composite
def boolean_matrices(draw):
    """n x n boolean matrices, n = 1..12, each at its own drawn density."""
    n, density = draw(st.integers(1, 12)), draw(st.floats(0.0, 1.0))
    draws = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    return np.array(draws).reshape(n, n) < density


class TestSCC:
    @given(boolean_matrices())
    @example(np.zeros((1, 1), dtype=bool))
    @example(np.ones((12, 12), dtype=bool))
    def test_partition_is_mutual_reachability(self, adjacency):
        # the classes of mutual reachability, from a Warshall closure of the
        # reflexive adjacency, are the components; each node lies in one
        n = adjacency.shape[0]
        reach = adjacency | np.eye(n, dtype=bool)
        for k in range(n):
            reach |= reach[:, [k]] & reach[[k], :]
        classes = {frozenset(np.flatnonzero(reach[i] & reach[:, i]).tolist()) for i in range(n)}
        components = strongly_connected_components(adjacency)
        assert sorted(node for comp in components for node in comp) == list(range(n))
        assert {frozenset(comp) for comp in components} == classes

    def test_two_cycle_plus_isolated(self):
        adjacency = np.array(
            [[False, True, False], [True, False, False], [False, False, False]]
        )
        components = {frozenset(c) for c in strongly_connected_components(adjacency)}
        assert components == {frozenset({0, 1}), frozenset({2})}

    def test_dag_all_singletons(self):
        adjacency = np.triu(np.ones((5, 5), dtype=bool), k=1)
        components = strongly_connected_components(adjacency)
        assert sorted(len(c) for c in components) == [1] * 5

    def test_long_chain_no_recursion_limit(self):
        n = 5000
        adjacency = np.zeros((n, n), dtype=bool)
        idx = np.arange(n - 1)
        adjacency[idx, idx + 1] = True
        components = strongly_connected_components(adjacency)
        assert len(components) == n

    def test_full_cycle_single_component(self):
        n = 6
        adjacency = np.zeros((n, n), dtype=bool)
        idx = np.arange(n)
        adjacency[idx, (idx + 1) % n] = True
        components = strongly_connected_components(adjacency)
        assert sorted(len(c) for c in components) == [n]


class TestVerdict:
    def test_triangle_cascade_possible(self, triangle_model):
        verdict = cascade_verdict(triangle_model)
        assert verdict.kind is VerdictKind.CASCADE_POSSIBLE
        assert verdict.reason is VerdictReason.SPECTRAL_RADIUS
        assert verdict.rho == pytest.approx(4.0, abs=1e-10)
        assert not verdict.boundary

    def test_triangle_blocked_finite(self, triangle_model):
        verdict = cascade_verdict(triangle_model.with_threshold("3/10"))
        assert verdict.kind is VerdictKind.FINITE_ALMOST_SURELY
        assert verdict.reason is VerdictReason.SPECTRAL_RADIUS

    def test_half_threshold_rule(self, triangle_model):
        verdict = cascade_verdict(triangle_model.with_threshold("1/2"))
        assert verdict.kind is VerdictKind.FINITE_ALMOST_SURELY
        assert verdict.reason is VerdictReason.THRESHOLD_AT_LEAST_HALF
        assert verdict.rho is None

    def test_half_rule_beats_degenerate_path(self, path_model):
        verdict = cascade_verdict(path_model.with_threshold("1/2"))
        assert verdict.kind is VerdictKind.FINITE_ALMOST_SURELY
        assert verdict.reason is VerdictReason.THRESHOLD_AT_LEAST_HALF

    def test_degenerate_path_cascades(self, path_model):
        verdict = cascade_verdict(path_model)
        assert verdict.kind is VerdictKind.CASCADE_ALMOST_SURE
        assert verdict.reason is VerdictReason.DEGENERATE_P2_Q2

    def test_representation_invariant(self, triangle_model):
        a = cascade_verdict(triangle_model.with_threshold(Threshold(3, 10)))
        b = cascade_verdict(triangle_model.with_threshold(Threshold(30, 100)))
        assert a == b

    def test_boundary_flagged_at_unit_radius(self):
        # mean child count exactly 1 and a threshold low enough to convert all
        params = model({1: 2 / 3, 2: 1 / 3}, {3: 1.0}, "1/100")
        assert child_count_pmf(params).mean() == pytest.approx(1.0, abs=1e-12)
        verdict = cascade_verdict(params)
        assert verdict.boundary
        assert verdict.kind is VerdictKind.FINITE_ALMOST_SURELY

    def test_rho_non_increasing_in_theta(self):
        params = model({2: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, "1/10")
        rhos = [
            mean_matrix(params.with_threshold(Threshold(j, 104))).rho
            for j in range(1, 52, 5)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(rhos, rhos[1:]))
