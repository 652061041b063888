from itertools import groupby
from math import factorial, prod

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from cliquecascade import ModelParams, Threshold, child_count_pmf

hypothesis.settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
)
hypothesis.settings.load_profile("ci")


def model(p: dict, q: dict, theta: str) -> ModelParams:
    return ModelParams.create(p, q, Threshold.from_string(theta))


# child-count laws whose top types underflow to zero mass and leave the
# support: 116 < 120 and 793 < 798 max child count
UNDERFLOW_MODELS = (
    model({61: 1.0}, {2: 1.0 - 1e-6, 3: 1e-6}, "1/100"),
    model({400: 1.0}, {2: 0.9, 3: 0.1}, "1/100"),
)


def standard_model_suite() -> list[ModelParams]:
    """Fixed models plus seeded random ones, spanning the supported regimes."""
    fixed = [
        ({2: 1.0}, {2: 1.0}),
        ({3: 1.0}, {3: 1.0}),
        ({4: 1.0}, {4: 1.0}),
        ({2: 1.0}, {3: 1.0}),
        ({3: 1.0}, {2: 1.0}),
        ({4: 1.0}, {2: 1.0}),
        ({2: 1.0}, {4: 1.0}),
        ({1: 0.5, 3: 0.5}, {2: 1.0}),
        ({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}),
        ({3: 1.0}, {2: 0.3, 4: 0.7}),
    ]
    thetas = [
        Threshold(1, 10),
        Threshold(3, 10),
        Threshold(2, 5),
        Threshold(49, 100),
    ]
    models = []
    for i, (p, q) in enumerate(fixed):
        models.append(ModelParams.create(p, q, thetas[i % len(thetas)]))
    rng = np.random.default_rng(20240829)
    for i in range(10):
        p_support = sorted(rng.choice(np.arange(1, 5), size=rng.integers(1, 4), replace=False))
        q_support = sorted(rng.choice(np.arange(2, 5), size=rng.integers(1, 4), replace=False))
        p = _random_pmf(rng, [int(v) for v in p_support])
        q = _random_pmf(rng, [int(v) for v in q_support])
        models.append(ModelParams.create(p, q, thetas[i % len(thetas)]))
    return models


def _random_pmf(rng: np.random.Generator, support: list[int]) -> dict[int, float]:
    raw = rng.random(len(support)) + 0.1
    probs = raw / raw.sum()
    out = {v: float(p) for v, p in zip(support[:-1], probs[:-1])}
    out[support[-1]] = 1.0 - sum(out.values())
    return out


def order_stat_pmf(base, n: int, sorted_values) -> float:
    """Joint pmf of the order statistics of n iid draws at the sorted point.

    The reference for the census configuration weights, which agree with it
    within 1e-12 relative: an integer count of orderings, then one float
    product in order.
    """
    vals = tuple(sorted_values)
    assert len(vals) == n and list(vals) == sorted(vals)
    ties = 1
    for _, run in groupby(vals):
        ties *= factorial(len(list(run)))
    prob = float(factorial(n) // ties)
    for v in vals:
        prob *= base(v)
    return prob


def dense_horner(outer, inner) -> np.ndarray:
    """The composition outer(inner(z)) as coefficients indexed 0..degree.

    The reference for pgf_compose: Horner over every power of the outer law,
    each step one np.convolve with the dense inner law, zeros included.
    """
    outer_c, inner_c = np.zeros(outer.support_max + 1), np.zeros(inner.support_max + 1)
    outer_c[outer.values], inner_c[inner.values] = outer.probs, inner.probs
    result = np.array([outer_c[-1]])
    for k in range(len(outer_c) - 2, -1, -1):
        result = np.convolve(result, inner_c)
        result[0] += outer_c[k]
    return result


def law_pgf(params: ModelParams, law: dict, s) -> float:
    """The pgf of a clique outcome law at s, indexed like child_count_pmf(params).values.

    The same sum, in the same order, as verify's brute-force side.
    """
    index = {x: i for i, x in enumerate(child_count_pmf(params).support)}
    return sum(p * prod(s[index[x]] for x in o.types) for o, p in law.items())


# thresholds for the properties; most of them put theta * degree exactly on
# an integer for some degree the drawn models reach, where the floor flips
THETA_GRID = ("1/10", "1/6", "1/5", "1/4", "2/7", "3/10", "1/3", "2/5", "3/7", "1/2", "3/5")


def plan_moves(state):
    """One state of mc_sim's census walk plan as (i, probs, members, onward).

    members holds one (placed, left) row per move and onward maps a move to
    the state it keeps alive.  Asserts the plan's one form: the run keys
    first, each fed by some move, an int64 row of their members per move,
    and a slice of consecutive moves, one for each next state.
    """
    i, probs, keys, effects, live = state
    probs = np.ones(1) if probs is None else probs
    runs, after = keys[: effects.shape[1]], keys[effects.shape[1]:]
    assert list(runs) == [key for key in ("on", "above") if key in runs]
    assert effects.dtype == np.int64 and effects.shape[0] == probs.size and effects.any(axis=0).all()
    onward = range(probs.size)[live]
    assert live.step is None and list(after) == [i + col for col in onward]  # move col places col members
    members = np.zeros((probs.size, 2), dtype=np.int64)
    for key, column in zip(runs, effects.T):
        members[:, ("on", "above").index(key)] = column
    return i, probs, members, dict(zip(onward, after))


def plan_reach(tables) -> int:
    """The end of the last "on" run any walk of a census plan visits.

    Only the types at support positions below it are ever activated, so the
    census lists configuration rows for those alone.
    """
    return max((runs[0][1].stop for plan in tables.cliques for _, runs in plan), default=0)


@st.composite
def models(draw, memberships, sizes, max_points):
    def pmf(values):
        support = draw(st.lists(st.sampled_from(values), min_size=1, max_size=max_points, unique=True))
        weights = [draw(st.integers(1, 9)) for _ in support]
        return {v: w / sum(weights) for v, w in zip(support, weights)}

    return model(pmf(memberships), pmf(sizes), draw(st.sampled_from(THETA_GRID)))


@pytest.fixture
def triangle_model():
    """Three communities of three per individual; every closed form is tiny."""
    return model({3: 1.0}, {3: 1.0}, "1/10")


@pytest.fixture
def path_model():
    """The degenerate two-by-two model whose graph is an infinite path."""
    return model({2: 1.0}, {2: 1.0}, "2/5")


@pytest.fixture
def mixed_model():
    """Half the individuals join one community, half join three."""
    return model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10")
