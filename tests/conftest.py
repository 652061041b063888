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

    The reference for the census configuration weights, which must equal it
    exactly: an integer count of orderings, then one float product in order.
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
    the state it keeps alive, for one-move and several-move states alike.
    """
    i, probs, keys, weights = state
    runs = [key for key in keys if key in ("on", "above")]
    assert list(keys[: len(runs)]) == runs  # the run keys come first
    if probs is None:  # one move: a multiplier per key, 1 for the state it reaches
        assert all(k == 1 for k in weights[len(runs):])
        probs, columns = np.ones(1), [[k] for k in weights[: len(runs)]]
        live = [0] * (len(keys) - len(runs))
    else:
        columns, live = weights
    members = np.zeros((probs.size, 2), dtype=np.int64)
    for key, column in zip(runs, columns):
        members[:, ("on", "above").index(key)] = column
    return i, probs, members, dict(zip(np.asarray(live).tolist(), keys[len(runs):]))


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
