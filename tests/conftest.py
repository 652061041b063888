from itertools import groupby
from math import factorial

import hypothesis
import pytest
from hypothesis import strategies as st

from cliquecascade import ModelParams, Threshold

hypothesis.settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
)
hypothesis.settings.load_profile("ci")


def model(p: dict, q: dict, theta: str) -> ModelParams:
    return ModelParams.create(p, q, Threshold.from_string(theta))


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


# thresholds for the properties; most of them put theta * degree exactly on
# an integer for some degree the drawn models reach, where the floor flips
THETA_GRID = ("1/10", "1/6", "1/5", "1/4", "2/7", "3/10", "1/3", "2/5", "3/7", "1/2", "3/5")


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
