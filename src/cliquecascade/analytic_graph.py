"""Closed-form structure of the projected graph before any contagion runs.

The one-mode projection of the community structure is locally a tree of
cliques generated by an alternating branching process: individuals spawn
communities by the size-biased membership law, communities spawn individuals
by the size-biased size law.  This module answers three questions about that
object alone: does the branching process survive (and with what extinction
probability), what does the root's degree look like, and how clustered is the
graph.  The fixed point reads the child-count pgf off child_count_pmf, the
one law, kept with its model, that the mean matrix and the samplers read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dist_core import ModelParams, Pmf, child_count_pmf, pgf_compose
from .errors import NoConvergence

# Newton steps before NoConvergence; a double root needs about 60.
FIXED_POINT_MAX_ITER = 100


@dataclass(frozen=True)
class BranchingCriterion:
    """Survival criterion comparing second to first factorial moments.

    The process survives with positive probability iff
    E[W(W-1)] * E[D(D-1)] > E[W] * E[D]
    (community sizes W, membership counts D).
    """

    lhs: float
    rhs: float

    @property
    def supercritical(self) -> bool:
        return self.lhs > self.rhs


@dataclass(frozen=True)
class ExtinctionReport:
    fixed_point: float
    extinction: float
    degenerate: bool


@dataclass(frozen=True)
class ClusteringResult:
    value: float
    degenerate_triples: bool


def survival_criterion(params: ModelParams) -> BranchingCriterion:
    lhs = params.community_sizes.factorial_moment(2) * params.memberships.factorial_moment(2)
    rhs = params.mean_community_size * params.mean_memberships
    return BranchingCriterion(lhs=lhs, rhs=rhs)


def smallest_fixed_point(params: ModelParams) -> float:
    """Smallest fixed point in [0, 1] of the child-count pgf f.

    Newton's method on g(x) = f(x) - x from 0.  g is convex with g(0) >= 0,
    so the iterates rise monotonically to the smallest root: quadratically
    off criticality, linearly at a double root.  Iteration stops at the
    first step that does not rise, where g has rounded to zero or below; so
    f(0) = 0 returns 0 after one evaluation.
    Raises NoConvergence (carrying the last iterate) if FIXED_POINT_MAX_ITER
    steps are not enough.
    """
    law = child_count_pmf(params)
    x = 0.0
    for _ in range(FIXED_POINT_MAX_ITER):
        slope = sum(v * p * x ** (v - 1) for v, p in law.items if v) - 1.0
        nxt = x - (law.pgf(x) - x) / slope if slope < 0.0 else x
        if nxt <= x:
            return x
        x = nxt
    raise NoConvergence("fixed-point iteration did not converge", last=x)


def extinction_probability(params: ModelParams) -> ExtinctionReport:
    """Extinction report for the vertex-generation branching process.

    The extinction probability is the membership pgf composed with the
    extra-members pgf at the smallest fixed point.  At or below criticality
    that point is provably 1, so no iteration is needed there, except on the
    infinite path (ModelParams.infinite_path): it survives although the
    criterion sits exactly on the boundary, and its f(0) = 0 gives 0 and 0.
    """
    if params.infinite_path or survival_criterion(params).supercritical:
        fixed = smallest_fixed_point(params)
        extinct = params.memberships.pgf(params.extra_members.pgf(fixed))
    else:
        fixed = extinct = 1.0
    return ExtinctionReport(fixed_point=fixed, extinction=extinct, degenerate=params.infinite_path)


def root_degree_pmf(params: ModelParams) -> Pmf:
    """Degree law of the root: sum over its communities of further members.

    The membership pgf composed with the extra-members pgf.
    """
    return pgf_compose(params.memberships, params.extra_members)


def clustering_coefficient(params: ModelParams) -> ClusteringResult:
    """Global clustering (triangle density over connected triples).

    Triangles come only from triples inside one community; open triples come
    either from two distinct communities of the centre or from one community.
    When the graph has no connected triples at all the ratio is undefined and
    the result is flagged instead.
    """
    lam = params.mean_memberships
    mu = params.mean_community_size
    triples_within = params.community_sizes.factorial_moment(3) / mu
    across = (params.memberships.factorial_moment(2) / lam) * (
        params.community_sizes.factorial_moment(2) / mu
    ) ** 2
    denominator = across + triples_within
    if denominator == 0.0:
        return ClusteringResult(value=0.0, degenerate_triples=True)
    return ClusteringResult(value=triples_within / denominator, degenerate_triples=False)
